#include "harness/harness.hpp"

#include <algorithm>
#include <condition_variable>
#include <cstdlib>
#include <cstring>
#include <mutex>
#include <thread>
#include <unordered_map>

#include "common/check.hpp"
#include "common/hash.hpp"
#include "kdd/kdd_cache.hpp"
#include "policies/leavo.hpp"
#include "policies/nocache.hpp"
#include "policies/write_around.hpp"
#include "policies/write_back.hpp"
#include "policies/write_through.hpp"

namespace kdd {

std::string policy_kind_name(PolicyKind kind) {
  switch (kind) {
    case PolicyKind::kNossd: return "Nossd";
    case PolicyKind::kWT: return "WT";
    case PolicyKind::kWA: return "WA";
    case PolicyKind::kLeavO: return "LeavO";
    case PolicyKind::kKdd: return "KDD";
    case PolicyKind::kWB: return "WB";
  }
  return "?";
}

std::unique_ptr<CachePolicy> make_policy(PolicyKind kind, const PolicyConfig& config,
                                         const RaidGeometry& geo) {
  switch (kind) {
    case PolicyKind::kNossd: return std::make_unique<NoCachePolicy>(geo);
    case PolicyKind::kWT: return std::make_unique<WriteThroughPolicy>(config, geo);
    case PolicyKind::kWA: return std::make_unique<WriteAroundPolicy>(config, geo);
    case PolicyKind::kLeavO: return std::make_unique<LeavOPolicy>(config, geo);
    case PolicyKind::kKdd: return std::make_unique<KddCache>(config, geo);
    case PolicyKind::kWB: return std::make_unique<WriteBackPolicy>(config, geo);
  }
  return nullptr;
}

std::unique_ptr<CachePolicy> make_policy(PolicyKind kind, const PolicyConfig& config,
                                         RaidArray* array, SsdModel* ssd) {
  switch (kind) {
    case PolicyKind::kNossd: return std::make_unique<NoCachePolicy>(array);
    case PolicyKind::kWT:
      return std::make_unique<WriteThroughPolicy>(config, array, ssd);
    case PolicyKind::kWA:
      return std::make_unique<WriteAroundPolicy>(config, array, ssd);
    case PolicyKind::kLeavO: return std::make_unique<LeavOPolicy>(config, array, ssd);
    case PolicyKind::kKdd: return std::make_unique<KddCache>(config, array, ssd);
    case PolicyKind::kWB: return std::make_unique<WriteBackPolicy>(config, array, ssd);
  }
  return nullptr;
}

RaidGeometry paper_geometry(Lba max_page) {
  RaidGeometry geo;
  geo.level = RaidLevel::kRaid5;
  geo.num_disks = 5;
  geo.chunk_pages = 16;  // 64 KiB chunks
  const std::uint64_t needed = max_page + 1;
  const std::uint64_t per_disk = (needed + geo.data_disks() - 1) / geo.data_disks();
  geo.disk_pages = (per_disk / geo.chunk_pages + 2) * geo.chunk_pages;
  return geo;
}

CacheStats run_counter_trace(CachePolicy& policy, const Trace& trace,
                             std::uint64_t array_pages) {
  KDD_CHECK(array_pages > 0);
  for (const TraceRecord& rec : trace.records) {
    for (std::uint32_t i = 0; i < rec.pages; ++i) {
      const Lba lba = (rec.page + i) % array_pages;
      if (rec.is_read) {
        policy.read(lba, {}, nullptr);
      } else {
        policy.write(lba, {}, nullptr);
      }
    }
  }
  policy.flush(nullptr);
  return policy.stats();
}

SimConfig paper_sim_config(std::uint32_t num_disks) {
  SimConfig cfg;
  cfg.num_disks = num_disks;
  // 7,200 RPM SATA disk with caches disabled; SATA MLC SSD, 8 channels —
  // the class of hardware in Section IV-B1.
  cfg.hdd = HddTimingConfig{};
  cfg.ssd = SsdTimingConfig{};
  return cfg;
}

namespace {

std::uint64_t splitmix64(std::uint64_t& x) {
  x += 0x9e3779b97f4a7c15ull;
  std::uint64_t z = x;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  return z ^ (z >> 31);
}

}  // namespace

void fill_replay_page(Lba lba, std::uint64_t version, std::uint64_t seed,
                      std::span<std::uint8_t> out) {
  KDD_CHECK(out.size() == kPageSize);
  std::uint64_t state = seed ^ (lba * 0x9e3779b97f4a7c15ull) ^
                        (version * 0xda942042e4dd58b5ull);
  constexpr std::size_t kWords = kPageSize / sizeof(std::uint64_t);
  // High-entropy head quarter: every (lba, version) pair is unique even if
  // the body collides. Low-entropy body: one stamp word repeated, so
  // successive versions of a page produce LZ-friendly XOR deltas.
  std::size_t i = 0;
  for (; i < kWords / 4; ++i) {
    const std::uint64_t w = splitmix64(state);
    std::memcpy(out.data() + i * sizeof w, &w, sizeof w);
  }
  const std::uint64_t stamp = splitmix64(state);
  for (; i < kWords; ++i) {
    std::memcpy(out.data() + i * sizeof stamp, &stamp, sizeof stamp);
  }
}

namespace {

struct ReplayOp {
  Lba lba = 0;
  std::uint64_t version = 0;
  bool is_read = false;
};

// Partition page requests by owning parity group. Each LBA belongs to
// exactly one group and therefore one thread, so per-LBA request order is
// trace order regardless of the interleaving across threads. Write
// versions are assigned during this single sequential pass, which makes
// the payload of every write independent of the thread count.
std::uint64_t partition_replay_ops(const RaidLayout& layout, const Trace& trace,
                                   std::uint64_t array_pages, unsigned threads,
                                   std::vector<std::vector<ReplayOp>>& shards) {
  shards.assign(threads, {});
  std::unordered_map<Lba, std::uint64_t> versions;
  std::uint64_t ops = 0;
  for (const TraceRecord& rec : trace.records) {
    for (std::uint32_t i = 0; i < rec.pages; ++i) {
      const Lba lba = (rec.page + i) % array_pages;
      const std::size_t shard =
          static_cast<std::size_t>(layout.group_of(lba) % threads);
      ReplayOp op;
      op.lba = lba;
      op.is_read = rec.is_read;
      op.version = rec.is_read ? versions[lba] : ++versions[lba];
      shards[shard].push_back(op);
      ++ops;
    }
  }
  return ops;
}

}  // namespace

ConcurrentReplayResult run_concurrent_trace(ConcurrentCache& cache,
                                            const RaidLayout& layout,
                                            const Trace& trace,
                                            std::uint64_t array_pages,
                                            unsigned threads, std::uint64_t seed) {
  KDD_CHECK(array_pages > 0);
  KDD_CHECK(threads > 0);
  using Op = ReplayOp;
  std::vector<std::vector<Op>> shards;
  const std::uint64_t ops =
      partition_replay_ops(layout, trace, array_pages, threads, shards);
  std::vector<std::thread> workers;
  workers.reserve(threads);
  for (unsigned t = 0; t < threads; ++t) {
    workers.emplace_back([&cache, &shards, t, seed] {
      Page buf = make_page();
      for (const Op& op : shards[t]) {
        if (op.is_read) {
          KDD_CHECK(cache.read(op.lba, buf) == IoStatus::kOk);
        } else {
          fill_replay_page(op.lba, op.version, seed, buf);
          KDD_CHECK(cache.write(op.lba, buf) == IoStatus::kOk);
        }
      }
    });
  }
  for (std::thread& w : workers) w.join();
  cache.flush();
  ConcurrentReplayResult result;
  result.stats = cache.stats();
  result.front = cache.front_stats();
  result.ops = ops;
  return result;
}

ConcurrentReplayResult run_concurrent_trace_async(
    ConcurrentCache& cache, const RaidLayout& layout, const Trace& trace,
    std::uint64_t array_pages, unsigned threads, std::uint64_t seed,
    unsigned queue_depth) {
  KDD_CHECK(array_pages > 0);
  KDD_CHECK(threads > 0);
  KDD_CHECK(queue_depth > 0);
  KDD_CHECK(cache.async_started());
  std::vector<std::vector<ReplayOp>> shards;
  const std::uint64_t ops =
      partition_replay_ops(layout, trace, array_pages, threads, shards);
  std::vector<std::thread> submitters;
  submitters.reserve(threads);
  for (unsigned t = 0; t < threads; ++t) {
    submitters.emplace_back([&cache, &shards, t, seed, queue_depth] {
      // Bounded slot pool: at most queue_depth requests from this submitter
      // are outstanding, and read targets stay pinned until completion.
      // Write payloads are copied by submit_write, but the slot still rides
      // to completion so the depth bound covers both kinds.
      std::vector<Page> slots(queue_depth, make_page());
      std::vector<unsigned> free_slots(queue_depth);
      for (unsigned i = 0; i < queue_depth; ++i) free_slots[i] = i;
      std::mutex mu;
      std::condition_variable cv;
      unsigned outstanding = 0;
      for (const ReplayOp& op : shards[t]) {
        unsigned slot;
        {
          std::unique_lock<std::mutex> lock(mu);
          cv.wait(lock, [&] { return !free_slots.empty(); });
          slot = free_slots.back();
          free_slots.pop_back();
          ++outstanding;
        }
        auto done = [&mu, &cv, &free_slots, &outstanding, slot](IoStatus st) {
          KDD_CHECK(st == IoStatus::kOk);
          const std::lock_guard<std::mutex> lock(mu);
          free_slots.push_back(slot);
          --outstanding;
          cv.notify_all();
        };
        if (op.is_read) {
          KDD_CHECK(cache.submit_read(op.lba, slots[slot], std::move(done)));
        } else {
          fill_replay_page(op.lba, op.version, seed, slots[slot]);
          KDD_CHECK(cache.submit_write(op.lba, slots[slot], std::move(done)));
        }
      }
      std::unique_lock<std::mutex> lock(mu);
      cv.wait(lock, [&] { return outstanding == 0; });
    });
  }
  for (std::thread& w : submitters) w.join();
  cache.drain_async();
  cache.flush();
  ConcurrentReplayResult result;
  result.stats = cache.stats();
  result.front = cache.front_stats();
  result.ops = ops;
  return result;
}

std::uint64_t replay_readback_digest(ConcurrentCache& cache,
                                     std::uint64_t array_pages) {
  std::uint64_t h = kFnvOffset;
  Page buf = make_page();
  for (Lba lba = 0; lba < array_pages; ++lba) {
    KDD_CHECK(cache.read(lba, buf) == IoStatus::kOk);
    h = fnv1a(h, buf);
  }
  return h;
}

double experiment_scale(double fallback) {
  if (const char* env = std::getenv("KDD_SCALE")) {
    const double v = std::atof(env);
    if (v > 0.0 && v <= 1.0) return v;
  }
  return fallback;
}

}  // namespace kdd
