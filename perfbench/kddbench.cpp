// Repository benchmark driver: replays one workload through KDD on two clocks.
//
//  * Host-clock phase: the real data path, ConcurrentCache -> KddCache over a
//    RaidArray and an SsdModel. A closed loop: each submitter keeps one request
//    outstanding, and page requests are partitioned by parity group so every
//    LBA's requests stay in trace order on one submitter. Every call is timed;
//    every read is checked against a reference model of the last acknowledged
//    version of each page. Rounds (set-up, replay, final flush, verification)
//    repeat until --seconds have passed.
//  * Sim-clock phase: the counter-mode KddCache under EventSimulator, open loop
//    at the trace's native arrival rate (the paper's Section IV-A method, as in
//    bench/fig9_trace_replay), each request timed from its scheduled arrival,
//    over kSimTraces traces of the workload.
//
// With --trace 0 it reports the end-to-end metrics; with --trace 1 it runs an
// untraced and a traced replay per round (plus a traced one-submitter replay
// for a multi-submitter workload) and reports per-layer metrics measured
// from outside the library: its own spans around every front-door call, the
// final flush, the compress calls and the simulator run, and the public
// counters of each module read before and after. Spans stay in memory and are
// written once at exit to --spans. The last line of stdout is one JSON object.
//
// Usage (perfbench/run.py passes the workload table of perfbench/workloads.json):
//   kddbench --name N --preset Fin1|Fin2|Hm0|Web0 --scale S --cache-ratio R
//            --submitters K --warmup 0|1 --seed N --seconds T --trace 0|1
//            [--spans FILE]
#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <latch>
#include <memory>
#include <span>
#include <string>
#include <thread>
#include <vector>

#include "blockdev/ssd_model.hpp"
#include "common/kernels.hpp"
#include "compress/delta.hpp"
#include "harness/harness.hpp"
#include "kdd/concurrent.hpp"
#include "kdd/kdd_cache.hpp"
#include "raid/raid_array.hpp"
#include "sim/event_sim.hpp"
#include "trace/generators.hpp"

namespace kdd::perfbench {
namespace {

using Clock = std::chrono::steady_clock;

std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             Clock::now().time_since_epoch())
      .count();
}

// The closed-loop replay never leaves the cache idle, so a timer-driven idle
// pass could only fire when the OS deschedules a submitter; such a pass would
// make the counts depend on scheduling noise. One day keeps it from firing.
constexpr std::chrono::milliseconds kNoIdlePass = std::chrono::hours(24);
// Calls per block of the host latency quantiles: at least 20 samples lie
// beyond each block's p99.
constexpr std::size_t kBlockCalls = 2000;
// Set-up is sampled at least this often per run so setup_s is a median.
constexpr std::size_t kMinSetups = 5;
// Traces replayed by the sim phase. One trace's mean response time moves by a
// few percent with the seed; pooling several narrows the run-to-run spread.
constexpr std::uint32_t kSimTraces = 4;
// (previous, new) page-version pairs timed through the compress codecs.
constexpr std::size_t kCompressPairs = 4096;

struct Args {
  std::string name;
  std::string preset;
  double scale = 0;
  double cache_ratio = 0;
  unsigned submitters = 0;
  bool warmup = false;
  std::uint64_t seed = 0;
  double seconds = 0;
  bool trace = false;
  std::string spans;
};

[[noreturn]] void usage(const char* why) {
  std::fprintf(stderr, "kddbench: %s\n", why);
  std::exit(2);
}

double parse_number(const char* flag, const char* text) {
  char* end = nullptr;
  const double v = std::strtod(text, &end);
  if (end == text || *end != '\0' || !std::isfinite(v) || v < 0) {
    usage((std::string("bad value for ") + flag).c_str());
  }
  return v;
}

Args parse_args(int argc, char** argv) {
  Args a;
  bool have_seed = false;
  for (int i = 1; i < argc; i += 2) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) usage(("missing value for " + flag).c_str());
    const char* v = argv[i + 1];
    if (flag == "--name") {
      a.name = v;
    } else if (flag == "--preset") {
      a.preset = v;
    } else if (flag == "--scale") {
      a.scale = parse_number("--scale", v);
    } else if (flag == "--cache-ratio") {
      a.cache_ratio = parse_number("--cache-ratio", v);
    } else if (flag == "--submitters") {
      a.submitters = static_cast<unsigned>(parse_number("--submitters", v));
    } else if (flag == "--warmup") {
      a.warmup = parse_number("--warmup", v) != 0;
    } else if (flag == "--seed") {
      char* end = nullptr;
      a.seed = std::strtoull(v, &end, 10);
      if (end == v || *end != '\0') usage("bad value for --seed");
      have_seed = true;
    } else if (flag == "--seconds") {
      a.seconds = parse_number("--seconds", v);
    } else if (flag == "--trace") {
      a.trace = parse_number("--trace", v) != 0;
    } else if (flag == "--spans") {
      a.spans = v;
    } else {
      usage(("unknown flag " + flag).c_str());
    }
  }
  if (a.name.empty() || a.preset.empty()) usage("--name and --preset are required");
  if (!(a.scale > 0 && a.scale <= 1)) usage("--scale must be in (0, 1]");
  if (!(a.cache_ratio > 0)) usage("--cache-ratio must be positive");
  if (a.submitters < 1 || a.submitters > 64) usage("--submitters must be in [1, 64]");
  if (!have_seed) usage("--seed is required");
  if (a.trace && a.spans.empty()) usage("--trace 1 needs --spans");
  return a;
}

// ---------------------------------------------------------------------------
// Statistics
// ---------------------------------------------------------------------------

/// Exact nearest-rank quantile; 0 for no samples.
template <typename T>
double quantile(std::vector<T> v, double q) {
  if (v.empty()) return 0;
  const auto rank =
      static_cast<std::size_t>(std::ceil(q * static_cast<double>(v.size())));
  const std::size_t k = std::min(v.size() - 1, rank == 0 ? 0 : rank - 1);
  std::nth_element(v.begin(), v.begin() + static_cast<std::ptrdiff_t>(k), v.end());
  return static_cast<double>(v[k]);
}

double median(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const std::size_t h = v.size() / 2;
  return v.size() % 2 ? v[h] : (v[h - 1] + v[h]) / 2;
}

template <typename T>
double mean(const std::vector<T>& v) {
  if (v.empty()) return 0;
  double s = 0;
  for (const T x : v) s += static_cast<double>(x);
  return s / static_cast<double>(v.size());
}

/// num / den as doubles; 0 when den is 0.
template <typename N, typename D>
double ratio(N num, D den) {
  const auto d = static_cast<double>(den);
  return d > 0 ? static_cast<double>(num) / d : 0;
}

double to_us(double ns) { return ns / 1e3; }

// ---------------------------------------------------------------------------
// Inputs and the reference model
// ---------------------------------------------------------------------------

/// One page-granular request. `version` is the write number for a write and,
/// for a read, the version the page must hold when the read runs (0: never
/// written, so zeros). `id` is the request's position in trace order.
struct Op {
  Lba lba = 0;
  std::uint64_t version = 0;
  std::uint64_t id = 0;
  bool is_read = false;
};

/// Calls fn(lba, is_read) for every page request of the trace, in order,
/// splitting multi-page records the way the library's replay drivers do.
template <typename Fn>
void for_each_page(const Trace& trace, std::uint64_t array_pages, Fn&& fn) {
  for (const TraceRecord& rec : trace.records) {
    for (std::uint32_t i = 0; i < rec.pages; ++i) {
      fn((rec.page + i) % array_pages, rec.is_read);
    }
  }
}

std::uint64_t cache_pages_for(std::uint64_t footprint, double ratio) {
  const auto pages = std::llround(ratio * static_cast<double>(footprint));
  return std::max<std::uint64_t>(64, static_cast<std::uint64_t>(pages));
}

struct Inputs {
  RaidGeometry geo;
  std::uint64_t array_pages = 0;
  std::uint64_t footprint = 0;
  std::uint64_t cache_pages = 0;
  std::uint64_t reads = 0;
  std::uint64_t writes = 0;
  std::vector<std::vector<Op>> shards;       ///< one per submitter
  std::vector<std::uint64_t> final_version;  ///< per LBA after the replay
  std::vector<Lba> first_touch;              ///< footprint in first-use order
};

Inputs make_inputs(const Args& a, unsigned submitters) {
  Inputs in;
  const Trace trace = generate_preset(a.preset, a.scale, a.seed);
  const TraceStats ts = compute_stats(trace);
  in.geo = paper_geometry(ts.max_page);
  in.array_pages = in.geo.data_pages();
  in.footprint = ts.unique_pages_total;
  in.cache_pages = cache_pages_for(in.footprint, a.cache_ratio);
  const RaidLayout layout(in.geo);
  in.shards.assign(submitters, {});
  in.final_version.assign(in.array_pages, 0);
  std::vector<bool> seen(in.array_pages, false);
  std::uint64_t id = 0;
  for_each_page(trace, in.array_pages, [&](Lba lba, bool is_read) {
    Op op;
    op.lba = lba;
    op.is_read = is_read;
    op.version = is_read ? in.final_version[lba] : ++in.final_version[lba];
    op.id = id++;
    in.shards[layout.group_of(lba) % submitters].push_back(op);
    (is_read ? in.reads : in.writes) += 1;
    if (!seen[lba]) {
      seen[lba] = true;
      in.first_touch.push_back(lba);
    }
  });
  return in;
}

bool all_zero(std::span<const std::uint8_t> page) {
  return std::all_of(page.begin(), page.end(), [](std::uint8_t b) { return b == 0; });
}

/// True when `got` is the image of `version` of `lba` (zeros for version 0).
bool matches(Lba lba, std::uint64_t version, std::uint64_t seed,
             std::span<const std::uint8_t> got, Page& scratch) {
  if (version == 0) return all_zero(got);
  fill_replay_page(lba, version, seed, scratch);
  return std::memcmp(got.data(), scratch.data(), kPageSize) == 0;
}

// ---------------------------------------------------------------------------
// The real data path and its public counters
// ---------------------------------------------------------------------------

PolicyConfig policy_config(std::uint64_t cache_pages) {
  PolicyConfig cfg;  // library defaults, so a changed default is measured
  cfg.ssd_pages = cache_pages;
  return cfg;
}

SsdConfig ssd_config(std::uint64_t cache_pages) {
  SsdConfig cfg;
  cfg.logical_pages = cache_pages;
  return cfg;
}

/// Devices, policy and front door of one round, destroyed front door first.
struct Rig {
  explicit Rig(const Inputs& in)
      : array(in.geo),
        ssd(ssd_config(in.cache_pages)),
        policy(make_policy(PolicyKind::kKdd, policy_config(in.cache_pages), &array,
                           &ssd)),
        kdd(dynamic_cast<KddCache&>(*policy)),
        cache(policy.get(), &array.layout(), kNoIdlePass, /*cleaner_threads=*/0) {}

  RaidArray array;
  SsdModel ssd;
  std::unique_ptr<CachePolicy> policy;
  KddCache& kdd;
  ConcurrentCache cache;
};

CacheStats minus(const CacheStats& a, const CacheStats& b) {
  CacheStats d;
  d.read_hits = a.read_hits - b.read_hits;
  d.read_misses = a.read_misses - b.read_misses;
  d.write_hits = a.write_hits - b.write_hits;
  d.write_misses = a.write_misses - b.write_misses;
  d.write_bypasses = a.write_bypasses - b.write_bypasses;
  d.ssd_reads = a.ssd_reads - b.ssd_reads;
  for (int k = 0; k < kNumSsdWriteKinds; ++k) {
    d.ssd_writes[k] = a.ssd_writes[k] - b.ssd_writes[k];
  }
  d.disk_reads = a.disk_reads - b.disk_reads;
  d.disk_writes = a.disk_writes - b.disk_writes;
  d.cleanings = a.cleanings - b.cleanings;
  d.groups_cleaned = a.groups_cleaned - b.groups_cleaned;
  d.log_gc_passes = a.log_gc_passes - b.log_gc_passes;
  return d;
}

/// Public counters of every layer the host phase drives.
struct Counts {
  CacheStats cache;                    ///< kdd + cache layers
  std::uint64_t raid_reads = 0;        ///< RaidArray member page reads
  std::uint64_t raid_writes = 0;
  std::uint64_t ssd_host_writes = 0;   ///< SsdModel FTL
  std::uint64_t ssd_nand_writes = 0;
  std::uint64_t ssd_erases = 0;
  std::uint64_t delta_fallbacks = 0;

  static Counts read(const Rig& rig) {
    Counts c;
    c.cache = rig.cache.stats();
    c.raid_reads = rig.array.total_disk_reads();
    c.raid_writes = rig.array.total_disk_writes();
    const SsdWearStats w = rig.ssd.wear();
    c.ssd_host_writes = w.host_page_writes;
    c.ssd_nand_writes = w.nand_page_writes;
    c.ssd_erases = w.block_erases;
    c.delta_fallbacks = rig.kdd.delta_fallbacks();
    return c;
  }

  Counts operator-(const Counts& b) const {
    Counts d;
    d.cache = minus(cache, b.cache);
    d.raid_reads = raid_reads - b.raid_reads;
    d.raid_writes = raid_writes - b.raid_writes;
    d.ssd_host_writes = ssd_host_writes - b.ssd_host_writes;
    d.ssd_nand_writes = ssd_nand_writes - b.ssd_nand_writes;
    d.ssd_erases = ssd_erases - b.ssd_erases;
    d.delta_fallbacks = delta_fallbacks - b.delta_fallbacks;
    return d;
  }

  void add(const Counts& o) {
    cache.merge(o.cache);
    raid_reads += o.raid_reads;
    raid_writes += o.raid_writes;
    ssd_host_writes += o.ssd_host_writes;
    ssd_nand_writes += o.ssd_nand_writes;
    ssd_erases += o.ssd_erases;
    delta_fallbacks += o.delta_fallbacks;
  }
};

// ---------------------------------------------------------------------------
// Spans
// ---------------------------------------------------------------------------

enum class SpanOp : std::uint8_t { kRead, kWrite, kFlush, kEncode, kDecode, kSimReplay };
enum class Outcome : std::uint8_t {
  kOk,
  kError,
  kReadHit,
  kReadMiss,
  kWriteHit,
  kWriteMiss
};

const char* span_op_name(SpanOp op) {
  switch (op) {
    case SpanOp::kRead: return "read";
    case SpanOp::kWrite: return "write";
    case SpanOp::kFlush: return "flush";
    case SpanOp::kEncode: return "compress.encode";
    case SpanOp::kDecode: return "compress.decode";
    case SpanOp::kSimReplay: return "sim.run_open_loop";
  }
  return "?";
}

const char* outcome_name(Outcome o) {
  switch (o) {
    case Outcome::kOk: return "ok";
    case Outcome::kError: return "error";
    case Outcome::kReadHit: return "read_hit";
    case Outcome::kReadMiss: return "read_miss";
    case Outcome::kWriteHit: return "write_hit";
    case Outcome::kWriteMiss: return "write_miss";
  }
  return "?";
}

/// One timed call; `req` is the request's position in trace order.
struct Span {
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  std::uint64_t req = 0;
  std::uint32_t thread = 0;
  SpanOp op = SpanOp::kRead;
  Outcome outcome = Outcome::kOk;
  bool inline_destage = false;  ///< CacheStats::cleanings advanced during the call
};

// ---------------------------------------------------------------------------
// One host-clock round: set-up, replay, final flush, verification
// ---------------------------------------------------------------------------

struct Tally {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  void add(const Tally& o) {
    attempted += o.attempted;
    failed += o.failed;
  }
};

struct SubmitterLog {
  std::vector<std::int64_t> read_ns;   ///< per-call durations
  std::vector<std::int64_t> write_ns;
  std::vector<Span> spans;             ///< traced replays only
  Tally tally;
  std::int64_t end_ns = 0;
  std::uint64_t stale_groups_peak = 0;  ///< probed replays only
};

struct Replay {
  std::uint32_t id = 0;
  unsigned submitters = 0;
  bool probed = false;  ///< per-call counter probes (traced, one submitter)
  double setup_s = 0;
  std::int64_t start_ns = 0;     ///< replay start (after set-up)
  std::int64_t flush_start_ns = 0;
  std::int64_t end_ns = 0;       ///< end of the final flush
  std::uint64_t ops = 0;
  std::uint64_t writes = 0;
  std::vector<SubmitterLog> logs;
  Counts counts;  ///< replay + final flush, warm-up excluded
  Tally tally;    ///< warm-up, replay and verification together
  double wall_s() const { return static_cast<double>(end_ns - start_ns) * 1e-9; }
};

/// Untimed warm-up: one read of every footprint page in first-use order, so
/// the cache holds the working set before the replay. Nothing was written
/// yet, so every read must return zeros.
void warm_up(const Inputs& in, Rig& rig, Tally& tally) {
  Page buf = make_page();
  for (const Lba lba : in.first_touch) {
    ++tally.attempted;
    const bool ok = rig.cache.read(lba, buf) == IoStatus::kOk && all_zero(buf);
    if (!ok) ++tally.failed;
  }
}

void submit_shard(const std::vector<Op>& ops, Rig& rig, std::uint64_t seed,
                  bool traced, bool probed, std::uint32_t thread, SubmitterLog& log) {
  Page buf = make_page();
  Page expect = make_page();
  log.read_ns.reserve(ops.size());
  log.write_ns.reserve(ops.size());
  if (traced) log.spans.reserve(ops.size());
  CacheStats before;
  for (const Op& op : ops) {
    if (!op.is_read) fill_replay_page(op.lba, op.version, seed, buf);
    if (probed) before = rig.cache.stats();
    const std::int64_t b = now_ns();
    const IoStatus st =
        op.is_read ? rig.cache.read(op.lba, buf) : rig.cache.write(op.lba, buf);
    const std::int64_t e = now_ns();
    (op.is_read ? log.read_ns : log.write_ns).push_back(e - b);
    ++log.tally.attempted;
    bool ok = st == IoStatus::kOk;
    if (ok && op.is_read) ok = matches(op.lba, op.version, seed, buf, expect);
    if (!ok) ++log.tally.failed;
    if (!traced) continue;
    Span s;
    s.start_ns = b;
    s.end_ns = e;
    s.req = op.id;
    s.thread = thread;
    s.op = op.is_read ? SpanOp::kRead : SpanOp::kWrite;
    s.outcome = st == IoStatus::kOk ? Outcome::kOk : Outcome::kError;
    if (probed && st == IoStatus::kOk) {
      const CacheStats after = rig.cache.stats();
      if (op.is_read) {
        s.outcome = after.read_hits > before.read_hits ? Outcome::kReadHit
                                                       : Outcome::kReadMiss;
      } else {
        s.outcome = after.write_hits > before.write_hits ? Outcome::kWriteHit
                                                         : Outcome::kWriteMiss;
      }
      s.inline_destage = after.cleanings > before.cleanings;
      log.stale_groups_peak =
          std::max(log.stale_groups_peak, rig.array.stale_group_count());
    }
    log.spans.push_back(s);
  }
  log.end_ns = now_ns();
}

/// After the final flush: the whole array reads back as the reference model
/// says, no parity group is stale, and the cache's invariants hold (a
/// violation aborts the process).
void verify(const Inputs& in, Rig& rig, std::uint64_t seed, Tally& tally) {
  Page buf = make_page();
  Page expect = make_page();
  for (Lba lba = 0; lba < in.array_pages; ++lba) {
    ++tally.attempted;
    const bool ok = rig.cache.read(lba, buf) == IoStatus::kOk &&
                    matches(lba, in.final_version[lba], seed, buf, expect);
    if (!ok) ++tally.failed;
  }
  const std::vector<GroupId> stale = rig.array.scrub();
  if (!stale.empty()) {
    std::fprintf(stderr, "kddbench: %zu parity groups fail scrub after flush\n",
                 stale.size());
    tally.failed += stale.size();
  }
  rig.kdd.check_invariants();
}

struct Setup {
  Inputs in;
  std::unique_ptr<Rig> rig;
  double seconds = 0;
};

Setup set_up(const Args& a, unsigned submitters, Tally& tally) {
  Setup s;
  const std::int64_t t0 = now_ns();
  s.in = make_inputs(a, submitters);
  s.rig = std::make_unique<Rig>(s.in);
  if (a.warmup) warm_up(s.in, *s.rig, tally);
  s.seconds = static_cast<double>(now_ns() - t0) * 1e-9;
  return s;
}

Replay run_replay(const Args& a, unsigned submitters, bool traced,
                  std::uint32_t replay_id) {
  Replay r;
  r.id = replay_id;
  r.submitters = submitters;
  r.probed = traced && submitters == 1;
  Setup s = set_up(a, submitters, r.tally);
  r.setup_s = s.seconds;
  Rig& rig = *s.rig;
  r.ops = s.in.reads + s.in.writes;
  r.writes = s.in.writes;
  const Counts before = Counts::read(rig);

  r.logs.resize(submitters);
  std::latch go(1);
  std::vector<std::thread> threads;
  threads.reserve(submitters);
  for (unsigned t = 0; t < submitters; ++t) {
    threads.emplace_back([&, t] {
      go.wait();
      submit_shard(s.in.shards[t], rig, a.seed, traced, r.probed, t, r.logs[t]);
    });
  }
  r.start_ns = now_ns();
  go.count_down();
  for (std::thread& th : threads) th.join();
  r.flush_start_ns = now_ns();
  rig.cache.flush();
  r.end_ns = now_ns();

  r.counts = Counts::read(rig) - before;
  for (const SubmitterLog& log : r.logs) r.tally.add(log.tally);
  verify(s.in, rig, a.seed, r.tally);
  return r;
}

// ---------------------------------------------------------------------------
// Sim-clock phase
// ---------------------------------------------------------------------------

/// Seed of the i-th simulated trace: the run's own seed first, then seeds
/// mixed from it, so runs with different seeds share no trace.
std::uint64_t sim_seed(std::uint64_t seed, std::uint32_t i) {
  if (i == 0) return seed;
  std::uint64_t z = seed + 0x9e3779b97f4a7c15ull * i;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  return z ^ (z >> 31);
}

/// The sim phase over kSimTraces traces of the workload, pooled.
struct SimPhase {
  std::vector<SimTime> latency_us;  ///< per recorded request
  std::uint64_t requests = 0;
  SimTime makespan_us = 0;          ///< summed over the traces
  std::vector<SimTime> hdd_busy_us;  ///< per disk, summed over the traces
  SimTime ssd_busy_us = 0;
  CacheStats stats;  ///< counter-mode stats of the replays, warm-up excluded
  std::uint32_t ssd_channels = 0;
  std::vector<Span> spans;

  double hdd_util_max() const {
    const SimTime busiest = *std::max_element(hdd_busy_us.begin(), hdd_busy_us.end());
    return ratio(busiest, makespan_us);
  }
  double ssd_util() const {
    return ratio(ssd_busy_us, static_cast<double>(makespan_us) * ssd_channels);
  }
};

SimPhase run_sim(const Args& a) {
  SimPhase p;
  for (std::uint32_t i = 0; i < kSimTraces; ++i) {
    Trace trace = generate_preset(a.preset, a.scale, sim_seed(a.seed, i));
    // A scaled trace carries scale * N requests over the full nominal
    // duration; compressing it to scale * duration restores the native
    // arrival rate.
    const double native_us = static_cast<double>(trace.duration_us()) * a.scale;
    rescale_duration(trace, static_cast<SimTime>(native_us));
    const TraceStats ts = compute_stats(trace);
    const RaidGeometry geo = paper_geometry(ts.max_page);
    const std::uint64_t pages = cache_pages_for(ts.unique_pages_total, a.cache_ratio);
    auto policy = make_policy(PolicyKind::kKdd, policy_config(pages), geo);
    if (a.warmup) {
      std::vector<bool> seen(geo.data_pages(), false);
      for_each_page(trace, geo.data_pages(), [&](Lba lba, bool) {
        if (seen[lba]) return;
        seen[lba] = true;
        policy->read(lba, {}, nullptr);
      });
    }
    const CacheStats before = policy->stats();
    const SimConfig cfg = paper_sim_config(geo.num_disks);
    p.ssd_channels = cfg.ssd.channels;
    EventSimulator sim(cfg, policy.get());
    sim.set_request_observer(
        [&p](SimTime, SimTime latency) { p.latency_us.push_back(latency); });
    Span span;
    span.op = SpanOp::kSimReplay;
    span.req = i;
    span.start_ns = now_ns();
    const SimResult r = sim.run_open_loop(trace);
    span.end_ns = now_ns();
    p.spans.push_back(span);
    p.requests += r.requests;
    p.makespan_us += r.makespan_us;
    p.hdd_busy_us.resize(r.hdd_busy_us.size(), 0);
    for (std::size_t d = 0; d < r.hdd_busy_us.size(); ++d) {
      p.hdd_busy_us[d] += r.hdd_busy_us[d];
    }
    p.ssd_busy_us += r.ssd_busy_us;
    p.stats.merge(minus(policy->stats(), before));
  }
  return p;
}

// ---------------------------------------------------------------------------
// compress: the codecs on the workload's own page versions
// ---------------------------------------------------------------------------

struct CompressPhase {
  std::vector<std::int64_t> encode_ns;
  std::vector<std::int64_t> decode_ns;
  double delta_bytes_sum = 0;
  std::vector<Span> spans;
  Tally tally;
};

CompressPhase run_compress(const Args& a) {
  CompressPhase p;
  const Trace trace = generate_preset(a.preset, a.scale, a.seed);
  const RaidGeometry geo = paper_geometry(compute_stats(trace).max_page);
  std::vector<std::uint64_t> version(geo.data_pages(), 0);
  std::vector<Op> pairs;  // writes that have a previous version
  std::uint64_t id = 0;
  for_each_page(trace, geo.data_pages(), [&](Lba lba, bool is_read) {
    ++id;
    if (is_read) return;
    const std::uint64_t v = ++version[lba];
    if (v >= 2) pairs.push_back(Op{lba, v, id - 1, false});
  });
  const std::size_t stride = std::max<std::size_t>(1, pairs.size() / kCompressPairs);
  Page prev = make_page();
  Page next = make_page();
  Page out = make_page();
  Delta delta;
  for (std::size_t i = 0; i < pairs.size(); i += stride) {
    const Op& op = pairs[i];
    fill_replay_page(op.lba, op.version - 1, a.seed, prev);
    fill_replay_page(op.lba, op.version, a.seed, next);
    const std::int64_t t0 = now_ns();
    make_delta_into(prev, next, delta);
    const std::int64_t t1 = now_ns();
    apply_delta_into(prev, delta, out);
    const std::int64_t t2 = now_ns();
    p.encode_ns.push_back(t1 - t0);
    p.decode_ns.push_back(t2 - t1);
    p.delta_bytes_sum += static_cast<double>(delta.packed_size());
    ++p.tally.attempted;
    if (out != next) ++p.tally.failed;
    p.spans.push_back(Span{t0, t1, op.id, 0, SpanOp::kEncode, Outcome::kOk, false});
    p.spans.push_back(Span{t1, t2, op.id, 0, SpanOp::kDecode, Outcome::kOk, false});
  }
  return p;
}

// ---------------------------------------------------------------------------
// Output
// ---------------------------------------------------------------------------

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

/// Minimal JSON writer for the single result object.
class Json {
 public:
  Json& begin() {
    separate();
    out_ += '{';
    first_ = true;
    return *this;
  }
  Json& end() {
    out_ += '}';
    first_ = false;
    return *this;
  }
  Json& key(const std::string& k) {
    separate();
    out_ += '"' + k + "\":";
    first_ = true;
    return *this;
  }
  Json& num(double v) {
    char buf[40];
    std::snprintf(buf, sizeof buf, "%.17g", std::isfinite(v) ? v : 0.0);
    return raw(buf);
  }
  Json& str(const std::string& s) {
    std::string e = "\"";
    for (const char c : s) {
      if (c == '"' || c == '\\') e += '\\';
      if (static_cast<unsigned char>(c) >= 0x20) e += c;
    }
    return raw(e + '"');
  }
  Json& boolean(bool b) { return raw(b ? "true" : "false"); }
  Json& raw(const std::string& value) {
    separate();
    out_ += value;
    first_ = false;
    return *this;
  }
  Json& field(const std::string& k, double v) { return key(k).num(v); }
  Json& field(const std::string& k, const std::string& v) { return key(k).str(v); }
  const std::string& text() const { return out_; }

 private:
  void separate() {
    if (!first_) out_ += ',';
  }
  std::string out_;
  bool first_ = true;
};

std::string json_array(const std::vector<double>& v) {
  std::string out = "[";
  for (std::size_t i = 0; i < v.size(); ++i) {
    Json one;
    out += (i ? "," : "") + one.num(v[i]).text();
  }
  return out + "]";
}

/// Front-door calls made by the replays.
double call_count(std::span<const Replay> rs) {
  double n = 0;
  for (const Replay& r : rs) {
    for (const SubmitterLog& log : r.logs) {
      n += static_cast<double>(log.read_ns.size() + log.write_ns.size());
    }
  }
  return n;
}

/// Appends the p50 and p99 of each block of kBlockCalls consecutive calls in
/// `ns` to `p50` and `p99`; a shorter tail joins the last block. A sequence
/// shorter than one block is one block.
void block_quantiles(const std::vector<std::int64_t>& ns, std::vector<double>& p50,
                     std::vector<double>& p99) {
  const std::size_t n = std::max<std::size_t>(1, ns.size() / kBlockCalls);
  for (std::size_t b = 0; b < n && !ns.empty(); ++b) {
    const auto first = ns.begin() + static_cast<std::ptrdiff_t>(b * kBlockCalls);
    const auto last =
        b + 1 == n ? ns.end() : first + static_cast<std::ptrdiff_t>(kBlockCalls);
    const std::vector<std::int64_t> block(first, last);
    p50.push_back(quantile(block, 0.50));
    p99.push_back(quantile(block, 0.99));
  }
}

double peak_rss_mib() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB on Linux
}

struct Report {
  std::vector<Metric> metrics;
  Tally tally;
  bool correct = true;
};

/// Calls round() until `seconds` are used up: at least once, and again only
/// while another round, as long as the last one, ends before the deadline.
template <typename Fn>
void repeat_for(double seconds, Fn&& round) {
  const std::int64_t deadline = now_ns() + static_cast<std::int64_t>(seconds * 1e9);
  std::int64_t last = 0;
  do {
    const std::int64_t t0 = now_ns();
    round();
    last = now_ns() - t0;
  } while (now_ns() + last <= deadline);
}

void end_to_end(const Args& a, Report& rep, Json& rec) {
  std::vector<Replay> rounds;
  std::vector<double> setups;
  repeat_for(a.seconds, [&] {
    rounds.push_back(run_replay(a, a.submitters, false, 0));
    setups.push_back(rounds.back().setup_s);
  });
  while (setups.size() < kMinSetups) {
    Tally t;
    setups.push_back(set_up(a, a.submitters, t).seconds);
    rep.tally.add(t);
  }
  const SimPhase sim = run_sim(a);

  // The host shares its CPUs, so call times drift by tens of percent over
  // seconds. Latency quantiles are therefore taken over short blocks of
  // consecutive calls and reported as the median over the blocks, and kops as
  // the median over the rounds: a stretch of slowed calls then moves few of
  // the statistics that make up the median instead of all of them.
  std::uint64_t read_calls = 0;
  std::uint64_t write_calls = 0;
  std::vector<double> round_kops;
  std::vector<double> round_ssd_writes;
  std::vector<double> blocks[4];  // read p50/p99, write p50/p99
  for (const Replay& r : rounds) {
    rep.tally.add(r.tally);
    round_kops.push_back(ratio(r.ops, r.wall_s()) / 1e3);
    round_ssd_writes.push_back(ratio(r.counts.cache.total_ssd_writes(), r.writes));
    for (const SubmitterLog& log : r.logs) {
      read_calls += log.read_ns.size();
      write_calls += log.write_ns.size();
      block_quantiles(log.read_ns, blocks[0], blocks[1]);
      block_quantiles(log.write_ns, blocks[2], blocks[3]);
    }
  }
  auto& m = rep.metrics;
  m.push_back({"host_kops", median(round_kops), "kops/s"});
  m.push_back({"host_read_p50_us", to_us(median(blocks[0])), "us"});
  m.push_back({"host_read_p99_us", to_us(median(blocks[1])), "us"});
  m.push_back({"host_write_p50_us", to_us(median(blocks[2])), "us"});
  m.push_back({"host_write_p99_us", to_us(median(blocks[3])), "us"});
  m.push_back({"sim_mean_ms", mean(sim.latency_us) / 1e3, "ms"});
  m.push_back({"sim_p99_ms", quantile(sim.latency_us, 0.99) / 1e3, "ms"});
  m.push_back({"ssd_writes_per_write", median(round_ssd_writes), "pages/page"});
  m.push_back({"fail_ratio", ratio(rep.tally.failed, rep.tally.attempted), "ratio"});
  m.push_back({"setup_s", median(setups), "s"});
  m.push_back({"peak_rss_mb", peak_rss_mib(), "MiB"});

  rec.field("rounds", static_cast<double>(rounds.size()));
  rec.key("round_host_kops").raw(json_array(round_kops));
  rec.key("round_ssd_writes_per_write").raw(json_array(round_ssd_writes));
  rec.key("samples").begin();
  rec.field("host_read_calls", static_cast<double>(read_calls));
  rec.field("host_write_calls", static_cast<double>(write_calls));
  rec.field("host_read_blocks", static_cast<double>(blocks[0].size()));
  rec.field("host_write_blocks", static_cast<double>(blocks[2].size()));
  rec.field("setups", static_cast<double>(setups.size()));
  rec.field("sim_requests", static_cast<double>(sim.latency_us.size()));
  rec.end();
}

void per_layer(const Args& a, Report& rep, Json& rec) {
  // untraced: timing baseline for trace.overhead; traced: spans at the
  // workload's submitter count; single: one traced submitter over the same
  // trace, which classifies each call by the counters it moved (with several
  // submitters the counters move under other threads' calls too).
  std::vector<Replay> untraced, traced, single;
  std::uint32_t replay_id = 0;
  repeat_for(a.seconds, [&] {
    untraced.push_back(run_replay(a, a.submitters, false, replay_id++));
    traced.push_back(run_replay(a, a.submitters, true, replay_id++));
    if (a.submitters > 1) single.push_back(run_replay(a, 1, true, replay_id++));
  });
  const std::vector<Replay>& probed = a.submitters > 1 ? single : traced;
  CompressPhase comp = run_compress(a);
  SimPhase sim = run_sim(a);

  for (const auto* set : {&untraced, &traced, &single}) {
    for (const Replay& r : *set) rep.tally.add(r.tally);
  }
  rep.tally.add(comp.tally);

  Counts c;
  double ops = 0;
  double writes = 0;
  for (const Replay& r : traced) {
    c.add(r.counts);
    ops += static_cast<double>(r.ops);
    writes += static_cast<double>(r.writes);
  }
  const double replays = static_cast<double>(traced.size());

  // Front-door calls by outcome class, inline destage stalls and the stale
  // group peak, from the probed replays.
  std::vector<std::int64_t> by_class[6];
  double destage_calls = 0;
  double destage_ns = 0;
  std::uint64_t stale_peak = 0;
  for (const Replay& r : probed) {
    for (const SubmitterLog& log : r.logs) {
      stale_peak = std::max(stale_peak, log.stale_groups_peak);
      for (const Span& s : log.spans) {
        by_class[static_cast<int>(s.outcome)].push_back(s.end_ns - s.start_ns);
        if (s.inline_destage) {
          destage_calls += 1;
          destage_ns += static_cast<double>(s.end_ns - s.start_ns);
        }
      }
    }
  }
  const double probed_replays = static_cast<double>(probed.size());

  // Mean front-door call time at the workload's submitter count vs one.
  auto mean_call_ns = [](const std::vector<Replay>& rs) {
    double sum = 0;
    for (const Replay& r : rs) {
      for (const SubmitterLog& log : r.logs) {
        for (const auto* v : {&log.read_ns, &log.write_ns}) {
          for (const std::int64_t x : *v) sum += static_cast<double>(x);
        }
      }
    }
    return ratio(sum, call_count(rs));
  };
  const double contention_ns =
      a.submitters > 1 ? mean_call_ns(traced) - mean_call_ns(single) : 0.0;

  // Reconciliation of the traced replays: each submitter's time from the
  // replay start to its last call, plus the final flush, against the time
  // covered by front-door and flush spans. The rest is the benchmark's own
  // work between calls (payloads, read checks, counter probes).
  double covered_ns = 0;
  double thread_ns = 0;
  double flush_ns = 0;
  std::vector<double> traced_wall, untraced_wall;
  for (const Replay& r : traced) {
    for (const SubmitterLog& log : r.logs) {
      thread_ns += static_cast<double>(log.end_ns - r.start_ns);
      for (const Span& s : log.spans) {
        covered_ns += static_cast<double>(s.end_ns - s.start_ns);
      }
    }
    const double f = static_cast<double>(r.end_ns - r.flush_start_ns);
    flush_ns += f;
    covered_ns += f;
    thread_ns += f;
    traced_wall.push_back(r.wall_s());
  }
  for (const Replay& r : untraced) untraced_wall.push_back(r.wall_s());

  const CacheStats& cs = c.cache;
  auto& m = rep.metrics;
  auto cls = [&](Outcome o) {
    return to_us(quantile(by_class[static_cast<int>(o)], 0.5));
  };
  m.push_back({"kdd.read_hit_us", cls(Outcome::kReadHit), "us"});
  m.push_back({"kdd.read_miss_us", cls(Outcome::kReadMiss), "us"});
  m.push_back({"kdd.write_hit_us", cls(Outcome::kWriteHit), "us"});
  m.push_back({"kdd.write_miss_us", cls(Outcome::kWriteMiss), "us"});
  m.push_back({"kdd.inline_destage_calls", destage_calls / probed_replays, "count"});
  m.push_back({"kdd.inline_destage_ms", destage_ns / probed_replays / 1e6, "ms"});
  m.push_back({"kdd.flush_ms", flush_ns / replays / 1e6, "ms"});
  m.push_back({"kdd.cleanings", static_cast<double>(cs.cleanings) / replays, "count"});
  m.push_back({"kdd.groups_per_cleaning",
               ratio(cs.groups_cleaned, cs.cleanings),
               "groups"});
  m.push_back({"kdd.contention_us_per_op", to_us(contention_ns), "us"});
  m.push_back({"kdd.delta_fallbacks_per_kwrite",
               ratio(c.delta_fallbacks, writes) * 1e3, "count/kwrite"});
  m.push_back({"cache.read_hit_ratio", cs.read_hit_ratio(), "ratio"});
  m.push_back({"cache.write_hit_ratio",
               ratio(cs.write_hits, cs.write_hits + cs.write_misses + cs.write_bypasses),
               "ratio"});
  for (int k = 0; k < kNumSsdWriteKinds; ++k) {
    m.push_back({std::string("cache.ssd_writes_per_write.") +
                     ssd_write_kind_name(static_cast<SsdWriteKind>(k)),
                 ratio(cs.ssd_writes[k], writes), "pages/page"});
  }
  m.push_back({"cache.ssd_reads_per_op", ratio(cs.ssd_reads, ops), "pages/op"});
  m.push_back({"cache.log_gc_passes", ratio(cs.log_gc_passes, replays), "count"});
  m.push_back({"compress.encode_us", to_us(quantile(comp.encode_ns, 0.5)), "us"});
  m.push_back({"compress.decode_us", to_us(quantile(comp.decode_ns, 0.5)), "us"});
  m.push_back({"compress.delta_bytes",
               ratio(comp.delta_bytes_sum, comp.encode_ns.size()), "bytes"});
  m.push_back({"raid.disk_reads_per_op", ratio(c.raid_reads, ops), "pages/op"});
  m.push_back({"raid.disk_writes_per_op", ratio(c.raid_writes, ops), "pages/op"});
  m.push_back({"raid.stale_groups_peak", static_cast<double>(stale_peak), "groups"});
  m.push_back({"blockdev.ssd_ftl_wa",
               ratio(c.ssd_nand_writes, c.ssd_host_writes),
               "ratio"});
  m.push_back({"blockdev.ssd_erases_per_kwrite",
               ratio(c.ssd_erases, writes) * 1e3, "count/kwrite"});
  m.push_back({"sim.hdd_util_max", sim.hdd_util_max(), "ratio"});
  m.push_back({"sim.ssd_util", sim.ssd_util(), "ratio"});
  m.push_back({"sim.disk_ios_per_request",
               ratio(sim.stats.disk_reads + sim.stats.disk_writes, sim.requests),
               "ios/request"});
  m.push_back({"sim.hit_ratio", sim.stats.hit_ratio(), "ratio"});
  m.push_back({"trace.overhead", ratio(median(traced_wall), median(untraced_wall)) - 1.0,
               "ratio"});
  m.push_back({"trace.unattributed_share", ratio(thread_ns - covered_ns, thread_ns),
               "ratio"});

  rec.field("rounds", static_cast<double>(traced.size()));
  rec.key("samples").begin();
  rec.field("traced_calls", call_count(traced));
  rec.field("probed_calls", call_count(probed));
  for (const Outcome o : {Outcome::kReadHit, Outcome::kReadMiss, Outcome::kWriteHit,
                          Outcome::kWriteMiss}) {
    rec.field(std::string("kdd.") + outcome_name(o),
              static_cast<double>(by_class[static_cast<int>(o)].size()));
  }
  rec.field("compress_pairs", static_cast<double>(comp.encode_ns.size()));
  rec.field("sim_requests", static_cast<double>(sim.latency_us.size()));
  rec.end();
  rec.key("reconciliation").begin();
  rec.field("submitter_and_flush_s", thread_ns * 1e-9);
  rec.field("front_door_spans_s", (covered_ns - flush_ns) * 1e-9);
  rec.field("flush_spans_s", flush_ns * 1e-9);
  rec.field("traced_replay_wall_s", median(traced_wall));
  rec.field("untraced_replay_wall_s", median(untraced_wall));
  rec.end();

  // Spans, written once at exit: every traced replay, then the compress
  // calls and the simulator run.
  std::FILE* f = std::fopen(a.spans.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "kddbench: cannot write %s\n", a.spans.c_str());
    rep.correct = false;
    return;
  }
  std::fputs("replay,submitters,req,thread,op,outcome,inline_destage,start_ns,end_ns\n",
             f);
  const std::int64_t t0 = traced.front().start_ns;
  auto row = [&](const std::string& replay, unsigned submitters, const Span& s) {
    std::fprintf(f, "%s,%u,%llu,%u,%s,%s,%d,%lld,%lld\n", replay.c_str(), submitters,
                 static_cast<unsigned long long>(s.req), s.thread, span_op_name(s.op),
                 outcome_name(s.outcome), s.inline_destage ? 1 : 0,
                 static_cast<long long>(s.start_ns - t0),
                 static_cast<long long>(s.end_ns - t0));
  };
  for (const auto* set : {&traced, &single}) {
    for (const Replay& r : *set) {
      const std::string label = std::to_string(r.id);
      for (const SubmitterLog& log : r.logs) {
        for (const Span& s : log.spans) row(label, r.submitters, s);
      }
      Span fs;
      fs.start_ns = r.flush_start_ns;
      fs.end_ns = r.end_ns;
      fs.op = SpanOp::kFlush;
      row(label, r.submitters, fs);
    }
  }
  for (const Span& s : comp.spans) row("compress", 1, s);
  for (const Span& sp : sim.spans) row("sim", 1, sp);
  if (std::fclose(f) != 0) rep.correct = false;
}

int run(const Args& a) {
  Report rep;
  Json rec;
  rec.begin();
  rec.field("workload", a.name).field("preset", a.preset).field("scale", a.scale);
  rec.field("seed", static_cast<double>(a.seed)).field("submitters", a.submitters);
  rec.field("kernels", kern::tier_name(kern::active_tier()));
  rec.field("compiler", KDDBENCH_COMPILER).field("build_type", KDDBENCH_BUILD_TYPE);
  {
    const Inputs in = make_inputs(a, 1);
    const double ops = static_cast<double>(in.reads + in.writes);
    rec.field("footprint_pages", static_cast<double>(in.footprint));
    rec.field("cache_pages", static_cast<double>(in.cache_pages));
    rec.field("page_requests", ops);
    rec.field("read_share", ratio(in.reads, ops));
  }
  if (a.trace) {
    per_layer(a, rep, rec);
  } else {
    end_to_end(a, rep, rec);
  }
  rec.end();
  rep.correct = rep.correct && rep.tally.failed == 0;

  Json out;
  out.begin();
  out.key("correct").boolean(rep.correct);
  out.field("attempted", static_cast<double>(rep.tally.attempted));
  out.field("failed", static_cast<double>(rep.tally.failed));
  out.key("metrics").begin();
  for (const Metric& m : rep.metrics) {
    out.key(m.name).begin().field("value", m.value).field("unit", m.unit).end();
  }
  out.end();
  out.key("record").raw(rec.text());
  out.end();
  std::printf("%s\n", out.text().c_str());
  return rep.correct ? 0 : 1;
}

}  // namespace
}  // namespace kdd::perfbench

int main(int argc, char** argv) {
  return kdd::perfbench::run(kdd::perfbench::parse_args(argc, argv));
}
