// Async submission/completion engine: the per-shard submission queues
// behind ConcurrentCache, admission control/backpressure,
// quiesce-on-failure semantics, and the sync-vs-async replay equivalence
// guarantee (byte-identical digests at every thread count and queue depth).
//
// The *Stress tests run under ThreadSanitizer in CI (submitters racing
// engine workers, completions racing flush barriers, a disk failure landing
// mid-flight).

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <mutex>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "blockdev/ssd_model.hpp"
#include "cache/nvram.hpp"
#include "common/rng.hpp"
#include "harness/harness.hpp"
#include "kdd/concurrent.hpp"
#include "kdd/kdd_cache.hpp"
#include "obs/metrics.hpp"
#include "raid/raid_array.hpp"
#include "raid/rebuild.hpp"
#include "test_util.hpp"
#include "trace/generators.hpp"

namespace kdd {
namespace {

using ::kdd::testing::ReferenceModel;
using ::kdd::testing::test_page;

// ---------------------------------------------------------------------------
// ConcurrentCache async engine
// ---------------------------------------------------------------------------

RaidGeometry engine_geo() {
  RaidGeometry geo;
  geo.level = RaidLevel::kRaid5;
  geo.num_disks = 5;
  geo.chunk_pages = 4;
  geo.disk_pages = 256;
  return geo;
}

struct EngineRig {
  explicit EngineRig(std::uint32_t workers = 2, std::size_t shard_depth = 64,
                     std::size_t high = 1024, std::size_t low = 512)
      : array(engine_geo()), ssd(ssd_cfg()), kdd(cache_cfg(), &array, &ssd),
        cache(&kdd, &array.layout(), std::chrono::milliseconds(2)) {
    AsyncEngineOptions opts;
    opts.workers = workers;
    opts.shard_queue_depth = shard_depth;
    opts.high_watermark = high;
    opts.low_watermark = low;
    cache.start_async(opts);
  }

  static SsdConfig ssd_cfg() {
    SsdConfig cfg;
    cfg.logical_pages = 256;
    return cfg;
  }
  static PolicyConfig cache_cfg() {
    PolicyConfig cfg;
    cfg.ssd_pages = 256;
    cfg.ways = 8;
    return cfg;
  }

  RaidArray array;
  SsdModel ssd;
  KddCache kdd;
  ConcurrentCache cache;
};

TEST(AsyncEngine, CompletesSubmittedRequestsAndCountsThem) {
  EngineRig rig;
  std::atomic<int> done{0};
  const Page data = test_page(5, 1);
  for (int i = 0; i < 32; ++i) {
    ASSERT_TRUE(rig.cache.submit_write(
        static_cast<Lba>(i), data, [&](IoStatus st) {
          EXPECT_EQ(st, IoStatus::kOk);
          done.fetch_add(1);
        }));
  }
  rig.cache.drain_async();
  EXPECT_EQ(done.load(), 32);
  const AsyncEngineStats st = rig.cache.async_stats();
  EXPECT_EQ(st.submitted, 32u);
  EXPECT_EQ(st.completed, 32u);
  EXPECT_EQ(st.inflight, 0u);
  EXPECT_EQ(st.rejected, 0u);
  // The inflight gauge settles back to zero once the engine drains.
  EXPECT_EQ(obs::MetricsRegistry::global().snapshot().gauge(
                "kdd_inflight_requests"),
            0);
}

TEST(AsyncEngine, ReadObservesEarlierWriteToSameLba) {
  EngineRig rig;
  const Lba lba = 9;
  const Page v1 = test_page(lba, 1);
  const Page v2 = test_page(lba, 2);
  Page out = make_page();
  std::atomic<int> step{0};
  // Same LBA -> same shard FIFO: write v1, write v2, read must see v2.
  ASSERT_TRUE(rig.cache.submit_write(lba, v1, [&](IoStatus) { ++step; }));
  ASSERT_TRUE(rig.cache.submit_write(lba, v2, [&](IoStatus) { ++step; }));
  ASSERT_TRUE(rig.cache.submit_read(lba, out, [&](IoStatus st) {
    EXPECT_EQ(st, IoStatus::kOk);
    ++step;
  }));
  rig.cache.drain_async();
  EXPECT_EQ(step.load(), 3);
  EXPECT_EQ(out, v2);
}

TEST(AsyncEngine, TrySubmitRejectsWhenShardQueueFullAndGateClosed) {
  // One worker, tiny bounds: depth 2 per shard, gate closes at 3 in flight.
  EngineRig rig(/*workers=*/1, /*shard_depth=*/2, /*high=*/3, /*low=*/1);
  const std::uint64_t rejected_before =
      obs::MetricsRegistry::global().snapshot().counter(
          "kdd_admission_rejected_total");

  std::mutex mu;
  std::condition_variable cv;
  bool worker_blocked = false;
  bool release = false;
  const Lba lba = 4;
  const Page data = test_page(lba, 3);
  // First request parks the only worker inside its completion callback.
  ASSERT_TRUE(rig.cache.submit_write(lba, data, [&](IoStatus) {
    std::unique_lock<std::mutex> lock(mu);
    worker_blocked = true;
    cv.notify_all();
    cv.wait(lock, [&] { return release; });
  }));
  {
    std::unique_lock<std::mutex> lock(mu);
    cv.wait(lock, [&] { return worker_blocked; });
  }
  // Two more fill the (now unclaimed) shard queue to its depth bound and
  // push inflight to the high watermark.
  ASSERT_TRUE(rig.cache.submit_write(lba, data, {}));
  ASSERT_TRUE(rig.cache.submit_write(lba, data, {}));
  // Shard full *and* gate closed: non-blocking submission must bounce.
  bool cb_ran = false;
  EXPECT_FALSE(rig.cache.try_submit_write(lba, data,
                                          [&](IoStatus) { cb_ran = true; }));
  EXPECT_FALSE(cb_ran);
  const AsyncEngineStats mid = rig.cache.async_stats();
  EXPECT_EQ(mid.rejected, 1u);
  EXPECT_EQ(mid.submitted, 3u);
  EXPECT_EQ(obs::MetricsRegistry::global().snapshot().counter(
                "kdd_admission_rejected_total"),
            rejected_before + 1);

  {
    const std::lock_guard<std::mutex> lock(mu);
    release = true;
  }
  cv.notify_all();
  rig.cache.drain_async();
  // Watermark hysteresis reopened the gate; submission works again.
  EXPECT_TRUE(rig.cache.try_submit_write(lba, data, {}));
  rig.cache.drain_async();
  const AsyncEngineStats st = rig.cache.async_stats();
  EXPECT_EQ(st.completed, 4u);
  EXPECT_EQ(st.inflight, 0u);
}

TEST(AsyncEngine, BlockingSubmitStallsInsteadOfRejecting) {
  EngineRig rig(/*workers=*/1, /*shard_depth=*/1, /*high=*/64, /*low=*/32);
  std::mutex mu;
  std::condition_variable cv;
  bool worker_blocked = false;
  bool release = false;
  const Lba lba = 4;
  const Page data = test_page(lba, 3);
  ASSERT_TRUE(rig.cache.submit_write(lba, data, [&](IoStatus) {
    std::unique_lock<std::mutex> lock(mu);
    worker_blocked = true;
    cv.notify_all();
    cv.wait(lock, [&] { return release; });
  }));
  {
    std::unique_lock<std::mutex> lock(mu);
    cv.wait(lock, [&] { return worker_blocked; });
  }
  ASSERT_TRUE(rig.cache.submit_write(lba, data, {}));  // fills depth-1 queue
  // This submission must wait for shard space rather than bounce. Release
  // the worker from another thread after it is provably waiting.
  std::thread releaser([&] {
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    {
      const std::lock_guard<std::mutex> lock(mu);
      release = true;
    }
    cv.notify_all();
  });
  EXPECT_TRUE(rig.cache.submit_write(lba, data, {}));
  releaser.join();
  rig.cache.drain_async();
  const AsyncEngineStats st = rig.cache.async_stats();
  EXPECT_EQ(st.submitted, 3u);
  EXPECT_EQ(st.completed, 3u);
  EXPECT_EQ(st.rejected, 0u);
  EXPECT_GE(st.stalls, 1u);
}

TEST(AsyncEngine, QuiesceRejectsNewSubmissionsUntilResume) {
  EngineRig rig;
  const Page data = test_page(1, 1);
  rig.cache.quiesce_submissions();
  EXPECT_FALSE(rig.cache.submit_write(1, data, {}));
  Page out = make_page();
  EXPECT_FALSE(rig.cache.try_submit_read(1, out, {}));
  EXPECT_EQ(rig.cache.async_stats().rejected, 2u);
  rig.cache.resume_submissions();
  EXPECT_TRUE(rig.cache.submit_write(1, data, {}));
  rig.cache.drain_async();
  EXPECT_EQ(rig.cache.async_stats().completed, 1u);
}

TEST(AsyncEngine, FlushWaitsForOutstandingAsyncWrites) {
  EngineRig rig;
  std::vector<Page> pages;
  for (Lba lba = 0; lba < 24; ++lba) {
    pages.push_back(test_page(lba, 100 + lba));
    ASSERT_TRUE(rig.cache.submit_write(lba, pages.back(), {}));
  }
  // flush() must act as a drain barrier: every submitted write lands in the
  // flushed state without an explicit drain_async() first.
  rig.cache.flush();
  EXPECT_EQ(rig.cache.async_stats().inflight, 0u);
  Page buf = make_page();
  for (Lba lba = 0; lba < 24; ++lba) {
    ASSERT_EQ(rig.cache.read(lba, buf), IoStatus::kOk);
    EXPECT_EQ(buf, pages[lba]) << "lba " << lba;
  }
}

TEST(AsyncEngine, QueueWaitHistogramRecordsEveryRequest) {
  const obs::MetricsSnapshot before = obs::MetricsRegistry::global().snapshot();
  const std::uint64_t count_before =
      before.histogram("kdd_queue_wait_ns") != nullptr
          ? before.histogram("kdd_queue_wait_ns")->count()
          : 0;
  {
    EngineRig rig;
    const Page data = test_page(0, 9);
    for (int i = 0; i < 16; ++i) {
      ASSERT_TRUE(rig.cache.submit_write(static_cast<Lba>(i), data, {}));
    }
    rig.cache.drain_async();
  }
  const obs::MetricsSnapshot after = obs::MetricsRegistry::global().snapshot();
  ASSERT_NE(after.histogram("kdd_queue_wait_ns"), nullptr);
  EXPECT_EQ(after.histogram("kdd_queue_wait_ns")->count(), count_before + 16);
}

// ---------------------------------------------------------------------------
// Sync-vs-async replay equivalence (the acceptance digest check)
// ---------------------------------------------------------------------------

TEST(AsyncEngine, SyncAndAsyncReplayDigestsAreByteIdentical) {
  SyntheticTraceConfig tcfg = fin1_config(0.01);
  tcfg.seed = 11;
  const Trace trace = generate_synthetic_trace(tcfg);
  const RaidGeometry geo = paper_geometry(tcfg.unique_total());
  const std::uint64_t array_pages = geo.data_pages();

  const auto sync_digest = [&](unsigned threads) {
    RaidArray array(geo);
    SsdConfig scfg;
    scfg.logical_pages = 1024;
    SsdModel ssd(scfg);
    PolicyConfig cfg;
    cfg.ssd_pages = scfg.logical_pages;
    KddCache kdd(cfg, &array, &ssd);
    ConcurrentCache cache(&kdd, &array.layout(), std::chrono::milliseconds(2));
    (void)run_concurrent_trace(cache, array.layout(), trace, array_pages,
                               threads, /*seed=*/7);
    return replay_readback_digest(cache, array_pages);
  };
  const auto async_digest = [&](unsigned threads, unsigned qd) {
    RaidArray array(geo);
    SsdConfig scfg;
    scfg.logical_pages = 1024;
    SsdModel ssd(scfg);
    PolicyConfig cfg;
    cfg.ssd_pages = scfg.logical_pages;
    KddCache kdd(cfg, &array, &ssd);
    ConcurrentCache cache(&kdd, &array.layout(), std::chrono::milliseconds(2));
    AsyncEngineOptions opts;
    opts.workers = threads;
    opts.shard_queue_depth = qd;
    opts.high_watermark = 4ull * threads * qd;
    opts.low_watermark = 2ull * threads * qd;
    cache.start_async(opts);
    (void)run_concurrent_trace_async(cache, array.layout(), trace, array_pages,
                                     threads, /*seed=*/7, qd);
    return replay_readback_digest(cache, array_pages);
  };

  const std::uint64_t want = sync_digest(1);
  EXPECT_EQ(sync_digest(4), want);
  const unsigned points[][2] = {{1, 4}, {2, 16}, {4, 64}, {8, 256}};
  for (const auto& p : points) {
    EXPECT_EQ(async_digest(p[0], p[1]), want)
        << "threads=" << p[0] << " qd=" << p[1];
  }
}

// ---------------------------------------------------------------------------
// Disk failure mid-flight: quiesce discipline
// ---------------------------------------------------------------------------

OnlineRebuildConfig slow_rebuild() {
  OnlineRebuildConfig cfg;
  cfg.chunk_groups = 8;
  cfg.min_chunk_groups = 2;
  cfg.ops_between_steps = 4;
  cfg.pressure_window = 64;
  return cfg;
}

struct OnlineAsyncRig {
  OnlineAsyncRig()
      : array(engine_geo()), ssd(EngineRig::ssd_cfg()), nvram(kPageSize, 255),
        engine(&array, slow_rebuild()),
        kdd(EngineRig::cache_cfg(), &array, &ssd, &nvram),
        cache(&kdd, &array.layout(), std::chrono::milliseconds(2)) {
    kdd.bind_rebuild_engine(&engine);
    AsyncEngineOptions opts;
    opts.workers = 2;
    opts.shard_queue_depth = 32;
    opts.high_watermark = 256;
    opts.low_watermark = 128;
    cache.start_async(opts);
  }

  RaidArray array;
  SsdModel ssd;
  NvramState nvram;
  RebuildEngine engine;
  KddCache kdd;
  ConcurrentCache cache;
};

TEST(AsyncEngine, OnlineDiskFailureQuiescesThenRecovers) {
  OnlineAsyncRig rig;
  const Lba span = 200;
  // Submitter writes each LBA exactly once while the main thread fails a
  // disk mid-flight. Quiesce bounces submissions during the handoff, so the
  // client retries — exactly the backpressure contract.
  std::thread submitter([&] {
    for (Lba lba = 0; lba < span; ++lba) {
      const Page data = test_page(lba, 1000 + lba);
      while (!rig.cache.submit_write(lba, data, [](IoStatus st) {
        ASSERT_EQ(st, IoStatus::kOk);
      })) {
        std::this_thread::yield();
      }
    }
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(2));
  EXPECT_TRUE(rig.cache.handle_disk_failure_online(1));
  EXPECT_NE(rig.engine.health(), ArrayHealth::kHealthy);
  submitter.join();
  rig.cache.drain_async();

  // Degraded/rebuilding reads must still return every committed write.
  Page buf = make_page();
  for (Lba lba = 0; lba < span; ++lba) {
    ASSERT_EQ(rig.cache.read(lba, buf), IoStatus::kOk) << "lba " << lba;
    ASSERT_EQ(buf, test_page(lba, 1000 + lba)) << "lba " << lba;
  }
  const AsyncEngineStats st = rig.cache.async_stats();
  EXPECT_EQ(st.submitted, st.completed);
  EXPECT_EQ(st.inflight, 0u);
}

// ---------------------------------------------------------------------------
// TSan stress: submitters racing completions, flush barriers, and a disk
// failure landing mid-flight. Run with KDD_SANITIZE=thread in CI.
// ---------------------------------------------------------------------------

TEST(AsyncEngineStress, SubmittersRacingCompletionsFlushAndDiskFailure) {
  OnlineAsyncRig rig;
  constexpr unsigned kSubmitters = 4;
  constexpr int kOpsPerThread = 300;
  const Lba span = std::min<Lba>(rig.array.data_pages(), 640);
  std::atomic<std::uint64_t> completions{0};

  std::vector<std::thread> submitters;
  for (unsigned t = 0; t < kSubmitters; ++t) {
    submitters.emplace_back([&, t] {
      Rng rng(500 + t);
      // Each submitter owns the parity groups congruent to its id, so the
      // per-group order invariant holds without cross-thread coordination.
      std::vector<Page> slots(8, make_page());
      std::atomic<unsigned> outstanding{0};
      for (int i = 0; i < kOpsPerThread; ++i) {
        Lba lba = rng.next_below(span);
        while (rig.array.layout().group_of(lba) % kSubmitters != t) {
          lba = rng.next_below(span);
        }
        while (outstanding.load(std::memory_order_acquire) >= slots.size()) {
          std::this_thread::yield();
        }
        const unsigned slot = static_cast<unsigned>(i) % slots.size();
        auto cb = [&completions, &outstanding](IoStatus st) {
          ASSERT_EQ(st, IoStatus::kOk);
          completions.fetch_add(1, std::memory_order_relaxed);
          outstanding.fetch_sub(1, std::memory_order_release);
        };
        outstanding.fetch_add(1, std::memory_order_relaxed);
        bool ok;
        if (rng.next_bool(0.7)) {
          fill_replay_page(lba, static_cast<std::uint64_t>(i), 7, slots[slot]);
          ok = rig.cache.submit_write(lba, slots[slot], cb);
        } else {
          ok = rig.cache.submit_read(lba, slots[slot], cb);
        }
        if (!ok) {
          // Quiesce window (disk failure below): drop and move on.
          outstanding.fetch_sub(1, std::memory_order_release);
        }
      }
      while (outstanding.load(std::memory_order_acquire) != 0) {
        std::this_thread::yield();
      }
    });
  }
  // Flush barriers racing the submitters.
  std::atomic<bool> stop_flusher{false};
  std::thread flusher([&] {
    while (!stop_flusher.load(std::memory_order_relaxed)) {
      rig.cache.flush();
      std::this_thread::sleep_for(std::chrono::milliseconds(3));
    }
  });
  // Disk failure mid-flight.
  std::this_thread::sleep_for(std::chrono::milliseconds(5));
  EXPECT_TRUE(rig.cache.handle_disk_failure_online(2));

  for (std::thread& s : submitters) s.join();
  stop_flusher.store(true, std::memory_order_relaxed);
  flusher.join();
  rig.cache.drain_async();
  rig.cache.flush();

  const AsyncEngineStats st = rig.cache.async_stats();
  EXPECT_EQ(st.submitted, st.completed);
  EXPECT_EQ(st.inflight, 0u);
  EXPECT_EQ(completions.load(), st.completed);
}

// Destroying the cache with requests still in flight must quiesce cleanly
// (destructor drains before joining the workers).
TEST(AsyncEngineStress, DestructorQuiescesWithRequestsInFlight) {
  std::atomic<int> done{0};
  {
    EngineRig rig;
    const Page data = test_page(0, 1);
    for (int i = 0; i < 64; ++i) {
      ASSERT_TRUE(rig.cache.submit_write(static_cast<Lba>(i % 100), data,
                                         [&](IoStatus) { ++done; }));
    }
    // No drain: the destructor must wait for all 64 completions itself.
  }
  EXPECT_EQ(done.load(), 64);
}

}  // namespace
}  // namespace kdd
