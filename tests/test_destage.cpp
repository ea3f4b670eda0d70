// Tests for the batched destage pipeline (kdd/destage.hpp): the claim ->
// prepare -> fold -> commit protocol on KddCache, the disk-layout-ordered
// batch planner, the fold-now callers that run the same pipeline on groups
// they claim themselves, and the acceptance property of the overhaul — the
// batched cleaner (inline or driven by the ConcurrentCache cleaner pool)
// converges to a final array state byte-identical to the golden digest of
// the retired per-group serial cleaner on a fig9-style replay.
#include <algorithm>
#include <chrono>
#include <memory>
#include <vector>

#include <gtest/gtest.h>

#include "blockdev/ssd_model.hpp"
#include "harness/harness.hpp"
#include "kdd/concurrent.hpp"
#include "kdd/destage.hpp"
#include "kdd/kdd_cache.hpp"
#include "raid/raid_array.hpp"
#include "test_util.hpp"
#include "trace/generators.hpp"

namespace kdd {
namespace {

constexpr std::uint64_t kSeed = 99;

/// LZ-friendly page content (head-quarter entropy, repeated-stamp body) so
/// successive versions produce small deltas that actually go old + staged —
/// test_page() is deliberately incompressible and would take the oversized-
/// delta fallback instead of dirtying groups.
Page versioned_page(Lba lba, std::uint64_t version) {
  Page p = make_page();
  fill_replay_page(lba, version, kSeed, p);
  return p;
}

RaidGeometry small_geo() {
  RaidGeometry geo;
  geo.level = RaidLevel::kRaid5;
  geo.num_disks = 5;
  geo.chunk_pages = 4;
  geo.disk_pages = 256;
  return geo;
}

/// Config whose watermarks never trigger inline cleaning, so tests can drive
/// the destage pipeline by hand without maybe_clean interfering.
PolicyConfig manual_config() {
  PolicyConfig cfg;
  cfg.ssd_pages = 256;
  cfg.ways = 8;
  cfg.clean_high_watermark = 1.0;
  cfg.clean_low_watermark = 0.99;
  return cfg;
}

/// Dirties `groups` distinct parity groups: one write miss (clean fill) plus
/// one write hit (old + staged delta) on the first LBA of each group.
std::vector<GroupId> dirty_groups(KddCache& kdd, const RaidLayout& layout,
                                  std::size_t groups) {
  std::vector<GroupId> out;
  Lba lba = 0;
  std::uint64_t version = 0;
  while (out.size() < groups) {
    const GroupId g = layout.group_of(lba);
    if (std::find(out.begin(), out.end(), g) == out.end()) {
      EXPECT_EQ(kdd.write(lba, versioned_page(lba, ++version)), IoStatus::kOk);
      EXPECT_EQ(kdd.write(lba, versioned_page(lba, ++version)), IoStatus::kOk);
      out.push_back(g);
    }
    ++lba;
  }
  return out;
}

TEST(DestageBatch, ClaimReturnsGroupsInDiskLayoutOrder) {
  const RaidGeometry geo = small_geo();
  RaidArray array(geo);
  SsdConfig scfg;
  scfg.logical_pages = 256;
  SsdModel ssd(scfg);
  KddCache kdd(manual_config(), &array, &ssd);

  const std::vector<GroupId> dirtied = dirty_groups(kdd, array.layout(), 6);
  ASSERT_EQ(kdd.stale_groups(), 6u);

  DestageSource& src = kdd;
  const std::vector<GroupId> claimed = src.destage_claim(6);
  ASSERT_EQ(claimed.size(), 6u);
  // Disk-layout order: sorted by (parity disk, parity page).
  for (std::size_t i = 1; i < claimed.size(); ++i) {
    const DiskAddr a = array.layout().parity_addr(claimed[i - 1]);
    const DiskAddr b = array.layout().parity_addr(claimed[i]);
    EXPECT_TRUE(a.disk < b.disk || (a.disk == b.disk && a.page < b.page))
        << "claim not in disk-layout order at " << i;
  }
  // Claimed groups are exactly the dirtied ones.
  std::vector<GroupId> sorted_dirtied = dirtied;
  std::vector<GroupId> sorted_claimed = claimed;
  std::sort(sorted_dirtied.begin(), sorted_dirtied.end());
  std::sort(sorted_claimed.begin(), sorted_claimed.end());
  EXPECT_EQ(sorted_claimed, sorted_dirtied);

  // A second claim must not hand out in-flight groups...
  EXPECT_TRUE(src.destage_claim(6).empty());
  // ...until they are abandoned.
  src.destage_abandon(claimed);
  EXPECT_EQ(src.destage_claim(6).size(), 6u);
  src.destage_abandon(claimed);
  kdd.flush();
  EXPECT_TRUE(array.scrub().empty());
}

TEST(DestageBatch, ClaimHonoursMaxGroups) {
  const RaidGeometry geo = small_geo();
  RaidArray array(geo);
  SsdConfig scfg;
  scfg.logical_pages = 256;
  SsdModel ssd(scfg);
  KddCache kdd(manual_config(), &array, &ssd);

  dirty_groups(kdd, array.layout(), 5);
  DestageSource& src = kdd;
  const std::vector<GroupId> first = src.destage_claim(2);
  EXPECT_EQ(first.size(), 2u);
  const std::vector<GroupId> second = src.destage_claim(16);
  EXPECT_EQ(second.size(), 3u);  // the remaining unclaimed groups
  src.destage_abandon(first);
  src.destage_abandon(second);
  kdd.flush();
}

TEST(DestageBatch, ManualPipelineCleansClaimedGroups) {
  const RaidGeometry geo = small_geo();
  RaidArray array(geo);
  SsdConfig scfg;
  scfg.logical_pages = 256;
  SsdModel ssd(scfg);
  KddCache kdd(manual_config(), &array, &ssd);

  dirty_groups(kdd, array.layout(), 8);
  ASSERT_GT(kdd.old_pages(), 0u);

  DestageSource& src = kdd;
  for (;;) {
    const std::vector<GroupId> groups = src.destage_claim(3);
    if (groups.empty()) break;
    std::unique_ptr<DestageUnit> unit = src.destage_prepare(groups, nullptr);
    ASSERT_NE(unit, nullptr);
    unit->fold();  // no policy lock required here by contract
    src.destage_commit(*unit, nullptr);
  }
  EXPECT_EQ(kdd.stale_groups(), 0u);
  EXPECT_EQ(kdd.old_pages(), 0u);
  kdd.check_invariants();
  EXPECT_TRUE(array.scrub().empty());

  // Every page written is still readable with its final contents.
  Page buf = make_page();
  Lba lba = 0;
  std::uint64_t version = 0;
  std::size_t seen = 0;
  std::vector<GroupId> visited;
  while (seen < 8) {
    const GroupId g = array.layout().group_of(lba);
    if (std::find(visited.begin(), visited.end(), g) == visited.end()) {
      version += 2;
      ASSERT_EQ(kdd.read(lba, buf), IoStatus::kOk);
      EXPECT_EQ(buf, versioned_page(lba, version));
      visited.push_back(g);
      ++seen;
    }
    ++lba;
  }
}

TEST(DestageBatch, PrepareReleasesClaimsOfRepairedGroups) {
  const RaidGeometry geo = small_geo();
  RaidArray array(geo);
  SsdConfig scfg;
  scfg.logical_pages = 256;
  SsdModel ssd(scfg);
  KddCache kdd(manual_config(), &array, &ssd);

  dirty_groups(kdd, array.layout(), 4);
  DestageSource& src = kdd;
  const std::vector<GroupId> groups = src.destage_claim(4);
  ASSERT_EQ(groups.size(), 4u);
  // Claims must be released before a blocking flush (the facade's drain
  // barrier guarantees this ordering); flush then repairs everything inline.
  src.destage_abandon(groups);
  kdd.flush();
  // Claiming again finds nothing, and preparing an empty claim yields null.
  EXPECT_TRUE(src.destage_claim(4).empty());
  EXPECT_TRUE(array.scrub().empty());
}

// The batch size is autosized from the watermark gap: a quarter of it,
// clamped to [4, 64] groups.
TEST(DestageBatch, BatchSizeHonoursConfigOverrideAndClampsAuto) {
  const RaidGeometry geo = small_geo();
  SsdConfig scfg;
  scfg.logical_pages = 256;
  RaidArray array(geo);
  SsdModel ssd(scfg);
  KddCache kdd(manual_config(), &array, &ssd);
  EXPECT_GE(kdd.destage_batch_size(), 4u);
  EXPECT_LE(kdd.destage_batch_size(), 64u);
  EXPECT_EQ(static_cast<DestageSource&>(kdd).destage_batch_hint(),
            kdd.destage_batch_size());
}

// The acceptance property (fig9-style replay): inline batched cleaning and
// pool-driven batched cleaning converge to byte-identical array contents,
// equal to the golden read-back digest the retired per-group serial cleaner
// produced on this replay. Stats may differ (the *order* groups are
// destaged in differs, so eviction timing differs) — the digest, the op
// count and a clean scrub are the invariants.
TEST(DestageBatch, BatchedAndPooledCleanersMatchLegacyDigest) {
  constexpr std::uint64_t kLegacyDigest = 0xd8f94cabd535abf8ull;
  constexpr std::uint64_t kLegacyOps = 108309;

  SyntheticTraceConfig tcfg = fin1_config(0.01);
  tcfg.seed = 5;
  const Trace trace = generate_synthetic_trace(tcfg);
  const RaidGeometry geo = paper_geometry(tcfg.unique_total());

  struct Run {
    const char* name;
    unsigned threads;
    std::uint32_t pool;
  };
  const Run runs[] = {
      {"batched-inline", 1, 0},
      {"batched-pool", 4, 3},
  };

  for (const Run& run : runs) {
    RaidArray array(geo);
    SsdConfig scfg;
    scfg.logical_pages = 1024;
    SsdModel ssd(scfg);
    PolicyConfig cfg;
    cfg.ssd_pages = scfg.logical_pages;
    cfg.clean_high_watermark = 0.25;
    cfg.clean_low_watermark = 0.10;
    KddCache kdd(cfg, &array, &ssd);
    ConcurrentCache cache(&kdd, &array.layout(), std::chrono::milliseconds(2),
                          run.pool);

    const ConcurrentReplayResult r = run_concurrent_trace(
        cache, array.layout(), trace, geo.data_pages(), run.threads, /*seed=*/3);
    EXPECT_TRUE(array.scrub().empty()) << run.name;
    kdd.check_invariants();
    if (run.pool > 0) {
      EXPECT_EQ(cache.pool_threads(), run.pool) << run.name;
      EXPECT_GT(cache.pool_batches(), 0u) << run.name;
    }
    EXPECT_EQ(replay_readback_digest(cache, geo.data_pages()), kLegacyDigest)
        << run.name;
    EXPECT_EQ(r.ops, kLegacyOps) << run.name;
  }
}

// The facade's cleaner pool drives the claim protocol alongside the inline
// cleaner; a flush must drain everything and the final contents must be
// exact.
TEST(DestageBatch, PoolCleanersDrainOnFlush) {
  const RaidGeometry geo = small_geo();
  RaidArray array(geo);
  SsdConfig scfg;
  scfg.logical_pages = 256;
  SsdModel ssd(scfg);
  KddCache kdd(manual_config(), &array, &ssd);
  ConcurrentCache cache(&kdd, &array.layout(), std::chrono::milliseconds(2),
                        /*cleaner_threads=*/2);

  Page buf = make_page();
  for (Lba lba = 0; lba < 64; ++lba) {
    ASSERT_EQ(cache.write(lba, versioned_page(lba, 1)), IoStatus::kOk);
    ASSERT_EQ(cache.write(lba, versioned_page(lba, 2)), IoStatus::kOk);
  }
  cache.flush();
  EXPECT_TRUE(array.scrub().empty());
  for (Lba lba = 0; lba < 64; ++lba) {
    ASSERT_EQ(cache.read(lba, buf), IoStatus::kOk);
    EXPECT_EQ(buf, versioned_page(lba, 2));
  }
}

// A write hit to an old page whose member is down folds the page's group
// through the destage pipeline before writing through. With reclaim scheme 1
// the fold rewrites each old page as a clean combined copy, so the group's
// pages stay cache-resident; both fold flavours are covered (RMW when only
// part of the stripe is cached, reconstruct-write when all of it is).
TEST(DestageFoldNow, OldPageWriteOnFailedMemberReclaimsAsClean) {
  for (const bool full_stripe : {false, true}) {
    SCOPED_TRACE(full_stripe ? "reconstruct flavour" : "rmw flavour");
    const RaidGeometry geo = small_geo();
    RaidArray array(geo);
    SsdConfig scfg;
    scfg.logical_pages = 256;
    SsdModel ssd(scfg);
    PolicyConfig cfg = manual_config();
    cfg.reclaim_as_clean = true;
    KddCache kdd(cfg, &array, &ssd);
    const RaidLayout& layout = array.layout();
    testing::ReferenceModel model;

    const GroupId g = 9;
    const std::uint32_t members = full_stripe ? geo.data_disks() : 2;
    std::uint64_t version = 0;
    for (std::uint32_t k = 0; k < members; ++k) {
      const Lba lba = layout.group_member(g, k);
      for (int w = 0; w < 2; ++w) {  // miss (clean fill), then hit (old)
        const Page data = versioned_page(lba, ++version);
        ASSERT_EQ(kdd.write(lba, data), IoStatus::kOk);
        model.write(lba, data);
      }
    }
    ASSERT_EQ(kdd.old_pages(), members);
    ASSERT_TRUE(array.group_stale(g));

    const Lba target = layout.group_member(g, 0);
    const std::uint32_t disk = layout.map(target).disk;
    array.fail_disk(disk);
    const Page newest = versioned_page(target, ++version);
    ASSERT_EQ(kdd.write(target, newest), IoStatus::kOk);
    model.write(target, newest);

    EXPECT_EQ(kdd.degraded_delta_folds(), 1u);
    EXPECT_EQ(kdd.old_pages(), 0u);
    EXPECT_FALSE(array.group_stale(g));
    kdd.check_invariants();

    // Scheme 1 kept every member resident: all reads are cache hits, and the
    // lost member's newest version comes from the cache.
    const std::uint64_t hits_before = kdd.stats().read_hits;
    Page buf = make_page();
    for (const auto& [lba, page] : model.pages()) {
      ASSERT_EQ(kdd.read(lba, buf), IoStatus::kOk);
      EXPECT_EQ(buf, page) << "lba " << lba;
    }
    EXPECT_EQ(kdd.stats().read_hits - hits_before, model.pages().size());

    kdd.flush();
    EXPECT_EQ(array.rebuild_disk(disk), 0u);
    EXPECT_TRUE(array.scrub().empty());
    for (const auto& [lba, page] : model.pages()) {
      ASSERT_EQ(array.read_page(lba, buf), IoStatus::kOk);
      EXPECT_EQ(buf, page) << "lba " << lba;
    }
    kdd.check_invariants();
  }
}

// The rebuild stripe barrier folds every unclaimed dirty group in its window
// as one unit, but never a group another destage pass has claimed: that
// window is reported not clear (the rebuild step is deferred) until the
// claim is released.
TEST(DestageFoldNow, RangeBarrierSkipsClaimedGroupUntilAbandoned) {
  const RaidGeometry geo = small_geo();
  RaidArray array(geo);
  SsdConfig scfg;
  scfg.logical_pages = 256;
  SsdModel ssd(scfg);
  KddCache kdd(manual_config(), &array, &ssd);

  const std::vector<GroupId> dirtied = dirty_groups(kdd, array.layout(), 6);
  const GroupId end = *std::max_element(dirtied.begin(), dirtied.end()) + 1;
  DestageSource& src = kdd;
  const std::vector<GroupId> claimed = src.destage_claim(1);
  ASSERT_EQ(claimed.size(), 1u);

  EXPECT_FALSE(kdd.destage_range(0, end, nullptr));
  EXPECT_EQ(kdd.stale_groups(), 1u);
  EXPECT_TRUE(array.group_stale(claimed[0]));
  EXPECT_EQ(array.scrub(), claimed);
  kdd.check_invariants();

  src.destage_abandon(claimed);
  EXPECT_TRUE(kdd.destage_range(0, end, nullptr));
  EXPECT_EQ(kdd.stale_groups(), 0u);
  EXPECT_EQ(kdd.old_pages(), 0u);
  EXPECT_TRUE(array.scrub_range(0, end).empty());
  kdd.check_invariants();
}

}  // namespace
}  // namespace kdd
