#include "kdd/kdd_cache.hpp"

#include <gtest/gtest.h>

#include <unordered_set>
#include <vector>

#include "compress/content.hpp"
#include "harness/harness.hpp"
#include "raid/rebuild.hpp"
#include "test_util.hpp"
#include "trace/zipf_workload.hpp"

namespace kdd {
namespace {

using testing::ReferenceModel;
using testing::test_page;

RaidGeometry small_geo() {
  RaidGeometry geo;
  geo.level = RaidLevel::kRaid5;
  geo.num_disks = 5;
  geo.chunk_pages = 4;
  geo.disk_pages = 256;
  return geo;
}

PolicyConfig small_config() {
  PolicyConfig cfg;
  cfg.ssd_pages = 256;
  cfg.ways = 8;
  return cfg;
}

SsdConfig small_ssd() {
  SsdConfig cfg;
  cfg.logical_pages = 256;
  cfg.pages_per_block = 16;
  return cfg;
}

// ---------------------------------------------------------------------------
// Counter-mode state machine
// ---------------------------------------------------------------------------

TEST(KddCounter, WriteHitDefersParityAndStagesDelta) {
  KddCache kdd(small_config(), small_geo());
  kdd.read(5, {}, nullptr);  // admit clean
  IoPlan plan;
  kdd.write(5, {}, &plan);
  EXPECT_EQ(kdd.old_pages(), 1u);
  EXPECT_EQ(kdd.staged_deltas(), 1u);
  EXPECT_EQ(kdd.stale_groups(), 1u);
  // The write-without-parity-update path: exactly one disk write, no disk read.
  std::size_t disk_writes = 0, disk_reads = 0;
  for (const auto& phase : plan.phases()) {
    for (const DeviceOp& op : phase) {
      if (op.target != DeviceOp::Target::kHdd) continue;
      (op.kind == IoKind::kWrite ? disk_writes : disk_reads)++;
    }
  }
  EXPECT_EQ(disk_writes, 1u);
  EXPECT_EQ(disk_reads, 0u);
}

TEST(KddCounter, WriteMissUsesConventionalParityUpdate) {
  KddCache kdd(small_config(), small_geo());
  IoPlan plan;
  kdd.write(5, {}, &plan);
  EXPECT_EQ(kdd.old_pages(), 0u);
  EXPECT_EQ(kdd.stale_groups(), 0u);
  std::size_t disk_ops = 0;
  for (const auto& phase : plan.phases()) {
    for (const DeviceOp& op : phase) {
      if (op.target == DeviceOp::Target::kHdd) ++disk_ops;
    }
  }
  EXPECT_EQ(disk_ops, 4u);  // RMW
}

TEST(KddCounter, StagingCommitPacksMultipleDeltasPerPage) {
  PolicyConfig cfg = small_config();
  cfg.delta_ratio_mean = 0.12;  // high content locality: ~500 B deltas
  KddCache kdd(cfg, small_geo());
  // Create many write hits so staging overflows into DEZ pages.
  for (Lba lba = 0; lba < 40; ++lba) kdd.read(lba, {}, nullptr);
  for (Lba lba = 0; lba < 40; ++lba) kdd.write(lba, {}, nullptr);
  const CacheStats s = kdd.stats();
  const std::uint64_t commits =
      s.ssd_writes[static_cast<int>(SsdWriteKind::kDeltaCommit)];
  EXPECT_GT(commits, 0u);
  // 40 deltas of ~500 B pack ~7-8 per 4 KiB page.
  EXPECT_LT(commits + kdd.staged_deltas() / 4, 15u);
  EXPECT_EQ(kdd.old_pages(), 40u);
  EXPECT_GT(kdd.dez_pages(), 0u);
}

TEST(KddCounter, ReadHitOnOldPageChargesDeltaRead) {
  PolicyConfig cfg = small_config();
  cfg.staging_buffer_bytes = kPageSize;
  cfg.delta_ratio_mean = 0.50;
  KddCache kdd(cfg, small_geo());
  kdd.read(5, {}, nullptr);
  kdd.write(5, {}, nullptr);
  const std::uint64_t reads_before = kdd.stats().ssd_reads;
  kdd.read(5, {}, nullptr);  // staged delta: DAZ read only
  const std::uint64_t staged_cost = kdd.stats().ssd_reads - reads_before;
  EXPECT_EQ(staged_cost, 1u);
  // Force the delta into a DEZ page; now a hit costs DAZ + DEZ reads.
  for (Lba lba = 10; lba < 20; ++lba) {
    kdd.read(lba, {}, nullptr);
    kdd.write(lba, {}, nullptr);
  }
  if (kdd.staged_deltas() == 0 || kdd.dez_pages() > 0) {
    const std::uint64_t before = kdd.stats().ssd_reads;
    kdd.read(5, {}, nullptr);
    EXPECT_GE(kdd.stats().ssd_reads - before, 1u);
  }
}

TEST(KddCounter, CleaningBoundsDirtyPages) {
  PolicyConfig cfg = small_config();
  cfg.ssd_pages = 512;
  cfg.clean_high_watermark = 0.20;
  cfg.clean_low_watermark = 0.10;
  KddCache kdd(cfg, small_geo());
  Rng rng(3);
  for (int i = 0; i < 20000; ++i) {
    const Lba lba = rng.next_below(600);
    if (rng.next_bool(0.7)) {
      kdd.write(lba, {}, nullptr);
    } else {
      kdd.read(lba, {}, nullptr);
    }
    const auto dirty = kdd.old_pages() + kdd.dez_pages();
    ASSERT_LE(dirty, static_cast<std::uint64_t>(
                         0.20 * static_cast<double>(kdd.sets().pages())) +
                         kdd.sets().ways())
        << "iteration " << i;
  }
  EXPECT_GT(kdd.stats().cleanings, 0u);
  EXPECT_GT(kdd.stats().groups_cleaned, 0u);
}

TEST(KddCounter, FlushLeavesNoPendingState) {
  KddCache kdd(small_config(), small_geo());
  Rng rng(4);
  for (int i = 0; i < 2000; ++i) {
    const Lba lba = rng.next_below(400);
    if (rng.next_bool(0.6)) {
      kdd.write(lba, {}, nullptr);
    } else {
      kdd.read(lba, {}, nullptr);
    }
  }
  kdd.flush(nullptr);
  EXPECT_EQ(kdd.old_pages(), 0u);
  EXPECT_EQ(kdd.dez_pages(), 0u);
  EXPECT_EQ(kdd.staged_deltas(), 0u);
  EXPECT_EQ(kdd.stale_groups(), 0u);
}

TEST(KddCounter, MetadataTrafficIsSmallFraction) {
  PolicyConfig cfg = small_config();
  cfg.ssd_pages = 2048;
  KddCache kdd(cfg, small_geo());
  Rng rng(5);
  for (int i = 0; i < 50000; ++i) {
    const Lba lba = rng.next_below(3000);
    if (rng.next_bool(0.5)) {
      kdd.write(lba % small_geo().data_pages(), {}, nullptr);
    } else {
      kdd.read(lba % small_geo().data_pages(), {}, nullptr);
    }
  }
  kdd.flush(nullptr);
  const CacheStats s = kdd.stats();
  const double fraction = static_cast<double>(s.metadata_ssd_writes()) /
                          static_cast<double>(s.total_ssd_writes());
  EXPECT_LT(fraction, 0.05);  // paper reports < 2 % at the default partition
  EXPECT_GT(s.metadata_ssd_writes(), 0u);
}

TEST(KddCounter, HigherContentLocalityWritesLess) {
  const RaidGeometry geo = paper_geometry(8191);
  ZipfWorkloadConfig wcfg;
  wcfg.working_set_pages = 4096;
  wcfg.total_requests = 40000;
  wcfg.read_rate = 0.2;
  std::uint64_t prev = ~0ull;
  for (const double mean : {0.50, 0.25, 0.12}) {
    PolicyConfig cfg;
    cfg.ssd_pages = 2048;
    cfg.delta_ratio_mean = mean;
    KddCache kdd(cfg, geo);
    const Trace trace = generate_zipf_trace(wcfg);
    const CacheStats s = run_counter_trace(kdd, trace, geo.data_pages());
    EXPECT_LT(s.total_ssd_writes(), prev) << "mean " << mean;
    prev = s.total_ssd_writes();
  }
}

TEST(KddCounter, StalenessExposureIsRecorded) {
  PolicyConfig cfg = small_config();
  cfg.ssd_pages = 512;
  cfg.clean_high_watermark = 0.15;  // frequent repairs
  cfg.clean_low_watermark = 0.05;
  KddCache kdd(cfg, small_geo());
  Rng rng(9);
  for (int i = 0; i < 8000; ++i) {
    const Lba lba = rng.next_below(500);
    if (rng.next_bool(0.7)) {
      kdd.write(lba, {}, nullptr);
    } else {
      kdd.read(lba, {}, nullptr);
    }
  }
  kdd.flush(nullptr);
  const LatencyHistogram& exposure = kdd.staleness_exposure();
  EXPECT_GT(exposure.count(), 0u);           // groups got stale and repaired
  EXPECT_GT(exposure.mean_us(), 0.0);        // ...after a nonzero interval
  // Tighter cleaning watermarks must shrink the exposure window.
  PolicyConfig lazy = cfg;
  lazy.clean_high_watermark = 0.60;
  lazy.clean_low_watermark = 0.30;
  KddCache kdd_lazy(lazy, small_geo());
  Rng rng2(9);
  for (int i = 0; i < 8000; ++i) {
    const Lba lba = rng2.next_below(500);
    if (rng2.next_bool(0.7)) {
      kdd_lazy.write(lba, {}, nullptr);
    } else {
      kdd_lazy.read(lba, {}, nullptr);
    }
  }
  kdd_lazy.flush(nullptr);
  EXPECT_LT(exposure.mean_us(), kdd_lazy.staleness_exposure().mean_us());
}

// ---------------------------------------------------------------------------
// Prototype-mode end-to-end correctness with realistic content locality
// ---------------------------------------------------------------------------

class KddRealContentTest : public ::testing::TestWithParam<double> {};

TEST_P(KddRealContentTest, ReadYourWritesWithContentLocality) {
  const double ratio = GetParam();
  const RaidGeometry geo = small_geo();
  RaidArray array(geo);
  SsdModel ssd(small_ssd());
  KddCache kdd(small_config(), &array, &ssd);

  const ContentGenerator gen(9);
  ReferenceModel model;
  Rng rng(10);
  Page buf = make_page();
  for (int i = 0; i < 4000; ++i) {
    const Lba lba = rng.next_below(512);
    if (rng.next_bool(0.5)) {
      // New version: mutate the current contents with the target locality.
      const Page base = model.contains(lba) ? model.read(lba) : gen.base_page(lba);
      const Page data = model.contains(lba) ? gen.mutate(base, ratio, rng) : base;
      ASSERT_EQ(kdd.write(lba, data, nullptr), IoStatus::kOk);
      model.write(lba, data);
    } else {
      ASSERT_EQ(kdd.read(lba, buf, nullptr), IoStatus::kOk);
      ASSERT_EQ(buf, model.read(lba)) << "lba " << lba << " iter " << i;
    }
  }
  kdd.flush(nullptr);
  EXPECT_TRUE(array.scrub().empty());
  for (const auto& [lba, page] : model.pages()) {
    ASSERT_EQ(array.read_page(lba, buf), IoStatus::kOk);
    ASSERT_EQ(buf, page) << "lba " << lba;
  }
}

INSTANTIATE_TEST_SUITE_P(Localities, KddRealContentTest,
                         ::testing::Values(0.12, 0.25, 0.50, 1.0));

// Geometry sweep: associativity and chunk size must not affect correctness.
class KddGeometryTest
    : public ::testing::TestWithParam<std::tuple<std::uint32_t, std::uint32_t>> {};

TEST_P(KddGeometryTest, ReadYourWritesAcrossGeometries) {
  const auto [ways, chunk_pages] = GetParam();
  RaidGeometry geo;
  geo.level = RaidLevel::kRaid5;
  geo.num_disks = 5;
  geo.chunk_pages = chunk_pages;
  geo.disk_pages = 64 * chunk_pages;
  RaidArray array(geo);
  SsdConfig scfg;
  scfg.logical_pages = 256;
  SsdModel ssd(scfg);
  PolicyConfig cfg;
  cfg.ssd_pages = 256;
  cfg.ways = ways;
  KddCache kdd(cfg, &array, &ssd);
  const ContentGenerator gen(55);
  ReferenceModel model;
  Rng rng(56);
  Page buf = make_page();
  for (int i = 0; i < 1500; ++i) {
    const Lba lba = rng.next_below(std::min<std::uint64_t>(400, geo.data_pages()));
    if (rng.next_bool(0.55)) {
      const Page base = model.contains(lba) ? model.read(lba) : gen.base_page(lba);
      const Page data = model.contains(lba) ? gen.mutate(base, 0.25, rng) : base;
      ASSERT_EQ(kdd.write(lba, data, nullptr), IoStatus::kOk);
      model.write(lba, data);
    } else {
      ASSERT_EQ(kdd.read(lba, buf, nullptr), IoStatus::kOk);
      ASSERT_EQ(buf, model.read(lba));
    }
  }
  kdd.check_invariants();
  kdd.flush(nullptr);
  EXPECT_TRUE(array.scrub().empty());
}

INSTANTIATE_TEST_SUITE_P(
    Geometries, KddGeometryTest,
    ::testing::Combine(::testing::Values(4u, 8u, 32u),   // associativity
                       ::testing::Values(1u, 4u, 16u)),  // chunk pages
    [](const auto& param_info) {
      return "ways" + std::to_string(std::get<0>(param_info.param)) + "_chunk" +
             std::to_string(std::get<1>(param_info.param));
    });

TEST(KddReal, IncompressibleContentTakesFallbacksButStaysCorrect) {
  const RaidGeometry geo = small_geo();
  RaidArray array(geo);
  SsdModel ssd(small_ssd());
  KddCache kdd(small_config(), &array, &ssd);
  ReferenceModel model;
  Rng rng(11);
  Page buf = make_page();
  for (int i = 0; i < 1500; ++i) {
    const Lba lba = rng.next_below(128);
    // Fully random contents: deltas never compress.
    const Page data = test_page(lba, static_cast<std::uint64_t>(i));
    ASSERT_EQ(kdd.write(lba, data, nullptr), IoStatus::kOk);
    model.write(lba, data);
    if (i % 7 == 0) {
      ASSERT_EQ(kdd.read(lba, buf, nullptr), IoStatus::kOk);
      ASSERT_EQ(buf, model.read(lba));
    }
  }
  EXPECT_GT(kdd.delta_fallbacks(), 0u);
  kdd.flush(nullptr);
  EXPECT_TRUE(array.scrub().empty());
}

TEST(KddReal, ReclaimAsCleanKeepsPagesCached) {
  const RaidGeometry geo = small_geo();
  PolicyConfig cfg = small_config();
  cfg.reclaim_as_clean = true;
  RaidArray array(geo);
  SsdModel ssd(small_ssd());
  KddCache kdd(cfg, &array, &ssd);
  const ContentGenerator gen(12);
  Rng rng(13);

  const Lba lba = 9;
  Page cur = gen.base_page(lba);
  ASSERT_EQ(kdd.write(lba, cur, nullptr), IoStatus::kOk);
  cur = gen.mutate(cur, 0.2, rng);
  ASSERT_EQ(kdd.write(lba, cur, nullptr), IoStatus::kOk);
  EXPECT_EQ(kdd.old_pages(), 1u);
  kdd.flush(nullptr);
  EXPECT_EQ(kdd.old_pages(), 0u);
  // Scheme 1: the page stays cached as clean and the next read hits.
  const std::uint64_t hits_before = kdd.stats().read_hits;
  Page buf = make_page();
  ASSERT_EQ(kdd.read(lba, buf, nullptr), IoStatus::kOk);
  EXPECT_EQ(buf, cur);
  EXPECT_EQ(kdd.stats().read_hits, hits_before + 1);
  EXPECT_TRUE(array.scrub().empty());
}

// ---------------------------------------------------------------------------
// Failure handling (Section III-E)
// ---------------------------------------------------------------------------

struct CrashRig {
  CrashRig()
      : array(small_geo()),
        ssd(small_ssd()),
        nvram(kPageSize, 255),
        kdd(std::make_unique<KddCache>(small_config(), &array, &ssd, &nvram)) {}

  void run_workload(int iters, double locality, std::uint64_t seed) {
    const ContentGenerator gen(21);
    Rng rng(seed);
    for (int i = 0; i < iters; ++i) {
      const Lba lba = rng.next_below(300);
      if (rng.next_bool(0.55)) {
        const Page base = model.contains(lba) ? model.read(lba) : gen.base_page(lba);
        const Page data =
            model.contains(lba) ? gen.mutate(base, locality, rng) : base;
        ASSERT_EQ(kdd->write(lba, data, nullptr), IoStatus::kOk);
        model.write(lba, data);
      } else {
        Page buf = make_page();
        ASSERT_EQ(kdd->read(lba, buf, nullptr), IoStatus::kOk);
        ASSERT_EQ(buf, model.read(lba));
      }
    }
  }

  void verify_reads() {
    Page buf = make_page();
    for (const auto& [lba, page] : model.pages()) {
      ASSERT_EQ(kdd->read(lba, buf, nullptr), IoStatus::kOk);
      ASSERT_EQ(buf, page) << "lba " << lba;
    }
  }

  RaidArray array;
  SsdModel ssd;
  NvramState nvram;
  std::unique_ptr<KddCache> kdd;
  ReferenceModel model;
};

TEST(KddFailure, PowerFailureRecoveryRestoresCacheState) {
  CrashRig rig;
  rig.run_workload(3000, 0.25, 31);
  const std::uint64_t old_before = rig.kdd->old_pages();
  const std::uint64_t stale_before = rig.kdd->stale_groups();
  EXPECT_GT(stale_before, 0u);  // crash with deferred parity pending

  // Power failure: DRAM state (the primary map) is lost; the SSD, the disks
  // and NVRAM survive. Rebuild from the metadata log + NVRAM buffers.
  rig.kdd = std::make_unique<KddCache>(small_config(), &rig.array, &rig.ssd,
                                       &rig.nvram, /*recover=*/true);
  EXPECT_EQ(rig.kdd->old_pages(), old_before);
  EXPECT_EQ(rig.kdd->stale_groups(), stale_before);
  rig.verify_reads();
  // Recovery must leave enough state to finish the deferred parity updates.
  rig.kdd->flush(nullptr);
  EXPECT_TRUE(rig.array.scrub().empty());
  rig.verify_reads();
}

TEST(KddFailure, PowerFailureThenMoreWritesStaysConsistent) {
  CrashRig rig;
  rig.run_workload(1500, 0.25, 32);
  rig.kdd = std::make_unique<KddCache>(small_config(), &rig.array, &rig.ssd,
                                       &rig.nvram, /*recover=*/true);
  rig.run_workload(1500, 0.25, 33);
  rig.kdd->flush(nullptr);
  EXPECT_TRUE(rig.array.scrub().empty());
  rig.verify_reads();
}

// Mixed-generation audit at recovery: a destage supersede lost in a torn
// staged segment can leave a stale mapping into a DEZ page that was reused
// by a later commit. Forge that signature — two surviving mappings whose
// packed ranges overlap in one DEZ page — and check that recovery drops
// every mapping into the page and resyncs the affected groups from data.
TEST(KddFailure, MixedGenerationDezMappingsDroppedAtRecovery) {
  CrashRig rig;
  rig.run_workload(1500, 0.25, 36);
  // Two DEZ-resident old pages packed into the same DEZ page.
  const CacheSets& sets = rig.kdd->sets();
  std::uint32_t a = CacheSets::kNone;
  std::uint32_t b = CacheSets::kNone;
  for (std::uint32_t i = 0; i < sets.pages() && b == CacheSets::kNone; ++i) {
    const CacheSets::CacheSlot& s = sets.slot(i);
    if (s.state != PageState::kOld || s.dez_idx == CacheSets::kStaged) continue;
    if (a == CacheSets::kNone) {
      a = i;
    } else if (s.dez_idx == sets.slot(a).dez_idx) {
      b = i;
    }
  }
  ASSERT_NE(b, CacheSets::kNone) << "workload left no DEZ page with two deltas";
  const std::uint32_t dez = sets.slot(a).dez_idx;
  std::vector<std::uint32_t> mapped;  // every old page mapped into `dez`
  std::unordered_set<GroupId> groups;
  for (std::uint32_t i = 0; i < sets.pages(); ++i) {
    const CacheSets::CacheSlot& s = sets.slot(i);
    if (s.state == PageState::kOld && s.dez_idx == dez) {
      mapped.push_back(i);
      groups.insert(rig.array.layout().group_of(s.lba));
    }
  }

  // The surviving stale generation: b's mapping now overlaps a's range.
  MetadataEntry forged;
  forged.daz_idx = b;
  forged.lba_raid = sets.slot(b).lba;
  forged.state = PageState::kOld;
  forged.dez_idx = dez;
  forged.dez_off = sets.slot(a).dez_off;
  forged.dez_len = sets.slot(b).dez_len;
  rig.nvram.metadata.put(forged);

  rig.kdd = std::make_unique<KddCache>(small_config(), &rig.array, &rig.ssd,
                                       &rig.nvram, /*recover=*/true);
  EXPECT_EQ(rig.kdd->media_fallbacks(), 1u);
  for (const std::uint32_t i : mapped) {
    EXPECT_NE(rig.kdd->sets().slot(i).state, PageState::kOld) << "slot " << i;
  }
  EXPECT_NE(rig.kdd->sets().slot(dez).state, PageState::kDelta);
  // A dropped group stays stale only while another of its pages still
  // carries a pending delta; otherwise recovery resynced it from data.
  for (const GroupId g : groups) {
    bool pending = false;
    for (std::uint32_t i = 0; i < rig.kdd->sets().pages(); ++i) {
      const CacheSets::CacheSlot& s = rig.kdd->sets().slot(i);
      pending |= s.state == PageState::kOld &&
                 rig.array.layout().group_of(s.lba) == g;
    }
    EXPECT_EQ(rig.array.group_stale(g), pending) << "group " << g;
  }
  rig.kdd->check_invariants();
  rig.verify_reads();
  rig.kdd->flush(nullptr);
  EXPECT_TRUE(rig.array.scrub().empty());
  rig.verify_reads();
}

// A clean write hit whose DAZ base is unreadable falls back to a plain
// write-through and rewrites the cache copy, which heals the sector.
TEST(KddFailure, CleanWriteHitOnUnreadableDazFallsBackToRaid) {
  CrashRig rig;
  const Lba lba = 7;
  const Page v1 = test_page(lba, 1);
  ASSERT_EQ(rig.kdd->write(lba, v1, nullptr), IoStatus::kOk);
  rig.model.write(lba, v1);
  std::uint32_t idx = CacheSets::kNone;
  for (std::uint32_t i = 0; i < rig.kdd->sets().pages(); ++i) {
    const CacheSets::CacheSlot& s = rig.kdd->sets().slot(i);
    if (s.state == PageState::kClean && s.lba == lba) idx = i;
  }
  ASSERT_NE(idx, CacheSets::kNone);
  rig.kdd->cache_ssd().faults()->inject_media_error(
      rig.kdd->cache_ssd().metadata_pages() + idx);

  const Page v2 = test_page(lba, 2);
  const std::uint64_t fallbacks = rig.kdd->media_fallbacks();
  EXPECT_EQ(rig.kdd->write(lba, v2, nullptr), IoStatus::kOk);
  rig.model.write(lba, v2);
  EXPECT_EQ(rig.kdd->media_fallbacks(), fallbacks + 1);
  rig.verify_reads();
  rig.kdd->flush(nullptr);
  EXPECT_TRUE(rig.array.scrub().empty());
  rig.verify_reads();
}

TEST(KddFailure, SsdFailureResyncsArrayWithNoDataLoss) {
  CrashRig rig;
  rig.run_workload(2000, 0.25, 34);
  EXPECT_GT(rig.kdd->stale_groups(), 0u);
  const std::uint64_t resynced = rig.kdd->handle_ssd_failure();
  EXPECT_GT(resynced, 0u);
  EXPECT_TRUE(rig.array.scrub().empty());  // RPO = 0: array fully consistent
  rig.verify_reads();                      // cache is cold but data is intact
}

TEST(KddFailure, HddFailureFlushesParityBeforeRebuild) {
  CrashRig rig;
  rig.run_workload(2000, 0.25, 35);
  EXPECT_GT(rig.kdd->stale_groups(), 0u);
  // KDD's protocol: parity_update everything, then rebuild. Zero groups may
  // be rebuilt from stale parity.
  EXPECT_EQ(rig.kdd->handle_disk_failure(2), 0u);
  EXPECT_TRUE(rig.array.scrub().empty());
  rig.verify_reads();
}

TEST(KddFailure, EveryDiskPositionIsRebuildable) {
  for (std::uint32_t disk = 0; disk < 5; ++disk) {
    CrashRig rig;
    rig.run_workload(800, 0.25, 36 + disk);
    EXPECT_EQ(rig.kdd->handle_disk_failure(disk), 0u) << "disk " << disk;
    rig.verify_reads();
  }
}

// ---------------------------------------------------------------------------
// Degraded service through the cache (ISSUE 6): a lost member's newest
// version can live only in the cache (DAZ base + delta) while the array's
// parity is still stale — the cache must serve it without ever consulting
// (or trusting) the degraded array.
// ---------------------------------------------------------------------------

/// Crawl-speed engine: the group under test stays un-rebuilt (member down)
/// for as long as the test needs it to be.
OnlineRebuildConfig crawl_rebuild() {
  OnlineRebuildConfig cfg;
  cfg.chunk_groups = 1;
  cfg.min_chunk_groups = 1;
  cfg.ops_between_steps = 1024;
  return cfg;
}

TEST(KddDegraded, ReadOfLostPageServedFromCachedDelta) {
  RaidArray array(small_geo());
  SsdModel ssd(small_ssd());
  NvramState nvram(kPageSize, 255);
  RebuildEngine engine(&array, crawl_rebuild());
  KddCache kdd(small_config(), &array, &ssd, &nvram);
  kdd.bind_rebuild_engine(&engine);

  // A page well past the initial cursor, written twice: the second write is a
  // deferred-parity hit, so the member disk holds v2 but parity still covers
  // v1 — the newest version is only reachable as DAZ base + cached delta.
  const GroupId g = 40;
  const Lba lba = array.layout().group_member(g, 0);
  const std::uint32_t disk = array.layout().map(lba).disk;
  const ContentGenerator gen(51);
  Rng rng(52);
  const Page v1 = gen.base_page(lba);
  ASSERT_EQ(kdd.write(lba, v1, nullptr), IoStatus::kOk);
  Page buf = make_page();
  ASSERT_EQ(kdd.read(lba, buf, nullptr), IoStatus::kOk);
  const Page v2 = gen.mutate(v1, 0.25, rng);
  ASSERT_EQ(kdd.write(lba, v2, nullptr), IoStatus::kOk);
  ASSERT_EQ(kdd.old_pages(), 1u);
  ASSERT_GE(kdd.stale_groups(), 1u);

  // The member fails online. No stop-the-world flush: the delta stays staged
  // and the group is still dirty when the degraded read arrives.
  ASSERT_TRUE(kdd.handle_disk_failure_online(disk));
  ASSERT_TRUE(array.member_down(disk, g));
  const std::uint64_t raid_reads_before = array.total_disk_reads();
  ASSERT_EQ(kdd.read(lba, buf, nullptr), IoStatus::kOk);
  EXPECT_EQ(buf, v2);
  EXPECT_EQ(kdd.degraded_cache_hits(), 1u);
  // Cache-resident service: the degraded read never touched the array.
  EXPECT_EQ(array.total_disk_reads(), raid_reads_before);

  // Finish the rebuild; the barrier folds the delta first, so no group is
  // ever reconstructed from stale parity, and the data survives end to end.
  int guard = 0;
  while (engine.rebuild_active()) {
    ASSERT_LT(++guard, 10000);
    kdd.on_idle(nullptr);
  }
  EXPECT_EQ(array.rebuild_stale_folds(), 0u);
  ASSERT_EQ(kdd.read(lba, buf, nullptr), IoStatus::kOk);
  EXPECT_EQ(buf, v2);
  kdd.flush(nullptr);
  EXPECT_TRUE(array.scrub().empty());
}

TEST(KddDegraded, MissOnLostPageFoldsPeerDeltaThenReconstructs) {
  RaidArray array(small_geo());
  SsdModel ssd(small_ssd());
  NvramState nvram(kPageSize, 255);
  RebuildEngine engine(&array, crawl_rebuild());
  KddCache kdd(small_config(), &array, &ssd, &nvram);
  kdd.bind_rebuild_engine(&engine);

  // Cold victim page, written straight to the array; a PEER in the same
  // stripe then takes a deferred-parity write, leaving the group stale.
  const GroupId g = 40;
  const Lba victim = array.layout().group_member(g, 0);
  const Lba peer = array.layout().group_member(g, 1);
  const Page vdata = test_page(victim, 7);
  ASSERT_EQ(array.write_page(victim, vdata), IoStatus::kOk);
  const ContentGenerator gen(53);
  Rng rng(54);
  const Page p1 = gen.base_page(peer);
  ASSERT_EQ(kdd.write(peer, p1, nullptr), IoStatus::kOk);
  Page buf = make_page();
  ASSERT_EQ(kdd.read(peer, buf, nullptr), IoStatus::kOk);
  const Page p2 = gen.mutate(p1, 0.25, rng);
  ASSERT_EQ(kdd.write(peer, p2, nullptr), IoStatus::kOk);
  ASSERT_EQ(kdd.old_pages(), 1u);
  ASSERT_TRUE(array.group_stale(g));

  // Lose the victim's disk. A read of the victim is a cache miss in a stale
  // group: the array must refuse to reconstruct from stale parity (it would
  // fabricate the pre-delta peer into the result); the cache folds the
  // group's deltas and retries — and the retry must yield the real data.
  const std::uint32_t disk = array.layout().map(victim).disk;
  ASSERT_TRUE(kdd.handle_disk_failure_online(disk));
  ASSERT_TRUE(array.member_down(disk, g));
  ASSERT_EQ(kdd.read(victim, buf, nullptr), IoStatus::kOk);
  EXPECT_EQ(buf, vdata);
  EXPECT_EQ(kdd.degraded_delta_folds(), 1u);
  EXPECT_FALSE(array.group_stale(g));

  // The peer's newest version survived the fold, and the rebuilt array is
  // fully consistent.
  ASSERT_EQ(kdd.read(peer, buf, nullptr), IoStatus::kOk);
  EXPECT_EQ(buf, p2);
  int guard = 0;
  while (engine.rebuild_active()) {
    ASSERT_LT(++guard, 10000);
    kdd.on_idle(nullptr);
  }
  EXPECT_EQ(array.rebuild_stale_folds(), 0u);
  ASSERT_EQ(kdd.read(victim, buf, nullptr), IoStatus::kOk);
  EXPECT_EQ(buf, vdata);
  kdd.flush(nullptr);
  EXPECT_TRUE(array.scrub().empty());
}

}  // namespace
}  // namespace kdd
