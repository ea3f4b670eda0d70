#include <gtest/gtest.h>

#include <algorithm>
#include <initializer_list>
#include <string>
#include <vector>

#include "blockdev/fault_device.hpp"
#include "blockdev/file_device.hpp"
#include "blockdev/mem_device.hpp"
#include "blockdev/ssd_model.hpp"
#include "blockdev/timing.hpp"
#include "common/hash.hpp"
#include "common/rng.hpp"
#include "common/stats.hpp"
#include "obs/log.hpp"
#include "test_util.hpp"

namespace kdd {
namespace {

using testing::ReferenceModel;
using testing::test_page;

TEST(MemBlockDevice, ReadWriteRoundTrip) {
  MemBlockDevice dev(16);
  const Page data = test_page(1);
  ASSERT_EQ(dev.write(3, data), IoStatus::kOk);
  Page out = make_page();
  ASSERT_EQ(dev.read(3, out), IoStatus::kOk);
  EXPECT_EQ(out, data);
  EXPECT_EQ(dev.counters().reads, 1u);
  EXPECT_EQ(dev.counters().writes, 1u);
}

TEST(MemBlockDevice, UnwrittenPagesAreZero) {
  MemBlockDevice dev(4);
  Page out(kPageSize, 0xff);
  ASSERT_EQ(dev.read(0, out), IoStatus::kOk);
  EXPECT_TRUE(all_zero(out));
}

TEST(MemBlockDevice, FailureBlocksIo) {
  MemBlockDevice dev(4);
  dev.fail();
  Page buf = make_page();
  EXPECT_EQ(dev.read(0, buf), IoStatus::kFailed);
  EXPECT_EQ(dev.write(0, buf), IoStatus::kFailed);
  dev.replace();
  EXPECT_EQ(dev.write(0, test_page(2)), IoStatus::kOk);
  ASSERT_EQ(dev.read(0, buf), IoStatus::kOk);
  EXPECT_EQ(buf, test_page(2));
}

TEST(MemBlockDevice, ReplaceBlanksContents) {
  MemBlockDevice dev(4);
  ASSERT_EQ(dev.write(1, test_page(3)), IoStatus::kOk);
  dev.fail();
  dev.replace();
  Page buf(kPageSize, 0xff);
  ASSERT_EQ(dev.read(1, buf), IoStatus::kOk);
  EXPECT_TRUE(all_zero(buf));
}

TEST(MemBlockDevice, CorruptPageFlipsBits) {
  MemBlockDevice dev(4);
  ASSERT_EQ(dev.write(0, test_page(4)), IoStatus::kOk);
  dev.corrupt_page(0, 0xff);
  Page buf = make_page();
  ASSERT_EQ(dev.read(0, buf), IoStatus::kOk);
  EXPECT_NE(buf, test_page(4));
}

SsdConfig small_ssd() {
  SsdConfig cfg;
  cfg.logical_pages = 512;
  cfg.pages_per_block = 16;
  cfg.overprovision = 0.10;
  cfg.gc_free_block_threshold = 3;
  return cfg;
}

TEST(SsdModel, ReadWriteRoundTrip) {
  SsdModel ssd(small_ssd());
  ASSERT_EQ(ssd.write(5, test_page(5)), IoStatus::kOk);
  Page out = make_page();
  ASSERT_EQ(ssd.read(5, out), IoStatus::kOk);
  EXPECT_EQ(out, test_page(5));
}

TEST(SsdModel, UnmappedReadsZero) {
  SsdModel ssd(small_ssd());
  Page out(kPageSize, 0xaa);
  ASSERT_EQ(ssd.read(7, out), IoStatus::kOk);
  EXPECT_TRUE(all_zero(out));
}

TEST(SsdModel, OverwriteKeepsLatest) {
  SsdModel ssd(small_ssd());
  ASSERT_EQ(ssd.write(9, test_page(9, 0)), IoStatus::kOk);
  ASSERT_EQ(ssd.write(9, test_page(9, 1)), IoStatus::kOk);
  Page out = make_page();
  ASSERT_EQ(ssd.read(9, out), IoStatus::kOk);
  EXPECT_EQ(out, test_page(9, 1));
}

TEST(SsdModel, TrimUnmaps) {
  SsdModel ssd(small_ssd());
  ASSERT_EQ(ssd.write(2, test_page(2)), IoStatus::kOk);
  ssd.trim(2);
  Page out(kPageSize, 0xbb);
  ASSERT_EQ(ssd.read(2, out), IoStatus::kOk);
  EXPECT_TRUE(all_zero(out));
}

TEST(SsdModel, GcPreservesDataUnderChurn) {
  // Overwrite far more than physical capacity; greedy GC must relocate
  // without losing anything.
  SsdModel ssd(small_ssd());
  ReferenceModel model;
  Rng rng(1);
  for (int i = 0; i < 20000; ++i) {
    const Lba lba = rng.next_below(ssd.num_pages());
    const Page data = test_page(lba, static_cast<std::uint64_t>(i));
    ASSERT_EQ(ssd.write(lba, data), IoStatus::kOk);
    model.write(lba, data);
  }
  EXPECT_GT(ssd.wear().block_erases, 0u);
  Page out = make_page();
  for (Lba lba = 0; lba < ssd.num_pages(); ++lba) {
    ASSERT_EQ(ssd.read(lba, out), IoStatus::kOk);
    ASSERT_EQ(out, model.read(lba)) << "lba " << lba;
  }
}

TEST(SsdModel, WriteAmplificationAboveOneUnderRandomChurn) {
  SsdModel ssd(small_ssd());
  Rng rng(2);
  for (int i = 0; i < 20000; ++i) {
    ASSERT_EQ(ssd.write(rng.next_below(ssd.num_pages()), test_page(1)), IoStatus::kOk);
  }
  const SsdWearStats wear = ssd.wear();
  EXPECT_EQ(wear.host_page_writes, 20000u);
  EXPECT_GT(wear.write_amplification(), 1.0);
  EXPECT_LT(wear.write_amplification(), 5.0);
  EXPECT_GT(wear.mean_erase_count, 0.0);
  EXPECT_GE(wear.max_erase_count, static_cast<std::uint32_t>(wear.mean_erase_count));
}

TEST(SsdModel, SequentialWritesHaveLowWriteAmplification) {
  SsdConfig cfg = small_ssd();
  SsdModel ssd(cfg);
  for (int round = 0; round < 20; ++round) {
    for (Lba lba = 0; lba < ssd.num_pages(); ++lba) {
      ASSERT_EQ(ssd.write(lba, test_page(lba)), IoStatus::kOk);
    }
  }
  // Whole-device sequential overwrite invalidates blocks wholesale.
  EXPECT_LT(ssd.wear().write_amplification(), 1.2);
}

TEST(SsdModel, TrimReducesGcWork) {
  // Fill the device, then churn on the lower half. If the (dead) upper half
  // is trimmed, GC no longer has to relocate it.
  auto churn = [](bool trim_dead_half) {
    SsdModel ssd(small_ssd());
    for (Lba lba = 0; lba < ssd.num_pages(); ++lba) ssd.write(lba, test_page(lba));
    if (trim_dead_half) {
      for (Lba lba = ssd.num_pages() / 2; lba < ssd.num_pages(); ++lba) ssd.trim(lba);
    }
    Rng rng(3);
    for (int i = 0; i < 10000; ++i) {
      ssd.write(rng.next_below(ssd.num_pages() / 2), test_page(1));
    }
    return ssd.wear().gc_page_copies;
  };
  EXPECT_LT(churn(true), churn(false));
}

TEST(SsdModel, EnduranceConsumedGrowsWithWrites) {
  SsdModel ssd(small_ssd());
  Rng rng(4);
  EXPECT_EQ(ssd.endurance_consumed(), 0.0);
  for (int i = 0; i < 30000; ++i) {
    ssd.write(rng.next_below(ssd.num_pages()), test_page(1));
  }
  const double consumed = ssd.endurance_consumed();
  EXPECT_GT(consumed, 0.0);
  for (int i = 0; i < 30000; ++i) {
    ssd.write(rng.next_below(ssd.num_pages()), test_page(1));
  }
  EXPECT_GT(ssd.endurance_consumed(), consumed);
}

TEST(SsdModel, FailAndReplace) {
  SsdModel ssd(small_ssd());
  ASSERT_EQ(ssd.write(0, test_page(0)), IoStatus::kOk);
  ssd.fail();
  Page buf = make_page();
  EXPECT_EQ(ssd.read(0, buf), IoStatus::kFailed);
  EXPECT_EQ(ssd.write(0, buf), IoStatus::kFailed);
  ssd.replace();
  EXPECT_EQ(ssd.wear().host_page_writes, 0u);
  ASSERT_EQ(ssd.read(0, buf), IoStatus::kOk);
  EXPECT_TRUE(all_zero(buf));
}

// ---- write_multi: vectored writes must be byte-equivalent to N single
// writes on every device, and fail with exact prefix persistence ------------

/// Scattered LBAs + distinct contents for a vectored batch. The batch owns
/// its payload pages; views() hands out the span-based descriptor list.
struct Batch {
  std::vector<Lba> lbas;
  std::vector<Page> pages;

  Batch(std::initializer_list<Lba> addrs, std::uint64_t salt) {
    for (const Lba lba : addrs) {
      lbas.push_back(lba);
      pages.push_back(test_page(lba, salt));
    }
  }
  std::vector<PageWrite> views() const {
    std::vector<PageWrite> v;
    for (std::size_t i = 0; i < lbas.size(); ++i) {
      v.push_back({lbas[i], pages[i]});
    }
    return v;
  }
};

void expect_batch_readable(BlockDevice& dev, const Batch& batch) {
  Page out = make_page();
  for (std::size_t i = 0; i < batch.lbas.size(); ++i) {
    ASSERT_EQ(dev.read(batch.lbas[i], out), IoStatus::kOk) << "lba " << batch.lbas[i];
    EXPECT_EQ(out, batch.pages[i]) << "lba " << batch.lbas[i];
  }
}

TEST(WriteMulti, MemDeviceMatchesSingleWrites) {
  const Batch batch({3, 11, 7, 0, 15}, 42);
  MemBlockDevice vectored(16);
  MemBlockDevice singles(16);
  std::size_t done = 0;
  ASSERT_EQ(vectored.write_multi(batch.views(), &done), IoStatus::kOk);
  EXPECT_EQ(done, batch.lbas.size());
  for (std::size_t i = 0; i < batch.lbas.size(); ++i) {
    ASSERT_EQ(singles.write(batch.lbas[i], batch.pages[i]), IoStatus::kOk);
  }
  expect_batch_readable(vectored, batch);
  Page a = make_page();
  Page b = make_page();
  for (Lba lba = 0; lba < 16; ++lba) {
    ASSERT_EQ(vectored.read(lba, a), IoStatus::kOk);
    ASSERT_EQ(singles.read(lba, b), IoStatus::kOk);
    EXPECT_EQ(a, b) << "lba " << lba;
  }
}

TEST(WriteMulti, FileDeviceCoalescedWritePersistsAcrossReopen) {
  const std::string path = ::testing::TempDir() + "kdd_write_multi.img";
  // Mixed batch: a contiguous run (coalesced into one pwritev) plus strays.
  const Batch batch({4, 5, 6, 12, 2}, 7);
  {
    FileBlockDevice dev(path, 32);
    std::size_t done = 0;
    ASSERT_EQ(dev.write_multi(batch.views(), &done), IoStatus::kOk);
    EXPECT_EQ(done, batch.lbas.size());
    expect_batch_readable(dev, batch);
  }
  FileBlockDevice reopened(path, 32);
  expect_batch_readable(reopened, batch);
}

TEST(WriteMulti, SsdModelOneSequentialCommandVsNRandom) {
  const Batch batch({9, 1, 30, 17, 25, 5}, 11);
  SsdModel vectored(small_ssd());
  SsdModel singles(small_ssd());
  std::size_t done = 0;
  ASSERT_EQ(vectored.write_multi(batch.views(), &done), IoStatus::kOk);
  EXPECT_EQ(done, batch.lbas.size());
  for (std::size_t i = 0; i < batch.lbas.size(); ++i) {
    ASSERT_EQ(singles.write(batch.lbas[i], batch.pages[i]), IoStatus::kOk);
  }
  // Same bytes on media either way...
  expect_batch_readable(vectored, batch);
  expect_batch_readable(singles, batch);
  // ...but the vectored path is ONE host command programming a sequential
  // burst, while N singles are N random commands.
  EXPECT_EQ(vectored.wear().host_write_ops_seq, 1u);
  EXPECT_EQ(vectored.wear().host_pages_seq, batch.lbas.size());
  EXPECT_EQ(vectored.wear().host_write_ops_rand, 0u);
  EXPECT_EQ(singles.wear().host_write_ops_rand, batch.lbas.size());
  EXPECT_EQ(singles.wear().host_write_ops_seq, 0u);
  EXPECT_EQ(vectored.wear().host_page_writes, singles.wear().host_page_writes);
}

TEST(WriteMulti, FaultDevicePassThroughPreservesSeqAccounting) {
  SsdModel inner(small_ssd());
  FaultInjectingDevice dev(&inner);
  const Batch batch({2, 3, 4, 20}, 13);
  std::size_t done = 0;
  ASSERT_EQ(dev.write_multi(batch.views(), &done), IoStatus::kOk);
  EXPECT_EQ(done, batch.lbas.size());
  expect_batch_readable(dev, batch);
  // The decorator's per-page bookkeeping must not degrade the inner device's
  // vectored command into N random singles.
  EXPECT_EQ(inner.wear().host_write_ops_seq, 1u);
  EXPECT_EQ(inner.wear().host_write_ops_rand, 0u);
  EXPECT_EQ(dev.media_writes(), batch.lbas.size());
}

TEST(WriteMulti, MidVectorPowerCutPersistsExactPrefix) {
  MemBlockDevice inner(32);
  FaultInjectingDevice dev(&inner);
  const Batch old_batch({1, 2, 3, 4, 5, 6}, 100);
  ASSERT_EQ(dev.write_multi(old_batch.views(), nullptr), IoStatus::kOk);

  // Tear the 4th entry (index 3) of the new batch: 3 old-batch writes already
  // happened above... so arm relative to the writes still to come.
  const Batch new_batch({1, 2, 3, 4, 5, 6}, 200);
  constexpr std::size_t kTornIndex = 3;
  dev.arm_power_cut(kTornIndex);
  std::size_t done = ~0ull;
  const IoStatus st = dev.write_multi(new_batch.views(), &done);
  EXPECT_NE(st, IoStatus::kOk);
  EXPECT_EQ(done, kTornIndex);  // exactly the pre-tear prefix was acked
  EXPECT_EQ(dev.fault_counters().torn_writes, 1u);
  EXPECT_FALSE(dev.powered());

  // While the rail is down every op is rejected.
  Page buf = make_page();
  EXPECT_EQ(dev.read(1, buf), IoStatus::kFailed);
  EXPECT_GT(dev.fault_counters().power_cut_rejects, 0u);
  dev.power_restore();

  for (std::size_t i = 0; i < new_batch.lbas.size(); ++i) {
    ASSERT_EQ(dev.read(new_batch.lbas[i], buf), IoStatus::kOk);
    if (i < kTornIndex) {
      // Prefix entries are fully durable.
      EXPECT_EQ(buf, new_batch.pages[i]) << "entry " << i;
    } else if (i == kTornIndex) {
      // The torn page is a sector-prefix blend: some first s sectors (s < 8)
      // of the new data, the rest still old — never fully the new page.
      EXPECT_NE(buf, new_batch.pages[i]);
      bool valid_blend = false;
      const auto kSectors = static_cast<std::ptrdiff_t>(kPageSize / 512);
      for (std::ptrdiff_t sectors = 0; sectors < kSectors; ++sectors) {
        const std::ptrdiff_t cut = sectors * 512;
        if (std::equal(buf.begin(), buf.begin() + cut, new_batch.pages[i].begin()) &&
            std::equal(buf.begin() + cut, buf.end(), old_batch.pages[i].begin() + cut)) {
          valid_blend = true;
          break;
        }
      }
      EXPECT_TRUE(valid_blend) << "torn page is not a sector-prefix blend";
    } else {
      // Entries after the tear never touched the media.
      EXPECT_EQ(buf, old_batch.pages[i]) << "entry " << i;
    }
  }
}

// ---- Device integrity tags: page_tag must flag every corruption the fault
// model can produce, and FaultInjectingDevice's flat tag store must keep the
// verify-on-read semantics (untagged pages are not verified) -------------

TEST(PageTag, DetectsEverySingleBitFlip) {
  Page page = test_page(0x7a6);
  const std::uint64_t tag = page_tag(page);
  std::size_t missed = 0;
  for (std::size_t bit = 0; bit < kPageSize * 8; ++bit) {
    page[bit / 8] ^= static_cast<std::uint8_t>(1u << (bit % 8));
    if (page_tag(page) == tag) ++missed;
    page[bit / 8] ^= static_cast<std::uint8_t>(1u << (bit % 8));
  }
  EXPECT_EQ(missed, 0u);
  EXPECT_EQ(page_tag(page), tag);  // deterministic
}

TEST(PageTag, DetectsEveryBitRotMask) {
  MemBlockDevice inner(4);
  FaultConfig cfg;
  cfg.verify_reads = true;
  FaultInjectingDevice dev(&inner, cfg);
  const Page page = test_page(0xb17);
  Page buf = make_page();
  const obs::LogLevel prev = obs::log_level();
  obs::set_log_level(obs::LogLevel::kError);  // one warning per detection
  for (unsigned mask = 0x01; mask <= 0xff; ++mask) {
    Page rotted = page;
    for (auto& b : rotted) b ^= static_cast<std::uint8_t>(mask);
    EXPECT_NE(page_tag(rotted), page_tag(page)) << "mask " << mask;
    // Through the device: the stale tag surfaces the rot as kCorrupt.
    ASSERT_EQ(dev.write(2, page), IoStatus::kOk);
    dev.inject_bit_rot(2, static_cast<std::uint8_t>(mask));
    ASSERT_EQ(dev.read(2, buf), IoStatus::kCorrupt) << "mask " << mask;
    EXPECT_EQ(buf, rotted);  // the data is still transferred
  }
  obs::set_log_level(prev);
  EXPECT_EQ(dev.fault_counters().corruptions_detected, 255u);
}

TEST(PageTag, DetectsEverySectorPrefixTear) {
  const Page old_page = test_page(0xa);
  const Page new_page = test_page(0xb);
  for (std::size_t sectors = 1; sectors < kPageSize / 512; ++sectors) {
    Page torn = old_page;
    std::copy_n(new_page.begin(), sectors * 512, torn.begin());
    EXPECT_NE(page_tag(torn), page_tag(old_page)) << sectors << " sectors";
    EXPECT_NE(page_tag(torn), page_tag(new_page)) << sectors << " sectors";
  }
}

TEST(PageTag, IsNeverZero) {
  EXPECT_NE(page_tag(make_page()), 0u);
  EXPECT_NE(page_tag(Page(kPageSize, 0xff)), 0u);
  EXPECT_NE(page_tag({}), 0u);
  Rng rng(0x7a9);
  std::vector<std::uint8_t> bytes(128);
  for (int i = 0; i < 4096; ++i) {
    for (auto& b : bytes) b = static_cast<std::uint8_t>(rng.next_u64());
    const auto len = static_cast<std::size_t>(32 * rng.next_below(5));  // 0..128
    ASSERT_NE(page_tag({bytes.data(), len}), 0u) << "len " << len;
  }
}

TEST(FaultTags, NeverWrittenPageReadsOk) {
  MemBlockDevice inner(8);
  FaultConfig cfg;
  cfg.verify_reads = true;
  FaultInjectingDevice dev(&inner, cfg);
  Page buf(kPageSize, 0xff);
  ASSERT_EQ(dev.read(5, buf), IoStatus::kOk);
  EXPECT_TRUE(all_zero(buf));
  // Bytes written behind the decorator's back carry no tag: not verified.
  ASSERT_EQ(inner.write(6, test_page(6)), IoStatus::kOk);
  ASSERT_EQ(dev.read(6, buf), IoStatus::kOk);
  EXPECT_EQ(dev.fault_counters().corruptions_detected, 0u);
}

TEST(FaultTags, TrimAndClearFaultsForgetTags) {
  MemBlockDevice inner(8);
  FaultConfig cfg;
  cfg.verify_reads = true;
  FaultInjectingDevice dev(&inner, cfg);
  Page buf = make_page();
  ASSERT_EQ(dev.write(1, test_page(1)), IoStatus::kOk);
  ASSERT_EQ(dev.write(2, test_page(2)), IoStatus::kOk);
  dev.inject_bit_rot(1, 0x10);
  dev.inject_bit_rot(2, 0x20);
  dev.trim(1);
  ASSERT_EQ(dev.read(1, buf), IoStatus::kOk);   // trimmed: no tag to check
  ASSERT_EQ(dev.read(2, buf), IoStatus::kCorrupt);  // stale tag kept on purpose
  dev.clear_faults();
  ASSERT_EQ(dev.read(2, buf), IoStatus::kOk);
  EXPECT_EQ(dev.fault_counters().corruptions_detected, 1u);
  // A fresh write tags the page again.
  ASSERT_EQ(dev.write(2, test_page(22)), IoStatus::kOk);
  dev.inject_bit_rot(2, 0x01);
  EXPECT_EQ(dev.read(2, buf), IoStatus::kCorrupt);
}

TEST(MemBlockDevice, ReplaceReadsAllZerosAfterWrites) {
  constexpr std::uint64_t kPages = 64;
  MemBlockDevice dev(kPages);
  for (Lba p = 0; p < kPages; ++p) ASSERT_EQ(dev.write(p, test_page(p)), IoStatus::kOk);
  dev.replace();
  Page buf(kPageSize, 0xff);
  for (Lba p = 0; p < kPages; ++p) {
    ASSERT_EQ(dev.read(p, buf), IoStatus::kOk);
    EXPECT_TRUE(all_zero(buf)) << "page " << p;
    EXPECT_TRUE(all_zero(dev.raw_page(p))) << "page " << p;
  }
  // The blank device is fully usable again.
  ASSERT_EQ(dev.write(kPages - 1, test_page(9)), IoStatus::kOk);
  ASSERT_EQ(dev.read(kPages - 1, buf), IoStatus::kOk);
  EXPECT_EQ(buf, test_page(9));
}

TEST(HddTiming, SequentialFasterThanRandom) {
  HddTimingModel model{HddTimingConfig{}};
  Rng rng(5);
  // Sequential run after positioning.
  SimTime seq = 0;
  model.service_time(IoKind::kRead, 1000, 1, rng);
  for (int i = 0; i < 100; ++i) {
    seq += model.service_time(IoKind::kRead, 1001 + static_cast<Lba>(i), 1, rng);
  }
  HddTimingModel model2{HddTimingConfig{}};
  SimTime rnd = 0;
  for (int i = 0; i < 100; ++i) {
    rnd += model2.service_time(IoKind::kRead, rng.next_below(1ull << 37), 1, rng);
  }
  EXPECT_LT(seq * 10, rnd);
}

TEST(HddTiming, RandomAccessInPlausibleRange) {
  const HddTimingConfig cfg;
  HddTimingModel model{cfg};
  Rng rng(6);
  OnlineStats stats;
  for (int i = 0; i < 2000; ++i) {
    stats.add(static_cast<double>(model.service_time(
        IoKind::kRead, rng.next_below(cfg.capacity_pages), 1, rng)));
  }
  // A 7,200 RPM disk averages ~8-14 ms per random access.
  EXPECT_GT(stats.mean(), 6000.0);
  EXPECT_LT(stats.mean(), 16000.0);
}

TEST(SsdTiming, WritesSlowerThanReads) {
  const SsdTimingModel model{SsdTimingConfig{}};
  Rng rng(7);
  OnlineStats reads, writes;
  for (int i = 0; i < 1000; ++i) {
    reads.add(static_cast<double>(model.service_time(IoKind::kRead, rng)));
    writes.add(static_cast<double>(model.service_time(IoKind::kWrite, rng)));
  }
  EXPECT_LT(reads.mean(), writes.mean());
  EXPECT_LT(writes.mean(), 1000.0);  // well under a millisecond
}

}  // namespace
}  // namespace kdd
