#include "cache/metadata_log.hpp"

#include <algorithm>
#include <array>

#include "common/check.hpp"
#include "obs/log.hpp"
#include "obs/metrics.hpp"
#include "obs/span.hpp"

namespace kdd {

namespace {

constexpr std::uint8_t state_code(PageState s) { return static_cast<std::uint8_t>(s); }

void put_u32(std::uint8_t* p, std::uint32_t v) {
  p[0] = static_cast<std::uint8_t>(v);
  p[1] = static_cast<std::uint8_t>(v >> 8);
  p[2] = static_cast<std::uint8_t>(v >> 16);
  p[3] = static_cast<std::uint8_t>(v >> 24);
}

std::uint32_t get_u32(const std::uint8_t* p) {
  return static_cast<std::uint32_t>(p[0]) | (static_cast<std::uint32_t>(p[1]) << 8) |
         (static_cast<std::uint32_t>(p[2]) << 16) |
         (static_cast<std::uint32_t>(p[3]) << 24);
}

void put_u16(std::uint8_t* p, std::uint16_t v) {
  p[0] = static_cast<std::uint8_t>(v);
  p[1] = static_cast<std::uint8_t>(v >> 8);
}

std::uint16_t get_u16(const std::uint8_t* p) {
  return static_cast<std::uint16_t>(static_cast<std::uint16_t>(p[0]) |
                                    (static_cast<std::uint16_t>(p[1]) << 8));
}

void put_u64(std::uint8_t* p, std::uint64_t v) {
  for (int i = 0; i < 8; ++i) p[i] = static_cast<std::uint8_t>(v >> (8 * i));
}

std::uint64_t get_u64(const std::uint8_t* p) {
  std::uint64_t v = 0;
  for (int i = 0; i < 8; ++i) v |= static_cast<std::uint64_t>(p[i]) << (8 * i);
  return v;
}

/// CRC-8 (poly 0x07) lookup table: entry b is the bitwise register after
/// feeding byte b into a zero register.
constexpr std::array<std::uint8_t, 256> kCrc8Table = [] {
  std::array<std::uint8_t, 256> t{};
  for (unsigned b = 0; b < 256; ++b) {
    unsigned crc = b;
    for (int k = 0; k < 8; ++k) crc = ((crc << 1) ^ ((crc & 0x80u) ? 0x07u : 0u)) & 0xffu;
    t[b] = static_cast<std::uint8_t>(crc);
  }
  return t;
}();

}  // namespace

std::uint8_t MetadataLog::entry_crc8(const std::uint8_t* payload, std::uint64_t seq) {
  std::uint8_t crc = 0xff;
  for (std::size_t i = 0; i < MetadataEntry::kPayloadSize; ++i) {
    crc = kCrc8Table[crc ^ payload[i]];
  }
  for (int i = 0; i < 8; ++i) crc = kCrc8Table[crc ^ static_cast<std::uint8_t>(seq >> (8 * i))];
  return crc;
}

MetadataLog::MetadataLog(CacheSsd* ssd, NvramState* nvram, CacheSets* sets,
                         double gc_threshold)
    : ssd_(ssd), nvram_(nvram), sets_(sets), gc_threshold_(gc_threshold) {
  KDD_CHECK(ssd_ && nvram_ && sets_);
  KDD_CHECK(ssd_->metadata_pages() >= 4);
  KDD_CHECK(gc_threshold_ > 0.0 && gc_threshold_ < 1.0);
}

void MetadataLog::add_entry(const MetadataEntry& entry, IoPlan* plan) {
  nvram_->metadata.put(entry);
  if (nvram_->metadata.full()) commit_buffer(plan);
}

void MetadataLog::commit_buffer(IoPlan* plan) {
  if (nvram_->metadata.empty()) return;
  std::vector<MetadataEntry> entries = nvram_->metadata.drain();
  std::size_t pos = 0;
  while (pos < entries.size()) {
    const std::size_t n = std::min(kEntriesPerPage, entries.size() - pos);
    commit_entries({entries.begin() + static_cast<std::ptrdiff_t>(pos),
                    entries.begin() + static_cast<std::ptrdiff_t>(pos + n)},
                   plan);
    pos += n;
  }
}

void MetadataLog::commit_entries(std::vector<MetadataEntry> entries, IoPlan* plan) {
  const obs::SpanScope span(obs::Stage::kMetadataLog);
  KDD_CHECK(!entries.empty());
  KDD_CHECK(used_pages() < partition_pages());  // circular-log hard invariant
  const std::uint64_t seq = nvram_->log_tail;
  if (ssd_->real()) {
    Page page = make_page();
    serialize_page(entries, seq, page);
    ssd_->write_metadata(seq % partition_pages(), page, plan);
  } else {
    ssd_->write_metadata(seq % partition_pages(), {}, plan);
  }
  ++pages_written_;
  for (const MetadataEntry& e : entries) {
    sets_->slot(e.daz_idx).home_log_page = seq;
  }
  mirror_[seq] = std::move(entries);
  ++nvram_->log_tail;

  if (!in_gc_) {
    in_gc_ = true;
    const double threshold =
        gc_threshold_ * static_cast<double>(partition_pages());
    std::uint64_t guard = 2 * partition_pages();
    while (static_cast<double>(used_pages()) >= threshold && guard-- > 0) {
      collect_one_page(plan);
    }
    in_gc_ = false;
  }
}

void MetadataLog::collect_one_page(IoPlan* plan) {
  KDD_CHECK(used_pages() > 0);
  ++gc_passes_;
  {
    static obs::Counter gc_counter(&obs::MetricsRegistry::global(),
                                   "kdd_log_gc_passes_total");
    gc_counter.inc();
  }
  const std::uint64_t seq = nvram_->log_head;
  auto it = mirror_.find(seq);
  KDD_CHECK(it != mirror_.end());
  std::vector<MetadataEntry> entries = std::move(it->second);
  mirror_.erase(it);
  ++nvram_->log_head;
  for (const MetadataEntry& e : entries) {
    // Live iff this page still owns the slot's latest committed entry and no
    // newer entry is waiting in the NVRAM buffer.
    if (sets_->slot(e.daz_idx).home_log_page != seq) continue;
    if (nvram_->metadata.contains(e.daz_idx)) continue;
    // A free-state entry at the head can simply be dropped: any entry it
    // superseded lived in an even older page, which has already been
    // collected, so replay can no longer resurrect the slot.
    if (sets_->slot(e.daz_idx).state == PageState::kFree) {
      sets_->slot(e.daz_idx).home_log_page = CacheSets::kNoHome;
      continue;
    }
    sets_->slot(e.daz_idx).home_log_page = CacheSets::kNoHome;
    nvram_->metadata.put(e);
    if (nvram_->metadata.full()) commit_buffer(plan);
  }
}

void MetadataLog::serialize_page(const std::vector<MetadataEntry>& entries,
                                 std::uint64_t seq, Page& out) const {
  KDD_CHECK(entries.size() <= kEntriesPerPage);
  put_u16(out.data(), static_cast<std::uint16_t>(entries.size()));
  put_u64(out.data() + 2, seq);
  std::size_t off = kPageHeaderSize;
  for (const MetadataEntry& e : entries) {
    std::uint8_t* p = out.data() + off;
    KDD_CHECK(e.lba_raid <= 0xffffffffull || e.lba_raid == kInvalidLba);
    put_u32(p, static_cast<std::uint32_t>(e.lba_raid & 0xffffffffull));
    put_u32(p + 4, e.daz_idx);
    put_u32(p + 8, e.dez_idx);
    KDD_CHECK(e.dez_off < (1u << 13));
    put_u16(p + 12, static_cast<std::uint16_t>(e.dez_off |
                                               (std::uint16_t{state_code(e.state)} << 13)));
    put_u16(p + 14, e.dez_len);
    p[MetadataEntry::kPayloadSize] = entry_crc8(p, seq);
    off += MetadataEntry::kSerializedSize;
  }
}

bool MetadataLog::deserialize_page(std::span<const std::uint8_t> in,
                                   std::uint64_t expected_seq,
                                   std::vector<MetadataEntry>& out,
                                   std::size_t* dropped) {
  const std::uint16_t n = get_u16(in.data());
  const std::uint64_t seq = get_u64(in.data() + 2);
  // A wrong sequence number means this physical slot still holds a previous
  // lap of the circular log (the page write never reached the media); an
  // impossible count means the header itself is damaged.
  if (seq != expected_seq || n > kEntriesPerPage) return false;
  out.reserve(out.size() + n);
  std::size_t off = kPageHeaderSize;
  for (std::uint16_t i = 0; i < n; ++i) {
    const std::uint8_t* p = in.data() + off;
    const std::uint16_t packed = get_u16(p + 12);
    const std::uint8_t code = static_cast<std::uint8_t>(packed >> 13);
    if (p[MetadataEntry::kPayloadSize] != entry_crc8(p, expected_seq) ||
        code > static_cast<std::uint8_t>(PageState::kNewVersion)) {
      // Torn tail: the page write persisted only a sector prefix. Entries are
      // committed in order, so everything from here on is discarded.
      *dropped += static_cast<std::size_t>(n - i);
      break;
    }
    MetadataEntry e;
    const std::uint32_t lba32 = get_u32(p);
    e.lba_raid = lba32 == 0xffffffffu ? kInvalidLba : lba32;
    e.daz_idx = get_u32(p + 4);
    e.dez_idx = get_u32(p + 8);
    e.dez_off = packed & 0x1fff;
    e.state = static_cast<PageState>(code);
    e.dez_len = get_u16(p + 14);
    out.push_back(e);
    off += MetadataEntry::kSerializedSize;
  }
  return true;
}

std::vector<MetadataEntry> MetadataLog::replay(IoPlan* plan) {
  std::vector<MetadataEntry> all;
  for (std::uint64_t seq = nvram_->log_head; seq < nvram_->log_tail; ++seq) {
    if (ssd_->real()) {
      Page page = make_page();
      const IoStatus st = ssd_->read_metadata(seq % partition_pages(), page, plan);
      std::size_t dropped = 0;
      if (st != IoStatus::kOk || !deserialize_page(page, seq, all, &dropped)) {
        ++bad_pages_skipped_;
        KDD_LOG(Warn, "metadata log: unusable page seq=%llu skipped in replay",
                static_cast<unsigned long long>(seq));
        continue;
      }
      if (dropped > 0) {
        KDD_LOG(Warn, "metadata log: %zu torn entries dropped at seq=%llu",
                dropped, static_cast<unsigned long long>(seq));
      }
      torn_entries_dropped_ += dropped;
    } else {
      const auto it = mirror_.find(seq);
      if (it == mirror_.end()) continue;
      all.insert(all.end(), it->second.begin(), it->second.end());
    }
  }
  return all;
}

void MetadataLog::rebuild_after_recovery(IoPlan* plan) {
  mirror_.clear();
  for (std::uint64_t seq = nvram_->log_head; seq < nvram_->log_tail; ++seq) {
    KDD_CHECK(ssd_->real());
    Page page = make_page();
    const IoStatus st = ssd_->read_metadata(seq % partition_pages(), page, plan);
    std::vector<MetadataEntry> entries;
    std::size_t dropped = 0;
    if (st != IoStatus::kOk || !deserialize_page(page, seq, entries, &dropped)) {
      // Unusable page: its entries are lost, but every mapping has either a
      // newer committed copy, a newer NVRAM-buffered copy, or describes a
      // cache page whose contents the post-recovery audit cross-checks
      // against the RAID copy — so dropping the page is safe.
      ++bad_pages_skipped_;
      mirror_[seq] = {};
      continue;
    }
    torn_entries_dropped_ += dropped;
    for (const MetadataEntry& e : entries) {
      sets_->slot(e.daz_idx).home_log_page = seq;
    }
    mirror_[seq] = std::move(entries);
  }
}

}  // namespace kdd
