#include "cache/segment.hpp"

#include <cstring>

#include "common/check.hpp"
#include "common/hash.hpp"

namespace kdd {

namespace {

// Header page layout (little-endian):
//   [ 0,  8)  magic "KDDSEG01"
//   [ 8, 16)  segment id (monotonic)
//   [16, 20)  payload entry count
//   [20, 24)  reserved (zero)
//   [24, 32)  payload CRC: FNV-1a 64 over the payload pages' page_tag values
//             (8 bytes each, little-endian), in list order
//   [32, 40)  header CRC: FNV-1a 64 over [0,32) and the entry list
//   [40, 40+8*count)  target SSD LBAs, in write order
// Both CRCs live in the first sector, so a torn header (sector prefix of the
// new header + stale tail) always fails its own CRC.

void put_u32(std::uint8_t* p, std::uint32_t v) { std::memcpy(p, &v, 4); }
void put_u64(std::uint8_t* p, std::uint64_t v) { std::memcpy(p, &v, 8); }
std::uint32_t get_u32(const std::uint8_t* p) {
  std::uint32_t v;
  std::memcpy(&v, p, 4);
  return v;
}
std::uint64_t get_u64(const std::uint8_t* p) {
  std::uint64_t v;
  std::memcpy(&v, p, 8);
  return v;
}

}  // namespace

SegmentStager::SegmentStager(const SegmentConfig& config, bool counter_mode)
    : config_(config), counter_mode_(counter_mode) {
  KDD_CHECK(config_.segment_pages > 0);
  KDD_CHECK(config_.segment_pages <= kMaxEntries);
  KDD_CHECK(config_.ring_pages >= 2);  // open header never overwrites sealed
  entries_.reserve(config_.segment_pages);
}

std::uint64_t SegmentStager::fold_payload_crc(std::uint64_t crc,
                                              std::span<const std::uint8_t> page) {
  std::uint8_t tag[8];
  put_u64(tag, page_tag(page));
  return fnv1a(crc, tag);
}

bool SegmentStager::stage(Lba ssd_lba, std::span<const std::uint8_t> data) {
  KDD_CHECK(counter_mode_ ? data.empty() : data.size() == kPageSize);
  const auto it = index_.find(ssd_lba);
  if (it != index_.end()) {
    Entry& e = entries_[it->second];
    if (e.dead) {
      e.dead = false;
      ++live_;
    }
    if (!counter_mode_) {
      if (e.data.empty()) e.data = make_page();
      std::memcpy(e.data.data(), data.data(), kPageSize);
    }
  } else {
    Entry e;
    e.lba = ssd_lba;
    if (!counter_mode_) {
      e.data = make_page();
      std::memcpy(e.data.data(), data.data(), kPageSize);
    }
    index_[ssd_lba] = entries_.size();
    entries_.push_back(std::move(e));
    ++live_;
  }
  return full();
}

bool SegmentStager::full() const {
  return live_ >= config_.segment_pages || entries_.size() >= kMaxEntries;
}

bool SegmentStager::pending(Lba ssd_lba) const {
  const auto it = index_.find(ssd_lba);
  return it != index_.end() && !entries_[it->second].dead;
}

bool SegmentStager::read_pending(Lba ssd_lba, std::span<std::uint8_t> out) const {
  const auto it = index_.find(ssd_lba);
  if (it == index_.end()) return false;
  const Entry& e = entries_[it->second];
  if (e.dead || e.data.empty()) return false;
  KDD_CHECK(out.size() == kPageSize);
  std::memcpy(out.data(), e.data.data(), kPageSize);
  return true;
}

void SegmentStager::drop(Lba ssd_lba) {
  const auto it = index_.find(ssd_lba);
  if (it == index_.end()) return;
  Entry& e = entries_[it->second];
  if (!e.dead) {
    e.dead = true;
    KDD_DCHECK(live_ > 0);
    --live_;
  }
}

std::vector<Lba> SegmentStager::live_lbas() const {
  std::vector<Lba> out;
  out.reserve(live_);
  for (const Entry& e : entries_) {
    if (!e.dead) out.push_back(e.lba);
  }
  return out;
}

std::vector<PageWrite> SegmentStager::build_seal(Page* header) const {
  KDD_CHECK(header != nullptr);
  KDD_CHECK(live_ > 0);
  if (header->size() != kPageSize) *header = make_page();
  std::uint8_t* h = header->data();
  std::memset(h, 0, kPageSize);

  std::vector<PageWrite> batch;
  batch.reserve(live_ + 1);
  batch.push_back({header_slot(), {h, kPageSize}});  // header FIRST

  std::uint64_t payload_crc = kFnvOffset;
  std::uint32_t count = 0;
  for (const Entry& e : entries_) {
    if (e.dead) continue;
    put_u64(h + kHeaderFixedBytes + 8ull * count, e.lba);
    ++count;
    if (!e.data.empty()) {
      payload_crc = fold_payload_crc(payload_crc, e.data);
      batch.push_back({e.lba, {e.data.data(), kPageSize}});
    } else {
      batch.push_back({e.lba, {}});
    }
  }
  put_u64(h + 0, kMagic);
  put_u64(h + 8, id_);
  put_u32(h + 16, count);
  put_u64(h + 24, counter_mode_ ? 0 : payload_crc);
  std::uint64_t header_crc = fnv1a(kFnvOffset, {h, 32});
  header_crc = fnv1a(header_crc, {h + kHeaderFixedBytes, 8ull * count});
  put_u64(h + 32, header_crc);
  return batch;
}

void SegmentStager::finish_seal() {
  entries_.clear();
  index_.clear();
  live_ = 0;
  ++id_;
}

void SegmentStager::abandon() {
  entries_.clear();
  index_.clear();
  live_ = 0;
}

bool SegmentStager::parse_header(std::span<const std::uint8_t> page,
                                 std::uint64_t* id, std::vector<Lba>* lbas,
                                 std::uint64_t* payload_crc) {
  if (page.size() != kPageSize) return false;
  const std::uint8_t* h = page.data();
  if (get_u64(h) != kMagic) return false;
  const std::uint32_t count = get_u32(h + 16);
  if (count == 0 || count > kMaxEntries) return false;
  std::uint64_t crc = fnv1a(kFnvOffset, {h, 32});
  crc = fnv1a(crc, {h + kHeaderFixedBytes, 8ull * count});
  if (crc != get_u64(h + 32)) return false;
  if (id) *id = get_u64(h + 8);
  if (payload_crc) *payload_crc = get_u64(h + 24);
  if (lbas) {
    lbas->clear();
    lbas->reserve(count);
    for (std::uint32_t i = 0; i < count; ++i) {
      lbas->push_back(get_u64(h + kHeaderFixedBytes + 8ull * i));
    }
  }
  return true;
}

}  // namespace kdd
