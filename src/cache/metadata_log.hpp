// Circular persistent metadata log on the SSD (Section III-B/III-C).
//
// New mapping entries accumulate in the NVRAM metadata buffer; when a page's
// worth is buffered, it is appended at the tail of a fixed partition at the
// front of the SSD. Garbage collection is oldest-first: live entries of the
// head page are re-inserted into the buffer and eventually rewritten at the
// tail. Liveness is tracked through an in-memory list per log page (the
// paper's optimisation: GC never re-reads flash) — a committed entry is live
// iff its DAZ slot's `home_log_page` still names that page.
#pragma once

#include <cstdint>
#include <unordered_map>
#include <vector>

#include "cache/backend.hpp"
#include "cache/nvram.hpp"
#include "cache/sets.hpp"

namespace kdd {

class MetadataLog {
 public:
  /// `gc_threshold` is the fill fraction of the partition above which GC runs.
  MetadataLog(CacheSsd* ssd, NvramState* nvram, CacheSets* sets,
              double gc_threshold = 0.90);

  /// Buffers a mapping entry; commits a full buffer to the log tail and runs
  /// GC as needed. The slot's `home_log_page` is updated on commit.
  void add_entry(const MetadataEntry& entry, IoPlan* plan);

  /// Forces the (possibly partial) buffer out to the log (shutdown/flush).
  void commit_buffer(IoPlan* plan);

  std::uint64_t used_pages() const { return nvram_->log_tail - nvram_->log_head; }
  std::uint64_t partition_pages() const { return ssd_->metadata_pages(); }
  std::uint64_t pages_written() const { return pages_written_; }
  std::uint64_t gc_passes() const { return gc_passes_; }
  /// Log pages replay could not use at all (unreadable, wrong sequence
  /// number, or corrupt header — e.g. a torn write that persisted nothing).
  std::uint64_t bad_pages_skipped() const { return bad_pages_skipped_; }
  /// Entries discarded from the torn tail of otherwise-valid pages (per-entry
  /// CRC-8 mismatch: the page write persisted only a sector prefix).
  std::uint64_t torn_entries_dropped() const { return torn_entries_dropped_; }

  /// Power-failure recovery: replays every committed page from head to tail
  /// and returns the entries in commit order (later entries override earlier
  /// ones for the same DAZ slot). In prototype mode the pages are read and
  /// deserialised from the SSD; in counter mode the in-memory mirror is used.
  std::vector<MetadataEntry> replay(IoPlan* plan = nullptr);

  /// Rebuilds the in-memory mirror and slot home pointers from a replay
  /// (used after recovery constructs a fresh MetadataLog).
  void rebuild_after_recovery(IoPlan* plan = nullptr);

  /// Page layout: u16 entry count + u64 page sequence number, then
  /// kSerializedSize-byte entries. The sequence number detects a page whose
  /// write never reached the media (the slot still holds a previous lap);
  /// the per-entry CRC-8 (over payload ‖ sequence) detects a torn tail.
  static constexpr std::size_t kPageHeaderSize = 10;
  static constexpr std::size_t kEntriesPerPage =
      (kPageSize - kPageHeaderSize) / MetadataEntry::kSerializedSize;

  /// CRC-8 (poly 0x07, init 0xff) over the kPayloadSize-byte entry payload
  /// followed by the owning page's sequence number (8 bytes, little-endian).
  /// Folding the sequence in means an entry that survived from a previous lap
  /// of the circular log can never masquerade as part of the current page.
  static std::uint8_t entry_crc8(const std::uint8_t* payload, std::uint64_t seq);

 private:
  void commit_entries(std::vector<MetadataEntry> entries, IoPlan* plan);
  void collect_one_page(IoPlan* plan);
  void serialize_page(const std::vector<MetadataEntry>& entries, std::uint64_t seq,
                      Page& out) const;
  /// Returns false when the whole page is unusable (header corrupt or
  /// sequence mismatch). Otherwise appends the valid prefix of entries to
  /// `out` and adds the number of torn-tail entries discarded to `*dropped`.
  static bool deserialize_page(std::span<const std::uint8_t> in,
                               std::uint64_t expected_seq,
                               std::vector<MetadataEntry>& out, std::size_t* dropped);

  CacheSsd* ssd_;
  NvramState* nvram_;
  CacheSets* sets_;
  double gc_threshold_;
  bool in_gc_ = false;
  std::uint64_t pages_written_ = 0;
  std::uint64_t gc_passes_ = 0;
  std::uint64_t bad_pages_skipped_ = 0;
  std::uint64_t torn_entries_dropped_ = 0;
  /// In-memory mirror of committed pages, keyed by monotonic page counter.
  std::unordered_map<std::uint64_t, std::vector<MetadataEntry>> mirror_;
};

}  // namespace kdd
