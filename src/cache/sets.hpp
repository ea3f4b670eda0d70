// N-way set-associative cache organisation with per-set LRU (Section III-B).
//
// One CacheSlot describes one SSD cache page. States cover all policies:
//   kFree / kClean            — every policy
//   kOld / kDelta             — KDD's DAZ old pages and DEZ delta pages
//   kOldVersion / kNewVersion — LeavO's pinned version pairs
// Only kClean pages sit in the per-set LRU list (the others are reclaimed by
// cleaning, never evicted directly), which makes the LRU tail the eviction
// victim without filtering.
#pragma once

#include <cstdint>
#include <vector>

#include "common/units.hpp"

namespace kdd {

enum class PageState : std::uint8_t {
  kFree,
  kClean,
  kOld,         // KDD: DAZ page whose delta is pending (parity stale)
  kDelta,       // KDD: DEZ page packed with deltas
  kOldVersion,  // LeavO: pinned pre-update version
  kNewVersion,  // LeavO: current version of a dirty pair
};

class CacheSets {
 public:
  static constexpr std::uint32_t kNone = 0xffffffffu;
  /// dez_idx value meaning "delta still staged in NVRAM" (paper: fields = -1).
  static constexpr std::uint32_t kStaged = 0xfffffffeu;
  /// home_log_page value meaning "no persistent entry committed yet".
  static constexpr std::uint64_t kNoHome = ~0ull;

  struct CacheSlot {
    PageState state = PageState::kFree;
    Lba lba = kInvalidLba;            ///< RAID page cached here (data slots)
    std::uint32_t dez_idx = kNone;    ///< KDD old: slot index of the DEZ page
    std::uint16_t dez_off = 0;        ///< byte offset of the delta in the DEZ page
    std::uint16_t dez_len = 0;        ///< KDD old: packed delta length in
                                      ///< bytes; KDD delta: bytes packed
                                      ///< into this (write-once) page
    std::uint16_t valid_count = 0;    ///< KDD delta: live deltas in this page
    std::uint32_t partner = kNone;    ///< LeavO: the paired version slot
    std::uint32_t lru_prev = kNone;
    std::uint32_t lru_next = kNone;
    std::uint64_t home_log_page = kNoHome;  ///< metadata log page (monotonic
                                            ///< counter) owning the latest
                                            ///< persistent entry
  };

  CacheSets(std::uint64_t pages, std::uint32_t ways);

  std::uint32_t num_sets() const { return num_sets_; }
  std::uint32_t ways() const { return ways_; }
  std::uint64_t pages() const { return static_cast<std::uint64_t>(num_sets_) * ways_; }

  CacheSlot& slot(std::uint32_t idx) { return slots_[idx]; }
  const CacheSlot& slot(std::uint32_t idx) const { return slots_[idx]; }
  std::uint32_t set_of(std::uint32_t idx) const { return idx / ways_; }

  /// All state changes go through here so per-set free/DEZ counters stay
  /// consistent; also maintains LRU membership (kClean slots only).
  void set_state(std::uint32_t idx, PageState next);

  /// Finds the slot caching `lba` as current data (kClean, kOld or
  /// kNewVersion). Returns kNone if absent.
  std::uint32_t find_data(std::uint32_t set, Lba lba) const;

  /// Finds the slot holding `lba` in exactly `state`.
  std::uint32_t find_state(std::uint32_t set, Lba lba, PageState state) const;

  /// Any free slot in the set, or kNone.
  std::uint32_t find_free(std::uint32_t set) const;

  std::uint32_t free_count(std::uint32_t set) const { return free_count_[set]; }
  std::uint32_t dez_count(std::uint32_t set) const { return dez_count_[set]; }

  /// LRU (kClean members only). Most-recent at head; victim = tail.
  void lru_touch(std::uint32_t idx);
  std::uint32_t lru_tail(std::uint32_t set) const { return lru_tail_[set]; }

  /// Clears a slot back to factory state (kFree, fields reset).
  void reset_slot(std::uint32_t idx);

  /// Total slots in a given state (O(sets); for tests and reporting).
  std::uint64_t count_state(PageState s) const;

 private:
  void lru_insert_head(std::uint32_t idx);
  void lru_remove(std::uint32_t idx);

  std::uint32_t num_sets_;
  std::uint32_t ways_;
  std::vector<CacheSlot> slots_;
  std::vector<std::uint32_t> lru_head_;
  std::vector<std::uint32_t> lru_tail_;
  std::vector<std::uint32_t> free_count_;
  std::vector<std::uint32_t> dez_count_;
};

}  // namespace kdd
