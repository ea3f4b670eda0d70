// Cache policy interface and the shared set-associative machinery every
// policy (WT, WA, LeavO, KDD) builds on.
#pragma once

#include <cstdint>
#include <memory>
#include <string>

#include "cache/backend.hpp"
#include "cache/cache_stats.hpp"
#include "cache/sets.hpp"
#include "raid/io_plan.hpp"

namespace kdd {

/// Knobs common to all policies plus the KDD-specific ones (ignored by the
/// baselines). Defaults follow Section IV-A3 (0.59 % metadata partition,
/// 4 KiB NVRAM buffers) and sensible cleaning watermarks.
struct PolicyConfig {
  std::uint64_t ssd_pages = 262144;  ///< total SSD capacity in pages
  std::uint32_t ways = 16;           ///< set associativity
  double metadata_fraction = 0.0059; ///< of ssd_pages, for KDD/LeavO metadata
  std::size_t staging_buffer_bytes = kPageSize;
  std::size_t metadata_buffer_entries = 240;  ///< one metadata page's worth
  double clean_high_watermark = 0.30;  ///< old+delta fraction triggering cleaning
  double clean_low_watermark = 0.15;   ///< cleaning stops below this
  double log_gc_threshold = 0.90;
  bool reclaim_as_clean = false;  ///< Section III-D scheme 1 (true) vs 2 (false)
  /// LARC-style lazy admission (Section V-C lists it as complementary to
  /// KDD): admit a page only on its second miss within a ghost-LRU window.
  bool selective_admission = false;
  /// Log-structured segment staging (KDD only): committed SSD page writes
  /// accumulate in RAM and land as one sealed vectored sequential write per
  /// segment (src/cache/segment.hpp). Off by default so baselines and the
  /// legacy per-page write accounting are unchanged.
  bool segment_staging = false;
  std::uint32_t segment_pages = 64;  ///< payload pages per sealed segment
  // -- Elastic compression-aware delta zone (KDD only; ROADMAP item 3) -------
  // Extent *accounting* (live/dead bytes per DEZ page, src/cache/dez_space)
  // is always on — it is pure bookkeeping. These knobs enable the behaviours
  // built on it; all default off so existing deterministic replays and the
  // counter-mode rng draw order are unchanged.
  /// Variable-size placement: commits append packed deltas into the tail
  /// slack of partially-filled DEZ pages before burning fresh cache pages.
  bool dez_elastic = false;
  /// Online delta-zone GC/defrag: relocate live deltas out of fragmented
  /// DEZ pages (dead-byte ratio >= dez_gc_dead_ratio) and free the page.
  bool dez_gc = false;
  double dez_gc_dead_ratio = 0.5;      ///< victim threshold (dead/page bytes)
  std::uint32_t dez_gc_max_victims = 4;  ///< pages compacted per GC pass
  /// Adaptive DAZ/DEZ boundary: a rolling compressibility estimate plus the
  /// ghost-LRU hit-ratio signal steer a cap on DEZ pages; slack under the
  /// static layout is exposed as elastic spare absorbing destage bursts and
  /// degraded/rebuild traffic.
  bool adaptive_boundary = false;
  double boundary_ewma = 0.05;          ///< weight of each new compressibility sample
  std::uint64_t boundary_epoch_ops = 512;  ///< requests between boundary decisions
  double delta_ratio_mean = 0.25; ///< counter-mode content locality (Gaussian mean)
  std::uint64_t seed = 1;
};

class CachePolicy {
 public:
  virtual ~CachePolicy() = default;

  virtual std::string name() const = 0;

  /// Serves a single-page read. `out` is filled in prototype mode and may be
  /// an empty span in counter mode. `plan` (optional) receives the device ops.
  virtual IoStatus read(Lba lba, std::span<std::uint8_t> out, IoPlan* plan = nullptr) = 0;

  /// Serves a single-page write; `data` may be empty in counter mode.
  virtual IoStatus write(Lba lba, std::span<const std::uint8_t> data,
                         IoPlan* plan = nullptr) = 0;

  /// Drains all deferred state (stale parity, buffered metadata).
  virtual void flush(IoPlan* plan = nullptr) { (void)plan; }

  /// Idle-trigger hook: the background cleaning thread wakes up
  /// (Section III-D). Called by drivers when the device queues go quiet.
  virtual void on_idle(IoPlan* plan = nullptr) { (void)plan; }

  /// Snapshot of all statistics (hits plus device counters).
  virtual CacheStats stats() const = 0;

  /// When set, policies record *background* I/O (cleaning-thread parity
  /// updates, metadata commits) here instead of the foreground request plan,
  /// so the timed simulator can schedule it without charging it to the
  /// triggering request — mirroring the paper's background cleaning thread.
  void set_background_plan(IoPlan* bg) { background_plan_ = bg; }

 protected:
  /// The plan background work should be recorded into: the dedicated
  /// background plan when the driver installed one, else the foreground plan.
  IoPlan* bg_or(IoPlan* foreground) const {
    return background_plan_ ? background_plan_ : foreground;
  }

 private:
  IoPlan* background_plan_ = nullptr;
};

/// Owns the set structure and the two backends; provides the address-to-set
/// mapping ("DAZ pages in the same parity stripe are mapped to the same cache
/// set") and LRU eviction of clean pages.
class BlockCacheBase : public CachePolicy {
 public:
  /// Counter mode.
  BlockCacheBase(const PolicyConfig& config, const RaidGeometry& geo,
                 std::uint64_t metadata_pages, std::uint64_t cache_pages);
  /// Prototype mode (array/ssd not owned).
  BlockCacheBase(const PolicyConfig& config, RaidArray* array, SsdModel* ssd,
                 std::uint64_t metadata_pages, std::uint64_t cache_pages);

  CacheStats stats() const override;

  const CacheSets& sets() const { return sets_; }
  CacheSsd& cache_ssd() { return ssd_; }
  RaidBackend& raid() { return raid_; }

 protected:
  /// Cache set for a RAID page: hash of its parity group, so that pages of
  /// one stripe land in one set and can be reclaimed together.
  std::uint32_t set_for(Lba lba) const;

  /// Evicts the LRU clean page of `set` (trims the SSD page). Returns the
  /// freed slot index, or kNone if the set has no clean page.
  /// Derived classes that persist metadata override on_evict_slot().
  std::uint32_t evict_lru_clean(std::uint32_t set);

  /// Hook invoked when evict_lru_clean frees a slot (before reset).
  virtual void on_evict_slot(std::uint32_t idx) { (void)idx; }

  PolicyConfig config_;
  CacheSets sets_;
  CacheSsd ssd_;
  RaidBackend raid_;
  CacheStats stats_;
};

/// Computes the cache-page/metadata-page split for a given total SSD size.
/// With segment staging on, a small header ring is carved out after the cache
/// region (ring base = metadata_pages + cache_pages).
struct CacheLayoutPlan {
  std::uint64_t metadata_pages = 0;
  std::uint64_t cache_pages = 0;
  std::uint64_t segment_ring_pages = 0;
};
CacheLayoutPlan plan_cache_layout(const PolicyConfig& config, bool needs_metadata);

}  // namespace kdd
