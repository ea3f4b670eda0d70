// Wear/endurance time series: the quantitative backbone of the paper's
// lifetime argument, sampled over time instead of once at end-of-run.
//
// A WearSeries is a sequence of WearSample buckets. Each bucket carries the
// *delta* of every monotonically increasing counter over that bucket (SSD
// write traffic by kind, disk I/O, cleanings, log GC passes, fault/heal
// counters) plus point-in-time gauges at the bucket's end (DEZ occupancy,
// old pages, cleaning debt = stale parity groups outstanding, metadata-log
// fill, FTL write amplification, endurance consumed). Drivers decide the
// bucketing clock — the trace replays bucket by request count against the
// simulated clock; the torture harness buckets by seed.
//
// The obs layer is below cache/kdd, so the sample is plain data: the
// collector that knows how to poll a KddCache/CacheSsd/SsdModel lives in
// src/harness/telemetry.{hpp,cpp}. Write-kind names travel with the series
// so the JSONL exporter needs no knowledge of SsdWriteKind.
#pragma once

#include <array>
#include <cstdint>
#include <string>
#include <vector>

namespace kdd::obs {

/// Upper bound on distinct write kinds a series can carry (cache layers
/// currently use 5; headroom for future kinds).
inline constexpr std::size_t kMaxWriteKinds = 8;

struct WearSample {
  // -- Bucket identity --------------------------------------------------------
  double t = 0.0;           ///< bucket end on the driver's clock (see t_unit)
  std::uint64_t ops = 0;    ///< requests completed in this bucket

  // -- Traffic deltas over the bucket ----------------------------------------
  std::array<std::uint64_t, kMaxWriteKinds> ssd_writes_by_kind{};  ///< pages
  std::uint64_t ssd_reads = 0;
  std::uint64_t disk_reads = 0;
  std::uint64_t disk_writes = 0;
  std::uint64_t cleanings = 0;
  std::uint64_t groups_cleaned = 0;
  std::uint64_t log_gc_passes = 0;

  // -- Fault / self-healing deltas -------------------------------------------
  std::uint64_t media_errors = 0;
  std::uint64_t transient_errors = 0;
  std::uint64_t corruptions = 0;
  std::uint64_t media_fallbacks = 0;
  std::uint64_t groups_healed = 0;
  std::uint64_t read_repairs = 0;

  // -- Gauges at bucket end ---------------------------------------------------
  std::uint64_t dez_pages = 0;      ///< DEZ occupancy (pages holding deltas)
  std::uint64_t old_pages = 0;      ///< DAZ pages in state old
  std::uint64_t stale_groups = 0;   ///< cleaning debt outstanding
  std::uint64_t staged_deltas = 0;  ///< NVRAM staging occupancy
  std::uint64_t log_used_pages = 0; ///< metadata-log fill (pages)
  std::uint64_t dez_live_bytes = 0;  ///< packed delta bytes still referenced
  std::uint64_t dez_dead_bytes = 0;  ///< invalidated bytes left in live DEZ pages
  double write_amplification = 0.0; ///< FTL WA so far (prototype mode)
  double endurance_consumed = 0.0;  ///< fraction of P/E budget burned

  // -- Latency over the bucket ------------------------------------------------
  double mean_latency_us = 0.0;
  std::uint64_t max_latency_us = 0;
};

class WearSeries {
 public:
  /// `t_unit` documents the bucket clock ("sim_us", "requests", "seed", ...).
  explicit WearSeries(std::string t_unit = "requests");

  void set_kind_names(std::vector<std::string> names);
  const std::vector<std::string>& kind_names() const { return kind_names_; }
  const std::string& t_unit() const { return t_unit_; }

  void add(const WearSample& sample) { samples_.push_back(sample); }
  const std::vector<WearSample>& samples() const { return samples_; }
  bool empty() const { return samples_.empty(); }

  /// One JSONL line (no trailing newline) for `sample`, keyed field names,
  /// write kinds expanded as ssd_writes_<kind>.
  std::string jsonl_line(const WearSample& sample) const;

  /// Whole-series JSONL: a `{"schema":...}` header line, then one line per
  /// bucket. Returns false when the file cannot be written.
  std::string to_jsonl() const;
  bool write_jsonl(const std::string& path) const;

  static constexpr const char* kSchema = "kdd-telemetry-timeseries-v1";

 private:
  std::string t_unit_;
  std::vector<std::string> kind_names_;
  std::vector<WearSample> samples_;
};

}  // namespace kdd::obs
