#include "harness/telemetry.hpp"

#include <filesystem>
#include <utility>

#include "blockdev/fault_device.hpp"
#include "blockdev/ssd_model.hpp"
#include "kdd/kdd_cache.hpp"
#include "obs/export.hpp"
#include "obs/flight.hpp"
#include "obs/log.hpp"
#include "obs/metrics.hpp"
#include "obs/span.hpp"

namespace kdd {

TelemetrySession::TelemetrySession(Options opts)
    : opts_(std::move(opts)), series_(opts_.t_unit) {
  std::vector<std::string> kinds;
  kinds.reserve(kNumSsdWriteKinds);
  for (int k = 0; k < kNumSsdWriteKinds; ++k) {
    kinds.emplace_back(ssd_write_kind_name(static_cast<SsdWriteKind>(k)));
  }
  series_.set_kind_names(std::move(kinds));

  // The snapshot should describe exactly this run: zero the global registry,
  // (re)register the span aggregates, and start a fresh span ring.
  obs::MetricsRegistry::global().reset();
  obs::register_span_metrics();
  obs::TraceBuffer::global().clear();
  obs::TraceBuffer::global().set_capacity(opts_.trace_capacity);
  obs::TraceBuffer::set_sample_period(opts_.trace_sample_period);
  obs::TraceBuffer::global().set_enabled(true);

  // Health + flight ride along by default: the engine registers its gauges
  // into the just-reset registry, and fault-path triggers need the out_dir
  // to exist so a mid-run auto dump can land.
  if (opts_.health) {
    health_ = std::make_unique<obs::HealthEngine>(opts_.health_config);
    obs::HealthEngine::install(health_.get());
  }
  if (opts_.flight) {
    std::error_code ec;
    std::filesystem::create_directories(opts_.out_dir, ec);
    obs::FlightRecorder& fr = obs::FlightRecorder::global();
    fr.clear();
    fr.set_capacity(opts_.flight_capacity);
    if (!ec) fr.set_auto_dump_path(opts_.out_dir + "/flight.json");
    obs::FlightRecorder::set_enabled(true);
  }
}

TelemetrySession::~TelemetrySession() {
  if (!finished_) {
    obs::TraceBuffer::set_enabled(false);
    if (opts_.flight) {
      obs::FlightRecorder::set_enabled(false);
      obs::FlightRecorder::global().set_auto_dump_path("");
    }
  }
  // ~HealthEngine uninstalls itself if still installed.
}

void TelemetrySession::attach_policy(CachePolicy* policy) {
  policy_ = policy;
  if (policy_) prev_stats_ = policy_->stats();
}

void TelemetrySession::attach_kdd(KddCache* kdd) {
  kdd_ = kdd;
  if (kdd_) {
    prev_log_gc_ = kdd_->metadata_log().gc_passes();
    prev_fallbacks_ = kdd_->media_fallbacks();
    prev_healed_ = kdd_->groups_healed();
  }
}

void TelemetrySession::attach_ssd(const SsdModel* ssd) { ssd_ = ssd; }

void TelemetrySession::attach_fault_counters(const FaultCounters* counters) {
  faults_ = counters;
  if (faults_) {
    prev_media_errors_ = faults_->media_error_reads;
    prev_transient_ = faults_->transient_errors;
    prev_corruptions_ = faults_->corruptions_detected;
    prev_repairs_ = faults_->media_errors_healed;
  }
}

void TelemetrySession::poll_sources(obs::WearSample& s) {
  if (policy_) {
    const CacheStats cur = policy_->stats();
    s.ssd_reads = cur.ssd_reads - prev_stats_.ssd_reads;
    for (int k = 0; k < kNumSsdWriteKinds; ++k) {
      s.ssd_writes_by_kind[static_cast<std::size_t>(k)] =
          cur.ssd_writes[k] - prev_stats_.ssd_writes[k];
    }
    s.disk_reads = cur.disk_reads - prev_stats_.disk_reads;
    s.disk_writes = cur.disk_writes - prev_stats_.disk_writes;
    s.cleanings = cur.cleanings - prev_stats_.cleanings;
    s.groups_cleaned = cur.groups_cleaned - prev_stats_.groups_cleaned;
    s.log_gc_passes = cur.log_gc_passes - prev_stats_.log_gc_passes;
    prev_stats_ = cur;
  }
  if (kdd_) {
    // Prefer the log's own GC counter when a KddCache is attached (identical
    // to CacheStats::log_gc_passes, but available even without a policy).
    const std::uint64_t gc = kdd_->metadata_log().gc_passes();
    s.log_gc_passes = gc - prev_log_gc_;
    prev_log_gc_ = gc;
    const std::uint64_t fb = kdd_->media_fallbacks();
    s.media_fallbacks = fb - prev_fallbacks_;
    prev_fallbacks_ = fb;
    const std::uint64_t healed = kdd_->groups_healed();
    s.groups_healed = healed - prev_healed_;
    prev_healed_ = healed;

    s.dez_pages = kdd_->dez_pages();
    s.old_pages = kdd_->old_pages();
    s.stale_groups = kdd_->stale_groups();
    s.staged_deltas = kdd_->staged_deltas();
    s.log_used_pages = kdd_->metadata_log().used_pages();
    s.dez_live_bytes = kdd_->dez_live_bytes();
    s.dez_dead_bytes = kdd_->dez_dead_bytes();
  }
  if (ssd_) {
    s.write_amplification = ssd_->wear().write_amplification();
    s.endurance_consumed = ssd_->endurance_consumed();
  }
  if (faults_) {
    s.media_errors = faults_->media_error_reads - prev_media_errors_;
    prev_media_errors_ = faults_->media_error_reads;
    s.transient_errors = faults_->transient_errors - prev_transient_;
    prev_transient_ = faults_->transient_errors;
    s.corruptions = faults_->corruptions_detected - prev_corruptions_;
    prev_corruptions_ = faults_->corruptions_detected;
    s.read_repairs = faults_->media_errors_healed - prev_repairs_;
    prev_repairs_ = faults_->media_errors_healed;
  }
}

void TelemetrySession::flush_health() {
  health_->observe_requests(staged_t_us_, staged_latency_us_, staged_n_);
  staged_n_ = 0;
}

void TelemetrySession::close_bucket(double t) {
  if (health_ && staged_n_ > 0) flush_health();
  if (bucket_ops_ == 0) return;
  obs::WearSample s;
  s.t = t;
  s.ops = bucket_ops_;
  s.mean_latency_us = latency_sum_us_ / static_cast<double>(bucket_ops_);
  s.max_latency_us = latency_max_us_;
  poll_sources(s);
  series_.add(s);
  if (health_) {
    const std::uint64_t now_us = static_cast<std::uint64_t>(t);
    if (kdd_) health_->observe_destage_lag(now_us, kdd_->stale_groups());
    if (ssd_) {
      const std::vector<double> wear =
          ssd_->region_erase_counts(opts_.wear_regions);
      for (std::size_t r = 0; r < wear.size(); ++r) {
        health_->observe_region_wear(r, wear[r]);
      }
    }
    health_->tick(now_us);
  }
  obs::flight_note(obs::FlightKind::kRequestSample, "bucket_close",
                   static_cast<std::int64_t>(s.max_latency_us),
                   static_cast<std::int64_t>(s.ops));
  bucket_ops_ = 0;
  latency_sum_us_ = 0.0;
  latency_max_us_ = 0;
}

bool TelemetrySession::finish() {
  if (finished_) return true;
  finished_ = true;
  close_bucket(last_t_);
  if (health_) health_->tick(static_cast<std::uint64_t>(last_t_));
  obs::TraceBuffer::set_enabled(false);

  std::error_code ec;
  std::filesystem::create_directories(opts_.out_dir, ec);
  if (ec) {
    KDD_LOG(Error, "telemetry: cannot create %s: %s", opts_.out_dir.c_str(),
            ec.message().c_str());
    return false;
  }
  const std::string dir = opts_.out_dir + "/";
  const obs::MetricsSnapshot snap = obs::MetricsRegistry::global().snapshot();
  bool ok = true;
  ok &= obs::write_text_file(dir + "metrics.prom", obs::prometheus_text(snap));
  ok &= obs::write_text_file(dir + "snapshot.json", obs::snapshot_json(snap) + "\n");
  ok &= series_.write_jsonl(dir + "timeseries.jsonl");
  ok &= obs::TraceBuffer::global().write_chrome_trace(dir + "trace.json");
  if (health_) {
    ok &= obs::write_text_file(dir + "health.json", health_->health_json());
    obs::HealthEngine::install(nullptr);
  }
  if (opts_.flight) {
    ok &= obs::FlightRecorder::global().dump(dir + "flight.json", "finish");
    obs::FlightRecorder::set_enabled(false);
    obs::FlightRecorder::global().set_auto_dump_path("");
  }
  if (!ok) {
    KDD_LOG(Error, "telemetry: failed writing artifacts under %s",
            opts_.out_dir.c_str());
  } else {
    KDD_LOG(Info, "telemetry: wrote %zu buckets + %zu spans under %s",
            series_.samples().size(), obs::TraceBuffer::global().spans().size(),
            opts_.out_dir.c_str());
  }
  return ok;
}

}  // namespace kdd
