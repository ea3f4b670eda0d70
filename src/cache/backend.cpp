#include "cache/backend.hpp"

#include "common/check.hpp"
#include "common/hash.hpp"
#include "obs/log.hpp"
#include "obs/metrics.hpp"
#include "obs/span.hpp"

namespace kdd {

namespace {

/// Cached metric handles for the data-plane leaves, registered once in the
/// global registry (hot-path cost per I/O: one relaxed fetch_add each).
struct BackendMetrics {
  obs::Counter retry_attempts;   ///< extra attempts beyond the first
  obs::Counter retry_exhausted;  ///< ops that failed after all retries
  obs::Counter ssd_io_errors;    ///< non-OK statuses surfaced to the cache
};

BackendMetrics& backend_metrics() {
  static BackendMetrics* m = [] {
    auto* bm = new BackendMetrics();
    obs::MetricsRegistry& reg = obs::MetricsRegistry::global();
    bm->retry_attempts = obs::Counter(&reg, "kdd_ssd_retry_attempts_total");
    bm->retry_exhausted = obs::Counter(&reg, "kdd_ssd_retry_exhausted_total");
    bm->ssd_io_errors = obs::Counter(&reg, "kdd_ssd_io_errors_total");
    return bm;
  }();
  return *m;
}

/// Global-registry mirrors of SegmentStats plus two derived gauges; the
/// per-instance SegmentStats stays authoritative for tests.
struct SegmentMetrics {
  obs::Counter seals;
  obs::Counter forced_seals;
  obs::Counter pages_sealed;
  obs::Counter pages_staged;
  obs::Counter pages_coalesced;
  obs::Counter fallback_page_writes;
  obs::Counter lost_pages;
  obs::Counter recovered;
  obs::Counter discarded;
  obs::Counter discarded_pages;
  obs::Gauge fill_permille;          ///< open-segment fill ratio x1000
  obs::Gauge write_ops_per_kilopage; ///< SSD write commands per 1000 committed pages
};

SegmentMetrics& segment_metrics() {
  static SegmentMetrics* m = [] {
    auto* sm = new SegmentMetrics();
    obs::MetricsRegistry& reg = obs::MetricsRegistry::global();
    sm->seals = obs::Counter(&reg, "kdd_segment_seals_total");
    sm->forced_seals = obs::Counter(&reg, "kdd_segment_forced_seals_total");
    sm->pages_sealed = obs::Counter(&reg, "kdd_segment_pages_sealed_total");
    sm->pages_staged = obs::Counter(&reg, "kdd_segment_pages_staged_total");
    sm->pages_coalesced = obs::Counter(&reg, "kdd_segment_pages_coalesced_total");
    sm->fallback_page_writes =
        obs::Counter(&reg, "kdd_segment_fallback_page_writes_total");
    sm->lost_pages = obs::Counter(&reg, "kdd_segment_lost_pages_total");
    sm->recovered = obs::Counter(&reg, "kdd_segment_recovered_total");
    sm->discarded = obs::Counter(&reg, "kdd_segment_discarded_total");
    sm->discarded_pages = obs::Counter(&reg, "kdd_segment_discarded_pages_total");
    sm->fill_permille = obs::Gauge(&reg, "kdd_segment_fill_permille");
    sm->write_ops_per_kilopage =
        obs::Gauge(&reg, "kdd_segment_write_ops_per_kilopage");
    return sm;
  }();
  return *m;
}

}  // namespace

// ---------------------------------------------------------------------------
// CacheSsd
// ---------------------------------------------------------------------------

CacheSsd::CacheSsd(std::uint64_t metadata_pages, std::uint64_t cache_pages)
    : metadata_pages_(metadata_pages), cache_pages_(cache_pages) {
  KDD_CHECK(cache_pages_ > 0);
}

CacheSsd::CacheSsd(std::uint64_t metadata_pages, std::uint64_t cache_pages,
                   SsdModel* ssd)
    : metadata_pages_(metadata_pages), cache_pages_(cache_pages), ssd_(ssd) {
  KDD_CHECK(cache_pages_ > 0);
  KDD_CHECK(ssd_ != nullptr);
  KDD_CHECK(ssd_->num_pages() >= metadata_pages_ + cache_pages_);
  scratch_ = make_page();
  FaultConfig fc;
  fc.verify_reads = true;
  fc.seed = 0xc2b2ae3d27d4eb4full;  // distinct from the per-disk RAID seeds
  fault_dev_ = std::make_unique<FaultInjectingDevice>(ssd_, fc);
}

void CacheSsd::replace_device() {
  KDD_CHECK(ssd_ != nullptr);
  KDD_LOG(Info, "cache-ssd device replaced (endurance %.3f consumed)",
          ssd_->endurance_consumed());
  ssd_->replace();
  // Checksums and latent sector errors belong to the old media.
  fault_dev_->clear_faults();
  // So do any pages staged in the open segment (the id stays monotonic).
  if (stager_) {
    stager_->abandon();
    update_segment_gauges();
  }
}

IoStatus CacheSsd::do_read(Lba ssd_lba, std::span<std::uint8_t> out, IoPlan* plan) {
  if (staging_live_ && stager_->pending(ssd_lba)) {
    // RAM hit on a page still in the open segment: no device op, no plan
    // entry — the not-yet-sealed copy IS the current contents. Counter-mode
    // entries carry no bytes, so only prototype mode copies them out.
    if (ssd_ && !out.empty()) KDD_CHECK(stager_->read_pending(ssd_lba, out));
    return IoStatus::kOk;
  }
  ++reads_;
  if (plan) plan->add(plan->next_phase(), {DeviceOp::Target::kSsd, 0, ssd_lba, IoKind::kRead});
  if (ssd_ && !out.empty()) {
    const obs::SpanScope span(obs::Stage::kDevice);
    const RetryResult r = with_retry(
        [&] { return fault_dev_->read(ssd_lba, out); }, retry_policy_);
    if (plan) plan->add_retry_delay(r.backoff_us);
    if (r.attempts > 1) {
      backend_metrics().retry_attempts.inc(r.attempts - 1);
    }
    if (r.status != IoStatus::kOk) {
      backend_metrics().ssd_io_errors.inc();
      // kFailed here is a transient that never cleared (with_retry demotes).
      if (r.status == IoStatus::kFailed) backend_metrics().retry_exhausted.inc();
      KDD_LOG(Warn, "cache-ssd read failed lba=%llu status=%d attempts=%u",
              static_cast<unsigned long long>(ssd_lba),
              static_cast<int>(r.status), r.attempts);
    }
    return r.status;
  }
  return IoStatus::kOk;
}

IoStatus CacheSsd::do_write(Lba ssd_lba, std::span<const std::uint8_t> data,
                            IoPlan* plan) {
  ++pages_committed_;
  if (staging_live_) {
    if (stager_->full()) {
      // Only possible when a prior seal could not drain (power rail down):
      // try again; if it still cannot, degrade to a direct write below so
      // the stager never grows past one segment.
      seal_segment(plan, /*forced=*/false);
    }
    if (!stager_->full()) {
      if (stager_->pending(ssd_lba)) {
        ++seg_stats_.pages_coalesced;
        segment_metrics().pages_coalesced.inc();
      }
      ++seg_stats_.pages_staged;
      segment_metrics().pages_staged.inc();
      // Counter mode (no device) stages addresses only, even when the
      // caller carries page bytes; prototype mode always stages a full
      // page, substituting scratch for byte-less commits.
      std::span<const std::uint8_t> payload =
          ssd_ ? data : std::span<const std::uint8_t>();
      if (ssd_ && payload.empty()) {
        if (scratch_.empty()) scratch_ = make_page();
        payload = scratch_;
      }
      const bool filled = stager_->stage(ssd_lba, payload);
      update_segment_gauges();
      if (filled) return seal_segment(plan, /*forced=*/false);
      return IoStatus::kOk;
    }
  }
  ++write_ops_;
  if (plan) plan->add(plan->next_phase(), {DeviceOp::Target::kSsd, 0, ssd_lba, IoKind::kWrite});
  if (ssd_) {
    if (scratch_.empty()) scratch_ = make_page();
    const std::span<const std::uint8_t> payload =
        data.empty() ? std::span<const std::uint8_t>(scratch_) : data;
    const obs::SpanScope span(obs::Stage::kDevice);
    const RetryResult r = with_retry(
        [&] { return fault_dev_->write(ssd_lba, payload); }, retry_policy_);
    if (plan) plan->add_retry_delay(r.backoff_us);
    if (r.attempts > 1) {
      backend_metrics().retry_attempts.inc(r.attempts - 1);
    }
    if (r.status != IoStatus::kOk) {
      backend_metrics().ssd_io_errors.inc();
      // kFailed here is a transient that never cleared (with_retry demotes).
      if (r.status == IoStatus::kFailed) backend_metrics().retry_exhausted.inc();
      KDD_LOG(Warn, "cache-ssd write failed lba=%llu status=%d attempts=%u",
              static_cast<unsigned long long>(ssd_lba),
              static_cast<int>(r.status), r.attempts);
    }
    return r.status;
  }
  return IoStatus::kOk;
}

IoStatus CacheSsd::read_data(std::uint64_t idx, std::span<std::uint8_t> out,
                             IoPlan* plan) {
  KDD_DCHECK(idx < cache_pages_);
  return do_read(metadata_pages_ + idx, out, plan);
}

IoStatus CacheSsd::write_data(std::uint64_t idx, SsdWriteKind kind,
                              std::span<const std::uint8_t> data, IoPlan* plan) {
  KDD_DCHECK(idx < cache_pages_);
  ++writes_by_kind_[static_cast<int>(kind)];
  return do_write(metadata_pages_ + idx, data, plan);
}

void CacheSsd::trim_data(std::uint64_t idx) {
  KDD_DCHECK(idx < cache_pages_);
  if (staging_live_) stager_->drop(metadata_pages_ + idx);
  if (ssd_) fault_dev_->trim(metadata_pages_ + idx);
}

IoStatus CacheSsd::read_metadata(std::uint64_t slot, std::span<std::uint8_t> out,
                                 IoPlan* plan) {
  KDD_DCHECK(slot < metadata_pages_);
  return do_read(slot, out, plan);
}

IoStatus CacheSsd::write_metadata(std::uint64_t slot,
                                  std::span<const std::uint8_t> data, IoPlan* plan) {
  KDD_DCHECK(slot < metadata_pages_);
  ++writes_by_kind_[static_cast<int>(SsdWriteKind::kMetadata)];
  return do_write(slot, data, plan);
}

std::uint64_t CacheSsd::total_writes() const {
  std::uint64_t n = 0;
  for (std::uint64_t w : writes_by_kind_) n += w;
  return n;
}

void CacheSsd::export_stats(CacheStats& stats) const {
  stats.ssd_reads = reads_;
  for (int k = 0; k < kNumSsdWriteKinds; ++k) stats.ssd_writes[k] = writes_by_kind_[k];
}

// ---------------------------------------------------------------------------
// Log-structured segment staging
// ---------------------------------------------------------------------------

void CacheSsd::enable_segment_staging(const SegmentConfig& config,
                                      std::uint64_t* nv_segment_seq) {
  KDD_CHECK(stager_ == nullptr);
  if (ssd_) {
    KDD_CHECK(ssd_->num_pages() >= config.ring_base + config.ring_pages);
  }
  stager_ = std::make_unique<SegmentStager>(config, /*counter_mode=*/ssd_ == nullptr);
  nv_segment_seq_ = nv_segment_seq;
  if (nv_segment_seq_) stager_->set_open_segment_id(*nv_segment_seq_);
}

void CacheSsd::activate_segment_staging() {
  KDD_CHECK(stager_ != nullptr);
  staging_live_ = true;
}

IoStatus CacheSsd::force_seal(IoPlan* plan) {
  if (!staging_live_ || stager_->empty()) return IoStatus::kOk;
  return seal_segment(plan, /*forced=*/true);
}

void CacheSsd::update_segment_gauges() const {
  const SegmentMetrics& sm = segment_metrics();
  sm.fill_permille.set(static_cast<std::int64_t>(
      stager_->live_pages() * 1000 / stager_->config().segment_pages));
  if (pages_committed_ > 0) {
    sm.write_ops_per_kilopage.set(
        static_cast<std::int64_t>(write_ops_ * 1000 / pages_committed_));
  }
}

IoStatus CacheSsd::seal_segment(IoPlan* plan, bool forced) {
  KDD_CHECK(stager_ != nullptr);
  if (stager_->empty()) return IoStatus::kOk;
  Page header;
  const std::vector<PageWrite> batch = stager_->build_seal(&header);
  const std::uint64_t payload_pages = batch.size() - 1;
  if (plan) {
    // One phase: the whole segment lands as one sequential burst.
    const std::size_t ph = plan->next_phase();
    for (const PageWrite& w : batch) {
      plan->add(ph, {DeviceOp::Target::kSsd, 0, w.page, IoKind::kWriteSeq});
    }
  }
  ++write_ops_;
  ++seg_stats_.write_ops;
  IoStatus st = IoStatus::kOk;
  std::vector<Lba> lost;
  if (ssd_) {
    const obs::SpanScope span(obs::Stage::kDevice);
    std::size_t done = 0;
    st = fault_dev_->write_multi(batch, &done);
    if (st != IoStatus::kOk && fault_dev_->powered() && !fault_dev_->failed()) {
      // The vector split on a transient: land the stragglers one page at a
      // time under the normal retry policy. Rewrites of already-durable
      // pages are idempotent, and replaying the batch in order keeps the
      // header-first contract intact throughout.
      st = IoStatus::kOk;
      for (const PageWrite& w : batch) {
        ++seg_stats_.fallback_page_writes;
        segment_metrics().fallback_page_writes.inc();
        const RetryResult r = with_retry(
            [&] { return fault_dev_->write(w.page, w.data); }, retry_policy_);
        if (plan) plan->add_retry_delay(r.backoff_us);
        if (r.attempts > 1) backend_metrics().retry_attempts.inc(r.attempts - 1);
        if (r.status != IoStatus::kOk) {
          backend_metrics().ssd_io_errors.inc();
          if (r.status == IoStatus::kFailed) backend_metrics().retry_exhausted.inc();
          st = r.status;
          if (w.page != batch.front().page) lost.push_back(w.page);
          if (!fault_dev_->powered() || fault_dev_->failed()) break;
        }
      }
    }
  }
  // Epoch rule: complete the seal (and bump the NVRAM segment id) only while
  // powered. After a mid-seal power cut the segment stays OPEN so recovery
  // examines its header slot and discards exactly what the header lists.
  const bool powered = !fault_dev_ || fault_dev_->powered();
  if (powered) {
    ++seg_stats_.seals;
    segment_metrics().seals.inc();
    if (forced) {
      ++seg_stats_.forced_seals;
      segment_metrics().forced_seals.inc();
    }
    seg_stats_.pages_sealed += payload_pages;
    segment_metrics().pages_sealed.inc(payload_pages);
    stager_->finish_seal();
    if (nv_segment_seq_) *nv_segment_seq_ = stager_->open_segment_id();
    for (const Lba p : lost) {
      // A payload page we could not land holds stale media contents; mark it
      // unreadable so every future read fails loudly (kMediaError) instead
      // of silently serving old bytes — the cache's existing degraded-read
      // fallbacks then retire or heal the slot.
      ++seg_stats_.lost_pages;
      segment_metrics().lost_pages.inc();
      fault_dev_->inject_media_error(p);
      KDD_LOG(Warn, "segment seal lost page %llu (marked unreadable)",
              static_cast<unsigned long long>(p));
    }
  }
  update_segment_gauges();
  return st;
}

void CacheSsd::recover_staging() {
  if (stager_ == nullptr || ssd_ == nullptr || nv_segment_seq_ == nullptr) return;
  const std::uint64_t seq = *nv_segment_seq_;
  stager_->set_open_segment_id(seq);
  const Lba slot = SegmentStager::header_slot_for(stager_->config(), seq);
  Page hdr = make_page();
  if (fault_dev_->read(slot, hdr) != IoStatus::kOk) return;
  std::uint64_t id = 0;
  std::vector<Lba> lbas;
  std::uint64_t payload_crc = 0;
  if (!SegmentStager::parse_header(hdr, &id, &lbas, &payload_crc) || id != seq) {
    // Garbage, a torn header, or a stale ring slot from an older epoch:
    // nothing of segment `seq` reached the media (header-first order), so
    // there is nothing to undo.
    return;
  }
  // The open segment's header persisted, so some payload prefix may have.
  // Validate the whole-segment CRC to tell "fully persisted" from "torn".
  Page buf = make_page();
  std::uint64_t crc = kFnvOffset;
  bool intact = true;
  for (const Lba p : lbas) {
    if (fault_dev_->read(p, buf) != IoStatus::kOk) {
      intact = false;
      break;
    }
    crc = SegmentStager::fold_payload_crc(crc, buf);
  }
  if (intact && crc == payload_crc) {
    // The cut landed after the last payload write: the segment is complete,
    // only the epoch bump was lost. Re-apply it.
    ++seg_stats_.recovered_segments;
    segment_metrics().recovered.inc();
    stager_->set_open_segment_id(seq + 1);
    *nv_segment_seq_ = seq + 1;
    KDD_LOG(Info, "segment recovery: segment %llu fully persisted (%zu pages)",
            static_cast<unsigned long long>(seq), lbas.size());
    return;
  }
  // Torn mid-segment: discard exactly the listed pages by marking them
  // unreadable. The metadata-log replay skips unreadable log pages and the
  // torn-page audit retires or heals unreadable data/delta slots — both
  // backed by the RAID members, which are always current before staging.
  ++seg_stats_.discarded_segments;
  segment_metrics().discarded.inc();
  for (const Lba p : lbas) {
    fault_dev_->inject_media_error(p);
    ++seg_stats_.discarded_pages;
    segment_metrics().discarded_pages.inc();
  }
  // Tombstone the ring slot so a second crash in this epoch's ring window
  // can never re-read the stale header and discard live pages again.
  if (scratch_.empty()) scratch_ = make_page();
  (void)fault_dev_->write(slot, scratch_);
  KDD_LOG(Warn,
          "segment recovery: segment %llu torn, discarded %zu pages exactly",
          static_cast<unsigned long long>(seq), lbas.size());
}

// ---------------------------------------------------------------------------
// RaidBackend
// ---------------------------------------------------------------------------

RaidBackend::RaidBackend(const RaidGeometry& geo) : layout_(geo) {}

RaidBackend::RaidBackend(RaidArray* array)
    : layout_(array->geometry()), array_(array) {
  KDD_CHECK(array_ != nullptr);
}

IoStatus RaidBackend::read_page(Lba lba, std::span<std::uint8_t> out, IoPlan* plan) {
  ++disk_reads_;
  if (array_) return array_->read_page(lba, out, plan);
  if (plan) {
    const DiskAddr a = layout_.map(lba);
    plan->add(plan->next_phase(), {DeviceOp::Target::kHdd, a.disk, a.page, IoKind::kRead});
  }
  return IoStatus::kOk;
}

void RaidBackend::plan_rmw(GroupId g, Lba lba, IoPlan* plan) {
  // [read data, read P(, read Q)] -> [write data, write P(, write Q)]
  const DiskAddr a = layout_.map(lba);
  const DiskAddr pa = layout_.parity_addr(g);
  const std::size_t rd = plan->next_phase();
  plan->add(rd, {DeviceOp::Target::kHdd, a.disk, a.page, IoKind::kRead});
  plan->add(rd, {DeviceOp::Target::kHdd, pa.disk, pa.page, IoKind::kRead});
  if (layout_.geometry().level == RaidLevel::kRaid6) {
    const DiskAddr qa = layout_.q_parity_addr(g);
    plan->add(rd, {DeviceOp::Target::kHdd, qa.disk, qa.page, IoKind::kRead});
    plan->add(rd + 1, {DeviceOp::Target::kHdd, qa.disk, qa.page, IoKind::kWrite});
  }
  plan->add(rd + 1, {DeviceOp::Target::kHdd, a.disk, a.page, IoKind::kWrite});
  plan->add(rd + 1, {DeviceOp::Target::kHdd, pa.disk, pa.page, IoKind::kWrite});
}

IoStatus RaidBackend::write_page(Lba lba, std::span<const std::uint8_t> data,
                                 IoPlan* plan) {
  const obs::SpanScope span(obs::Stage::kRmw);
  const RaidGeometry& geo = layout_.geometry();
  const std::uint32_t parity = geo.parity_disks();
  disk_reads_ += parity ? 1 + parity : 0;  // old data + old parities
  disk_writes_ += 1 + parity;
  if (array_) {
    KDD_CHECK(!data.empty());
    return array_->write_page(lba, data, plan);
  }
  if (plan) {
    if (parity) {
      plan_rmw(layout_.group_of(lba), lba, plan);
    } else {
      const DiskAddr a = layout_.map(lba);
      plan->add(plan->next_phase(), {DeviceOp::Target::kHdd, a.disk, a.page, IoKind::kWrite});
    }
  }
  return IoStatus::kOk;
}

IoStatus RaidBackend::write_group(GroupId g, std::span<const Page> data, IoPlan* plan) {
  const RaidGeometry& geo = layout_.geometry();
  KDD_CHECK(data.size() == geo.data_disks());
  disk_writes_ += geo.data_disks() + geo.parity_disks();
  if (array_) return array_->write_group(g, data, plan);
  counter_stale_.erase(g);
  if (plan) {
    const std::size_t ph = plan->next_phase();
    for (std::uint32_t k = 0; k < geo.data_disks(); ++k) {
      const DiskAddr a = layout_.map(layout_.group_member(g, k));
      plan->add(ph, {DeviceOp::Target::kHdd, a.disk, a.page, IoKind::kWrite});
    }
    if (geo.parity_disks() > 0) {
      const DiskAddr pa = layout_.parity_addr(g);
      plan->add(ph, {DeviceOp::Target::kHdd, pa.disk, pa.page, IoKind::kWrite});
      if (geo.level == RaidLevel::kRaid6) {
        const DiskAddr qa = layout_.q_parity_addr(g);
        plan->add(ph, {DeviceOp::Target::kHdd, qa.disk, qa.page, IoKind::kWrite});
      }
    }
  }
  return IoStatus::kOk;
}

IoStatus RaidBackend::write_page_nopar(Lba lba, std::span<const std::uint8_t> data,
                                       IoPlan* plan) {
  ++disk_writes_;
  if (array_) {
    KDD_CHECK(!data.empty());
    return array_->write_page_nopar(lba, data, plan);
  }
  counter_stale_.insert(layout_.group_of(lba));
  if (plan) {
    const DiskAddr a = layout_.map(lba);
    plan->add(plan->next_phase(), {DeviceOp::Target::kHdd, a.disk, a.page, IoKind::kWrite});
  }
  return IoStatus::kOk;
}

IoStatus RaidBackend::update_parity_rmw(GroupId g, std::span<const GroupDelta> deltas,
                                        IoPlan* plan, bool finalize) {
  const obs::SpanScope span(obs::Stage::kParity);
  const std::uint32_t parity = layout_.geometry().parity_disks();
  KDD_CHECK(parity > 0);
  disk_reads_ += parity;
  disk_writes_ += parity;
  if (array_) return array_->update_parity_rmw(g, deltas, plan, finalize);
  if (finalize) counter_stale_.erase(g);
  if (plan) {
    const DiskAddr pa = layout_.parity_addr(g);
    const std::size_t rd = plan->next_phase();
    plan->add(rd, {DeviceOp::Target::kHdd, pa.disk, pa.page, IoKind::kRead});
    plan->add(rd + 1, {DeviceOp::Target::kHdd, pa.disk, pa.page, IoKind::kWrite});
    if (layout_.geometry().level == RaidLevel::kRaid6) {
      const DiskAddr qa = layout_.q_parity_addr(g);
      plan->add(rd, {DeviceOp::Target::kHdd, qa.disk, qa.page, IoKind::kRead});
      plan->add(rd + 1, {DeviceOp::Target::kHdd, qa.disk, qa.page, IoKind::kWrite});
    }
  }
  return IoStatus::kOk;
}

IoStatus RaidBackend::update_parity_rmw_batch(
    std::span<const GroupParityUpdate> updates, IoPlan* plan,
    std::vector<GroupId>* failed) {
  const obs::SpanScope span(obs::Stage::kParity);
  const std::uint32_t parity = layout_.geometry().parity_disks();
  KDD_CHECK(parity > 0);
  disk_reads_ += parity * updates.size();
  disk_writes_ += parity * updates.size();
  if (array_) return array_->update_parity_rmw_batch(updates, plan, failed);
  for (const GroupParityUpdate& up : updates) {
    if (up.finalize) counter_stale_.erase(up.group);
    if (plan) {
      const DiskAddr pa = layout_.parity_addr(up.group);
      const std::size_t rd = plan->next_phase();
      plan->add(rd, {DeviceOp::Target::kHdd, pa.disk, pa.page, IoKind::kRead});
      plan->add(rd + 1, {DeviceOp::Target::kHdd, pa.disk, pa.page, IoKind::kWrite});
      if (layout_.geometry().level == RaidLevel::kRaid6) {
        const DiskAddr qa = layout_.q_parity_addr(up.group);
        plan->add(rd, {DeviceOp::Target::kHdd, qa.disk, qa.page, IoKind::kRead});
        plan->add(rd + 1, {DeviceOp::Target::kHdd, qa.disk, qa.page, IoKind::kWrite});
      }
    }
  }
  return IoStatus::kOk;
}

IoStatus RaidBackend::update_parity_reconstruct_cached(
    GroupId g, std::span<const Page* const> current_data, IoPlan* plan) {
  const obs::SpanScope span(obs::Stage::kParity);
  const std::uint32_t parity = layout_.geometry().parity_disks();
  KDD_CHECK(parity > 0);
  disk_writes_ += parity;
  if (array_) {
    KDD_CHECK(current_data.size() == layout_.geometry().data_disks());
    return array_->update_parity_reconstruct(g, current_data, plan);
  }
  counter_stale_.erase(g);
  if (plan) {
    const DiskAddr pa = layout_.parity_addr(g);
    const std::size_t ph = plan->next_phase();
    plan->add(ph, {DeviceOp::Target::kHdd, pa.disk, pa.page, IoKind::kWrite});
    if (layout_.geometry().level == RaidLevel::kRaid6) {
      const DiskAddr qa = layout_.q_parity_addr(g);
      plan->add(ph, {DeviceOp::Target::kHdd, qa.disk, qa.page, IoKind::kWrite});
    }
  }
  return IoStatus::kOk;
}

bool RaidBackend::group_stale(GroupId g) const {
  return array_ ? array_->group_stale(g) : counter_stale_.contains(g);
}

std::uint64_t RaidBackend::stale_group_count() const {
  return array_ ? array_->stale_group_count() : counter_stale_.size();
}

}  // namespace kdd
