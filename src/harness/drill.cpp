#include "harness/drill.hpp"

#include <algorithm>
#include <memory>
#include <unordered_map>
#include <utility>

#include "cache/nvram.hpp"
#include "common/hash.hpp"
#include "common/rng.hpp"
#include "compress/content.hpp"
#include "kdd/kdd_cache.hpp"
#include "raid/raid_array.hpp"

namespace kdd {

DrillConfig::DrillConfig() {
  geo.level = RaidLevel::kRaid5;
  geo.num_disks = 5;
  geo.chunk_pages = 4;
  geo.disk_pages = 256;
  ssd.logical_pages = 256;
  ssd.pages_per_block = 16;
  policy.ssd_pages = 256;
  policy.ways = 8;
}

/// One pass's worth of stack (mirrors the torture rig: everything but the
/// KddCache and the RebuildEngine survives a power cut).
struct ReliabilityDrillRunner::Rig {
  explicit Rig(const DrillConfig& cfg)
      : array(cfg.geo),
        ssd(cfg.ssd),
        nvram(cfg.policy.staging_buffer_bytes, cfg.policy.metadata_buffer_entries),
        spares(cfg.spares),
        engine(&array, cfg.rebuild, &spares),
        scrub(&array, cfg.scrub),
        kdd(std::make_unique<KddCache>(cfg.policy, &array, &ssd, &nvram)) {
    kdd->bind_rebuild_engine(&engine);
  }

  ~Rig() {
    // The cache dtor clears the engine hooks; make sure it runs while the
    // engine is still alive (members destroy in reverse declaration order,
    // so `kdd` — declared last — already goes first; this is documentation).
    kdd.reset();
  }

  std::uint64_t disk_ops() const {
    return array.total_disk_reads() + array.total_disk_writes();
  }

  /// End-state digest: every page of [0, working_set) read back through the
  /// cache. Unwritten pages read as zeros and still feed the digest, so a
  /// page lost to a botched rebuild cannot hide.
  std::uint64_t readback_digest(Lba working_set) {
    static const Page kZero = make_page();
    std::uint64_t h = kFnvOffset;
    Page buf = make_page();
    for (Lba lba = 0; lba < working_set; ++lba) {
      if (kdd->read(lba, buf, nullptr) != IoStatus::kOk) {
        h = fnv1a(h, {});  // keep going; the caller flags the read failure
        ++failed_reads;
        continue;
      }
      const auto it = model.find(lba);
      if (buf != (it == model.end() ? kZero : it->second)) {
        end_mismatches.push_back(lba);
      }
      h = fnv1a(h, buf);
    }
    return h;
  }

  RaidArray array;
  SsdModel ssd;
  NvramState nvram;
  SparePool spares;
  RebuildEngine engine;
  ScrubScheduler scrub;
  std::unique_ptr<KddCache> kdd;

  std::unordered_map<Lba, Page> model;
  std::shared_ptr<PowerRail> rail;
  std::uint64_t failed_reads = 0;
  std::vector<Lba> end_mismatches;
  std::vector<std::uint64_t> request_costs;
};

ReliabilityDrillRunner::ReliabilityDrillRunner(DrillConfig config)
    : config_(std::move(config)) {}

DrillReport ReliabilityDrillRunner::run(std::uint64_t seed) {
  DrillReport rep;
  rep.seed = seed;

  const std::uint64_t total_groups = config_.geo.num_groups();
  const std::uint64_t cut_threshold = total_groups * 3 / 10;

  // The two passes replay the identical seeded request stream; the faulted
  // pass additionally fails disks, rebuilds, scrubs and (optionally) tears
  // power. `faulted` toggles those.
  const auto run_pass = [&](Rig& rig, bool faulted) -> std::uint64_t {
    static const Page kZeroPage = make_page();
    const ContentGenerator gen(seed * 0x2545f4914f6cdd1dull + 7);
    Rng rng(seed);
    std::size_t next_fail = 0;
    bool cut_pending = faulted && config_.power_cut_mid_rebuild;

    if (faulted) {
      rig.rail = std::make_shared<PowerRail>();
      rig.array.attach_rail(rig.rail);
      rig.kdd->cache_ssd().faults()->attach_rail(rig.rail);
    }

    for (int i = 0; i < config_.requests; ++i) {
      if (faulted && next_fail < config_.fail_points.size() &&
          static_cast<double>(i) >=
              config_.fail_points[next_fail].fraction *
                  static_cast<double>(config_.requests)) {
        // Rolling replacement: an operator never pulls the next disk while a
        // rebuild is still running — drain it first.
        int stalls = 0;
        while (rig.engine.rebuild_active() && stalls < 4096) {
          if (rig.engine.pump(nullptr, /*urgent=*/true) == 0) ++stalls;
        }
        rep.stale_rebuild_folds += rig.array.rebuild_stale_folds();
        if (!rig.kdd->handle_disk_failure_online(
                config_.fail_points[next_fail].disk)) {
          rep.violations.push_back("online rebuild failed to start (no spare?)");
        } else {
          ++rep.rebuilds_started;
        }
        ++next_fail;
      }

      const std::uint64_t ops_before = rig.disk_ops();
      const Lba lba = rng.next_below(config_.working_set);
      if (rng.next_bool(config_.write_prob)) {
        const auto it = rig.model.find(lba);
        const Page data = it == rig.model.end()
                              ? gen.base_page(lba)
                              : gen.mutate(it->second, config_.content_locality, rng);
        if (rig.kdd->write(lba, data, nullptr) == IoStatus::kOk) {
          rig.model[lba] = data;
        } else {
          const GroupId g = rig.array.layout().group_of(lba);
          rep.violations.push_back(
              "write failed at lba " + std::to_string(lba) + " (req " +
              std::to_string(i) + ", group " + std::to_string(g) + ", down=" +
              std::to_string(rig.array.page_down(lba)) + ", stale=" +
              std::to_string(rig.array.group_stale(g)) + ", cursor=" +
              std::to_string(rig.array.rebuild_cursor()) + ", cache_stale=" +
              std::to_string(rig.kdd->stale_groups()) + ", old=" +
              std::to_string(rig.kdd->old_pages()) + ", cut_fired=" +
              std::to_string(rep.power_cut_fired) + ")");
        }
      } else {
        Page buf = make_page();
        if (rig.kdd->read(lba, buf, nullptr) == IoStatus::kOk) {
          const auto it = rig.model.find(lba);
          const Page& expect = it == rig.model.end() ? kZeroPage : it->second;
          if (buf != expect) {
            rep.violations.push_back("read returned wrong data at lba " +
                                     std::to_string(lba));
          }
        } else {
          rep.violations.push_back("read failed at lba " + std::to_string(lba));
        }
      }
      rig.request_costs.push_back(rig.disk_ops() - ops_before);
      if (faulted) ++rep.requests_completed;

      // Background scrub ticks on the same foreground clock.
      rig.scrub.note_foreground();
      rig.scrub.tick();

      if (cut_pending && rig.nvram.rebuild_active &&
          rig.nvram.rebuild_cursor >= cut_threshold) {
        // Power cut mid-rebuild, between requests: DRAM (cache + in-core
        // rebuild cursor) dies; NVRAM and the half-rebuilt media survive.
        cut_pending = false;
        rep.power_cut_fired = true;
        rig.rail->cut();
        rig.rail->restore();
        const std::uint32_t disk = rig.nvram.rebuild_disk;
        const GroupId cursor = rig.nvram.rebuild_cursor;
        rig.kdd.reset();  // hooks cleared while the engine is still alive
        rig.array.rebuild_abandon();
        RebuildCheckpoint cp;
        cp.disk = disk;
        cp.cursor = cursor;
        cp.active = true;
        rig.engine.resume(cp);  // BEFORE the recovering cache: the un-rebuilt
                                // region must read as down, not as garbage
        if (rig.array.rebuild_cursor() != cursor) {
          rep.violations.push_back("resume lost checkpointed rebuild progress");
        }
        rep.checkpoint_resumed = true;
        rig.kdd = std::make_unique<KddCache>(config_.policy, &rig.array,
                                             &rig.ssd, &rig.nvram,
                                             /*recover=*/true);
        rig.kdd->cache_ssd().faults()->attach_rail(rig.rail);
        rig.kdd->bind_rebuild_engine(&rig.engine);
      }
    }

    // Drain: finish any in-flight rebuild with urgent pumps, then flush.
    int stalls = 0;
    while (rig.engine.rebuild_active() && stalls < 4096) {
      if (rig.engine.pump(nullptr, /*urgent=*/true) == 0) ++stalls;
    }
    rep.stale_rebuild_folds += rig.array.rebuild_stale_folds();
    rig.kdd->flush(nullptr);
    return rig.readback_digest(config_.working_set);
  };

  const auto p99 = [](std::vector<std::uint64_t>& costs) -> std::uint64_t {
    if (costs.empty()) return 0;
    std::sort(costs.begin(), costs.end());
    return costs[std::min(costs.size() - 1, (costs.size() * 99) / 100)];
  };

  {
    Rig healthy(config_);
    rep.healthy_digest = run_pass(healthy, /*faulted=*/false);
    rep.healthy_p99_ops = p99(healthy.request_costs);
    if (healthy.failed_reads != 0) {
      rep.violations.push_back("healthy pass had failed readback reads");
    }
  }
  {
    Rig faulted(config_);
    rep.faulted_digest = run_pass(faulted, /*faulted=*/true);
    rep.faulted_p99_ops = p99(faulted.request_costs);
    rep.rebuilds_completed = faulted.engine.rebuilds_completed();
    rep.degraded_reads = faulted.array.degraded_reads();
    rep.degraded_cache_hits = faulted.kdd->degraded_cache_hits();
    rep.degraded_delta_folds = faulted.kdd->degraded_delta_folds();
    rep.barrier_deferrals = faulted.engine.barrier_deferrals();
    rep.requests_while_degraded =
        faulted.engine.dwell_ops(ArrayHealth::kDegraded) +
        faulted.engine.dwell_ops(ArrayHealth::kRebuilding);
    rep.scrub_groups = faulted.scrub.groups_scrubbed();
    rep.scrub_repairs = faulted.scrub.repairs();
    rep.scrub_passes = faulted.scrub.passes();

    if (faulted.failed_reads != 0) {
      rep.violations.push_back("faulted pass had failed readback reads");
    }
    for (std::size_t m = 0; m < faulted.end_mismatches.size() && m < 4; ++m) {
      const Lba lba = faulted.end_mismatches[m];
      rep.violations.push_back(
          "end-state page differs from model at lba " + std::to_string(lba) +
          " (group " +
          std::to_string(faulted.array.layout().group_of(lba)) + ")");
    }
    if (faulted.engine.rebuild_active() || faulted.array.degraded()) {
      rep.violations.push_back("array still degraded at end of drill");
    }
    if (rep.rebuilds_completed != rep.rebuilds_started) {
      rep.violations.push_back("not every started rebuild completed");
    }
    if (rep.stale_rebuild_folds != 0) {
      rep.violations.push_back(
          "rebuild reconstructed groups from stale parity");
    }
    if (!faulted.array.scrub().empty()) {
      rep.violations.push_back("final parity scrub found inconsistent groups");
    }
  }
  if (rep.healthy_digest != rep.faulted_digest) {
    rep.violations.push_back(
        "end-state digest diverged between healthy and faulted runs");
  }
  return rep;
}

}  // namespace kdd
