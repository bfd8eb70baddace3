#ifndef PERFBENCH_NAMES_H_
#define PERFBENCH_NAMES_H_

#include <array>
#include <string_view>

namespace perfbench {

/// The benchmark's vocabulary. BENCHMARK.json lists the same metric names, and
/// the runner (run.py) refuses a result whose metric set differs from it.
/// BENCHMARK.json gates the first two workloads; the device-bound two run by
/// hand (README.md says why).
inline constexpr std::array<std::string_view, 4> kWorkloadNames = {
    "warm-read-pgm", "cached-ycsb-b-btree", "cold-read-pgm", "durable-write-btree"};

struct MetricSpec {
  std::string_view name;
  std::string_view unit;
};

/// Untraced run (--trace 0), every workload.
inline constexpr std::array<MetricSpec, 9> kEndToEndMetrics = {{
    {"setup_s", "s"},
    {"ops_per_s", "1/s"},
    {"lookup_p50_us", "us"},
    {"lookup_p90_us", "us"},
    {"write_or_scan_p50_us", "us"},
    {"write_or_scan_p90_us", "us"},
    {"block_accesses_per_op", "blocks/op"},
    {"space_amp", "ratio"},
    {"max_rss_mb", "MiB"},
}};

/// Traced run (--trace 1), every workload (0 where a layer does no work).
inline constexpr std::array<MetricSpec, 35> kPerLayerMetrics = {{
    {"workload.dataset_s", "s"},
    {"workload.tape_s", "s"},
    {"engine.bulkload_s", "s"},
    {"engine.warmup_s", "s"},
    {"engine.window_flush_s", "s"},
    {"engine.dispatch_us", "us"},
    {"core.lookup_us", "us"},
    {"core.write_us", "us"},
    {"core.inner_visits_per_lookup", "count"},
    {"core.leaf_visits_per_lookup", "count"},
    {"core.height", "count"},
    {"core.smo_per_kop", "count"},
    {"storage.hit_rate.inner", "ratio"},
    {"storage.hit_rate.leaf", "ratio"},
    {"storage.reads_per_op.inner", "blocks/op"},
    {"storage.reads_per_op.leaf", "blocks/op"},
    {"storage.evictions_per_op", "count"},
    {"storage.hits_per_op", "count"},
    {"storage.hit_ns", "ns"},
    {"storage.device_share", "ratio"},
    {"storage.device_io_share", "ratio"},
    {"storage.device_submissions_per_op", "count"},
    {"storage.coalesced_blocks_per_op", "blocks/op"},
    {"storage.writes_per_op.leaf", "blocks/op"},
    {"storage.writes_per_op.inner", "blocks/op"},
    {"storage.writes_per_op.wal", "blocks/op"},
    {"storage.writebacks_per_op", "blocks/op"},
    {"updates.stage_us", "us"},
    {"updates.merges_per_kop", "count"},
    {"updates.merge_ms", "ms"},
    {"updates.spills_per_kop", "count"},
    {"recovery.forces_per_write", "count"},
    {"recovery.force_us", "us"},
    {"recovery.checkpoints_per_kop", "count"},
    {"telemetry.trace_overhead", "ratio"},
}};

}  // namespace perfbench

#endif  // PERFBENCH_NAMES_H_
