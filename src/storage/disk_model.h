#ifndef LIOD_STORAGE_DISK_MODEL_H_
#define LIOD_STORAGE_DISK_MODEL_H_

#include <string>

#include "storage/io_stats.h"

namespace liod {

/// Latency cost model that converts exact block counts into modeled time.
///
/// The paper ran on a physical 1TB HDD and 8TB SSDs; this library counts
/// every block transfer exactly and charges it against a per-device latency.
/// Runs turn it into throughput as ops / modeled makespan
/// (RunResult::ThroughputOps in engine/runner.h). Because every
/// observation in the paper reduces to fetched/written block counts
/// (Table 2, Table 4, Figure 4), the relative shapes are preserved; see
/// DESIGN.md "Substitutions".
struct DiskModel {
  std::string name;
  double read_latency_us = 0.0;
  double write_latency_us = 0.0;

  /// Commodity 7.2k-rpm HDD: ~8 ms per random 4 KB transfer (seek+rotation).
  static DiskModel Hdd();
  /// SATA/NVMe SSD: ~0.1 ms per random 4 KB read, slightly costlier write.
  static DiskModel Ssd();
  /// Zero-cost device (CPU-only measurements).
  static DiskModel None();

  /// Modeled I/O time for a counted snapshot, in microseconds.
  double IoMicros(const IoStatsSnapshot& io) const;
};

}  // namespace liod

#endif  // LIOD_STORAGE_DISK_MODEL_H_
