#ifndef LIOD_BENCH_WRITE_RUNS_H_
#define LIOD_BENCH_WRITE_RUNS_H_

// Shared execution of the four write-containing workloads (Section 5.2)
// used by Figures 5, 6, 9, 10, and 12.

#include <map>

#include "bench_common.h"

namespace liod::bench {

inline const std::vector<WorkloadType>& WriteWorkloads() {
  static const std::vector<WorkloadType>* types = new std::vector<WorkloadType>{
      WorkloadType::kWriteOnly, WorkloadType::kReadHeavy, WorkloadType::kWriteHeavy,
      WorkloadType::kBalanced};
  return *types;
}

/// The write workload of `type` on `dataset`; dataset keys are drawn once
/// (bulk sample + disjoint insert pool, Section 5.2).
inline Workload WriteWorkload(const std::string& dataset, WorkloadType type,
                              const BenchArgs& args) {
  const auto keys = MakeDataset(dataset, args.write_bulk + args.write_ops, args.seed);
  WorkloadSpec spec;
  spec.type = type;
  spec.bulk_keys = args.write_bulk;
  spec.operations = args.write_ops;
  spec.seed = args.seed + 3;
  return BuildWorkload(keys, spec);
}

/// Runs one write-containing workload for one index on one dataset.
inline RunResult RunWrite(const std::string& index_name, const std::string& dataset,
                          WorkloadType type, const BenchArgs& args,
                          const IndexOptions& options, const RunnerConfig& config = {}) {
  return MustRun(index_name, options, WriteWorkload(dataset, type, args), config);
}

}  // namespace liod::bench

#endif  // LIOD_BENCH_WRITE_RUNS_H_
