#include "storage/disk_model.h"

namespace liod {

DiskModel DiskModel::Hdd() { return DiskModel{"hdd", 8000.0, 8500.0}; }

DiskModel DiskModel::Ssd() { return DiskModel{"ssd", 100.0, 120.0}; }

DiskModel DiskModel::None() { return DiskModel{"none", 0.0, 0.0}; }

double DiskModel::IoMicros(const IoStatsSnapshot& io) const {
  return static_cast<double>(io.TotalReads()) * read_latency_us +
         static_cast<double>(io.TotalWrites()) * write_latency_us;
}

}  // namespace liod
