#ifndef PERFBENCH_ORACLE_H_
#define PERFBENCH_ORACLE_H_

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "common/types.h"
#include "kv/request.h"

namespace perfbench {

/// Shadow of every record a workload can hold: a sorted key universe, a live
/// flag per key, and the last acknowledged payload of each live key. Keys are
/// addressed by their position in the universe, which is how the tapes name
/// them. Bulkloaded keys start live with the paper's payload (key + 1).
class Oracle {
 public:
  /// `keys` is sorted by strictly increasing key and must outlive the
  /// oracle; `loaded` lists the positions of the bulkloaded keys.
  Oracle(std::span<const liod::Key> keys, std::span<const std::uint32_t> loaded);

  std::size_t size() const { return keys_.size(); }
  liod::Key key(std::size_t i) const { return keys_[i]; }
  std::size_t live_count() const { return live_count_; }

  /// Records an acknowledged upsert of keys_[i].
  void Acknowledge(std::size_t i, liod::Payload payload);

  /// True when `resp` answers a lookup of keys_[i]: kOk, found, and the last
  /// acknowledged payload (every tape looks up live keys only).
  bool CheckLookup(std::size_t i, const liod::kv::Response& resp) const;

  /// True when `got` answers a scan of `count` records from keys_[i]: the
  /// next min(count, live records at or after i) live records in key order,
  /// with strictly increasing keys and their last acknowledged payloads.
  bool CheckScan(std::size_t i, std::size_t count, std::span<const liod::Record> got) const;

  /// Position of `key` in the universe (size() when absent).
  std::size_t IndexOf(liod::Key key) const;

 private:
  std::span<const liod::Key> keys_;
  std::vector<liod::Payload> payloads_;
  std::vector<std::uint8_t> live_;
  std::size_t live_count_ = 0;
};

}  // namespace perfbench

#endif  // PERFBENCH_ORACLE_H_
