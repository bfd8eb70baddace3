#include "oracle.h"

#include <algorithm>

namespace perfbench {

using liod::Key;
using liod::Payload;
using liod::Record;

Oracle::Oracle(std::span<const Key> keys, std::span<const std::uint32_t> loaded)
    : keys_(keys), payloads_(keys.size(), 0), live_(keys.size(), 0) {
  for (std::uint32_t i : loaded) Acknowledge(i, liod::PayloadFor(keys_[i]));
}

void Oracle::Acknowledge(std::size_t i, Payload payload) {
  if (live_[i] == 0) ++live_count_;
  live_[i] = 1;
  payloads_[i] = payload;
}

bool Oracle::CheckLookup(std::size_t i, const liod::kv::Response& resp) const {
  return live_[i] != 0 && resp.code == liod::Status::Code::kOk && resp.found &&
         resp.payload == payloads_[i];
}

bool Oracle::CheckScan(std::size_t i, std::size_t count, std::span<const Record> got) const {
  std::size_t matched = 0;
  for (std::size_t j = i; j < keys_.size() && matched < count; ++j) {
    if (live_[j] == 0) continue;
    if (matched >= got.size()) return false;  // short scan
    const Record& r = got[matched];
    if (matched > 0 && r.key <= got[matched - 1].key) return false;
    if (r.key != keys_[j] || r.payload != payloads_[j]) return false;
    ++matched;
  }
  return got.size() == matched;
}

std::size_t Oracle::IndexOf(Key key) const {
  const auto it = std::lower_bound(keys_.begin(), keys_.end(), key);
  return it != keys_.end() && *it == key ? static_cast<std::size_t>(it - keys_.begin())
                                         : keys_.size();
}

}  // namespace perfbench
