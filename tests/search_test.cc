// The branch-free search kernel (src/common/search.h): LowerBound/UpperBound
// must return exactly the offset std::lower_bound/std::upper_bound return,
// over Key and Record arrays of every size up to 600, with and without
// duplicate keys, for probes at, beside, below and above every element and at
// the ends of the key domain.

#include "common/search.h"

#include <algorithm>
#include <cstddef>
#include <vector>

#include <gtest/gtest.h>

#include "common/random.h"
#include "common/types.h"

namespace liod {
namespace {

constexpr std::size_t kMaxSize = 600;

/// `n` sorted keys. Without duplicates, neighbouring keys differ by at least
/// 3, so key-1 and key+1 of every element are absent. With duplicates, each
/// key repeats 1-4 times. The first array of each kind starts at kMinKey and
/// ends at kMaxKey so the domain ends are elements too.
std::vector<Key> SortedKeys(std::size_t n, bool duplicates, bool touch_ends, Rng* rng) {
  std::vector<Key> keys;
  keys.reserve(n);
  Key key = touch_ends ? kMinKey : 3 + rng->NextBounded(1000);
  while (keys.size() < n) {
    const std::size_t copies = duplicates ? 1 + rng->NextBounded(4) : 1;
    for (std::size_t c = 0; c < copies && keys.size() < n; ++c) keys.push_back(key);
    key += 3 + rng->NextBounded(1000);
  }
  if (touch_ends && n > 0) {
    // Raise the trailing run of equal keys to kMaxKey, keeping the order.
    const Key last = keys.back();
    for (std::size_t i = n; i-- > 0 && keys[i] == last;) keys[i] = kMaxKey;
  }
  return keys;
}

/// Every probe the contract names: each element, both its neighbours, one
/// below the first, one above the last, and both ends of the key domain.
std::vector<Key> Probes(const std::vector<Key>& keys) {
  std::vector<Key> probes = {kMinKey, kMaxKey};
  for (const Key key : keys) {
    probes.push_back(key);
    if (key > kMinKey) probes.push_back(key - 1);
    if (key < kMaxKey) probes.push_back(key + 1);
  }
  if (!keys.empty()) {
    if (keys.front() > kMinKey) probes.push_back(keys.front() - 1);
    if (keys.back() < kMaxKey) probes.push_back(keys.back() + 1);
  }
  return probes;
}

void ExpectKeyOffsetsMatch(const std::vector<Key>& keys) {
  const Key* first = keys.data();
  const Key* last = first + keys.size();
  for (const Key probe : Probes(keys)) {
    ASSERT_EQ(LowerBound(first, last, probe) - first,
              std::lower_bound(first, last, probe) - first)
        << "lower, size " << keys.size() << ", probe " << probe;
    ASSERT_EQ(UpperBound(first, last, probe) - first,
              std::upper_bound(first, last, probe) - first)
        << "upper, size " << keys.size() << ", probe " << probe;
  }
}

void ExpectRecordOffsetsMatch(const std::vector<Key>& keys) {
  std::vector<Record> records(keys.size());
  for (std::size_t i = 0; i < keys.size(); ++i) records[i] = {keys[i], i};
  const Record* first = records.data();
  const Record* last = first + records.size();
  for (const Key probe : Probes(keys)) {
    ASSERT_EQ(LowerBound(first, last, probe) - first,
              std::lower_bound(first, last, probe, RecordKeyLess()) - first)
        << "lower, size " << keys.size() << ", probe " << probe;
    ASSERT_EQ(UpperBound(first, last, probe) - first,
              std::upper_bound(first, last, probe, RecordKeyLess()) - first)
        << "upper, size " << keys.size() << ", probe " << probe;
  }
}

TEST(SearchKernel, KeyArraysMatchStdWithoutDuplicates) {
  Rng rng(1);
  for (std::size_t n = 0; n <= kMaxSize; ++n) {
    ExpectKeyOffsetsMatch(SortedKeys(n, /*duplicates=*/false, /*touch_ends=*/false, &rng));
    ExpectKeyOffsetsMatch(SortedKeys(n, /*duplicates=*/false, /*touch_ends=*/true, &rng));
  }
}

TEST(SearchKernel, KeyArraysMatchStdWithDuplicates) {
  Rng rng(2);
  for (std::size_t n = 0; n <= kMaxSize; ++n) {
    ExpectKeyOffsetsMatch(SortedKeys(n, /*duplicates=*/true, /*touch_ends=*/false, &rng));
    ExpectKeyOffsetsMatch(SortedKeys(n, /*duplicates=*/true, /*touch_ends=*/true, &rng));
  }
}

TEST(SearchKernel, RecordArraysMatchStdWithoutDuplicates) {
  Rng rng(3);
  for (std::size_t n = 0; n <= kMaxSize; ++n) {
    ExpectRecordOffsetsMatch(SortedKeys(n, /*duplicates=*/false, /*touch_ends=*/false, &rng));
    ExpectRecordOffsetsMatch(SortedKeys(n, /*duplicates=*/false, /*touch_ends=*/true, &rng));
  }
}

TEST(SearchKernel, RecordArraysMatchStdWithDuplicates) {
  Rng rng(4);
  for (std::size_t n = 0; n <= kMaxSize; ++n) {
    ExpectRecordOffsetsMatch(SortedKeys(n, /*duplicates=*/true, /*touch_ends=*/false, &rng));
    ExpectRecordOffsetsMatch(SortedKeys(n, /*duplicates=*/true, /*touch_ends=*/true, &rng));
  }
}

TEST(SearchKernel, ProjectionSearchesByTheProjectedKey) {
  // The PGM entry levels search by a member other than `key`.
  struct Entry {
    double slope;
    Key first_key;
  };
  const std::vector<Entry> entries = {{0.5, 10}, {0.1, 20}, {0.7, 20}, {0.2, 40}};
  const auto key_of = [](const Entry& e) { return e.first_key; };
  const Entry* first = entries.data();
  const Entry* last = first + entries.size();
  const auto less = [](const Entry& e, Key k) { return e.first_key < k; };
  const auto greater = [](Key k, const Entry& e) { return k < e.first_key; };
  for (const Key probe : {Key{0}, Key{10}, Key{15}, Key{20}, Key{21}, Key{40}, kMaxKey}) {
    EXPECT_EQ(LowerBound(first, last, probe, key_of) - first,
              std::lower_bound(first, last, probe, less) - first)
        << probe;
    EXPECT_EQ(UpperBound(first, last, probe, key_of) - first,
              std::upper_bound(first, last, probe, greater) - first)
        << probe;
  }
}

}  // namespace
}  // namespace liod
