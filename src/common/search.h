#ifndef LIOD_COMMON_SEARCH_H_
#define LIOD_COMMON_SEARCH_H_

#include <cstddef>

#include "common/types.h"

namespace liod {

/// The search key of an element: a Key is its own key, a Record orders by its
/// key. Other element types pass their own projection to the searches below.
struct SearchKeyOf {
  Key operator()(Key key) const { return key; }
  Key operator()(const Record& record) const { return record.key; }
};

/// Branch-free binary search over [first, last), sorted by key_of. Each step
/// halves the range and picks the half with a conditional move rather than a
/// branch, so the loop runs a fixed ceil(log2(n)) steps and pays no
/// mispredictions. Without branches nothing is loaded speculatively, so each
/// step also prefetches the midpoints of both halves the next step may pick:
/// on a node that is not in cache the loads overlap instead of queuing one
/// behind each comparison. Returns exactly the pointer std::lower_bound
/// returns: the first element whose key is not below `key`.
template <typename T, typename KeyOf = SearchKeyOf>
T* LowerBound(T* first, T* last, Key key, KeyOf key_of = {}) {
  std::size_t n = static_cast<std::size_t>(last - first);
  if (n == 0) return first;
  // Invariant: the answer lies in [first, first + n].
  while (n > 1) {
    const std::size_t half = n / 2;
    const std::size_t next_half = (n - half) / 2;
    __builtin_prefetch(first + next_half);
    __builtin_prefetch(first + half + next_half);
    first = key_of(first[half]) < key ? first + half : first;
    n -= half;
  }
  return first + (key_of(*first) < key ? 1 : 0);
}

/// Same as LowerBound, but returns what std::upper_bound returns: the first
/// element whose key is above `key`.
template <typename T, typename KeyOf = SearchKeyOf>
T* UpperBound(T* first, T* last, Key key, KeyOf key_of = {}) {
  std::size_t n = static_cast<std::size_t>(last - first);
  if (n == 0) return first;
  while (n > 1) {
    const std::size_t half = n / 2;
    const std::size_t next_half = (n - half) / 2;
    __builtin_prefetch(first + next_half);
    __builtin_prefetch(first + half + next_half);
    first = key_of(first[half]) <= key ? first + half : first;
    n -= half;
  }
  return first + (key_of(*first) <= key ? 1 : 0);
}

}  // namespace liod

#endif  // LIOD_COMMON_SEARCH_H_
