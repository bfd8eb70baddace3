#ifndef LIOD_PGM_STATIC_PGM_H_
#define LIOD_PGM_STATIC_PGM_H_

#include <cstdint>
#include <span>
#include <vector>

#include "common/status.h"
#include "common/types.h"
#include "storage/io_stats.h"
#include "storage/paged_file.h"

namespace liod {

/// One immutable PGM index (Ferragina & Vinciguerra 2020) on disk.
///
/// Layout:
///  * Leaf file: the sorted record array, one contiguous run.
///  * Inner file: one contiguous run per recursive level of 24-byte segment
///    entries {first_key, slope, intercept}, built by the optimal streaming
///    PLA. Level 0 predicts record positions; level i predicts entry indices
///    of level i-1. The root entry lives in memory (the paper keeps meta
///    memory-resident), so a lookup reads ~1 window per level plus the data
///    window -- matching Table 2's log(N/B) bound.
///
/// Instances are the building block of the dynamic (LSM) PGM; they are
/// created by Build() and never modified.
class StaticPgm {
 public:
  /// Files must outlive the index. `epsilon` bounds data-level prediction
  /// error, `epsilon_inner` bounds the recursive levels.
  StaticPgm(PagedFile* inner_file, PagedFile* leaf_file, IoStats* stats,
            std::uint32_t epsilon, std::uint32_t epsilon_inner);

  /// Builds from records sorted by strictly increasing key. Callable once.
  Status Build(std::span<const Record> records);

  Status Lookup(Key key, Payload* payload, bool* found);

  /// Position of the first record with key >= `key` (== num_records() when
  /// every key is smaller).
  Status LowerBound(Key key, std::uint64_t* pos);

  /// Reads up to `count` records starting at position `pos` (sequential I/O).
  Status ReadRecords(std::uint64_t pos, std::size_t count, std::vector<Record>* out);

  std::uint64_t num_records() const { return num_records_; }
  std::size_t num_levels() const { return levels_.size(); }  // excludes root
  std::uint64_t segment_count() const;
  Key min_key() const { return min_key_; }
  Key max_key() const { return max_key_; }

 private:
  /// On-disk segment entry. The model predicts positions in the level below
  /// (global child index) directly from the key.
  struct Entry {
    Key first_key;
    double slope;
    double intercept;  // predicted child position at key == first_key

    double Predict(Key key) const {
      return slope * (static_cast<double>(key) - static_cast<double>(first_key)) +
             intercept;
    }
  };
  static_assert(sizeof(Entry) == 24);

  struct LevelMeta {
    BlockId start_block = kInvalidBlock;
    std::uint64_t count = 0;
  };

  /// Reads entries [lo, hi) of level `level` into out[0, hi - lo).
  Status ReadEntryWindow(std::size_t level, std::uint64_t lo, std::uint64_t hi, Entry* out);

  /// Reads records [lo, hi) of the data run into out[0, hi - lo).
  Status ReadRecordWindow(std::uint64_t lo, std::uint64_t hi, Record* out);

  /// Descends to the data level and returns the floor window search result:
  /// the data position window [lo, hi) that must contain `key` if present.
  Status PredictDataWindow(Key key, std::uint64_t* lo, std::uint64_t* hi);

  PagedFile* inner_file_;
  PagedFile* leaf_file_;
  IoStats* stats_;
  std::uint32_t epsilon_;
  std::uint32_t epsilon_inner_;

  // Memory-resident meta.
  std::vector<LevelMeta> levels_;  // levels_[0] = data-predicting entries
  Entry root_{};                   // predicts positions in the top level
  std::uint64_t root_child_count_ = 0;  // count of the top stored level
  bool root_predicts_data_ = false;     // true when there are no entry levels
  BlockId data_start_ = kInvalidBlock;
  std::uint64_t num_records_ = 0;
  Key min_key_ = kMaxKey;
  Key max_key_ = kMinKey;
  bool built_ = false;
};

}  // namespace liod

#endif  // LIOD_PGM_STATIC_PGM_H_
