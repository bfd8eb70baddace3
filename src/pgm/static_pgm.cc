#include "pgm/static_pgm.h"

#include <algorithm>
#include <cstring>

#include "common/search.h"
#include "pgm/window_buffer.h"
#include "segmentation/piecewise_linear.h"

namespace liod {

namespace {
/// Inline capacity of a search window, in elements. A window spans
/// 2*(eps+2)+1 positions, so this keeps every window up to eps = 125 off the
/// heap: the defaults (eps 64 data, 16 inner) need 133 and 37.
constexpr std::size_t kInlineWindow = 256;

/// Writes `bytes` from `data` over the run starting at block `start`, the last
/// block zero-padded. Full blocks go straight from `data`, so a bulkload never
/// holds a second copy of its records.
Status WritePaddedRun(PagedFile* file, BlockId start, const void* data, std::uint64_t bytes) {
  const std::uint64_t bs = file->block_size();
  const std::uint64_t base = static_cast<std::uint64_t>(start) * bs;
  const std::uint64_t full = bytes / bs * bs;
  const auto* src = static_cast<const std::byte*>(data);
  if (full > 0) LIOD_RETURN_IF_ERROR(file->WriteBytes(base, full, src));
  if (full == bytes) return Status::Ok();
  std::vector<std::byte> tail(bs, std::byte{0});
  std::memcpy(tail.data(), src + full, bytes - full);
  return file->WriteBytes(base + full, bs, tail.data());
}
}  // namespace

StaticPgm::StaticPgm(PagedFile* inner_file, PagedFile* leaf_file, IoStats* stats,
                     std::uint32_t epsilon, std::uint32_t epsilon_inner)
    : inner_file_(inner_file),
      leaf_file_(leaf_file),
      stats_(stats),
      epsilon_(epsilon),
      epsilon_inner_(epsilon_inner) {}

std::uint64_t StaticPgm::segment_count() const {
  std::uint64_t total = 0;
  for (const auto& level : levels_) total += level.count;
  return total;
}

Status StaticPgm::Build(std::span<const Record> records) {
  if (built_) return Status::FailedPrecondition("StaticPgm::Build called twice");
  built_ = true;
  num_records_ = records.size();
  if (records.empty()) return Status::Ok();
  min_key_ = records.front().key;
  max_key_ = records.back().key;
  const std::size_t bs = leaf_file_->block_size();

  // --- data run -----------------------------------------------------------
  const std::uint64_t data_bytes = records.size() * sizeof(Record);
  const std::uint32_t data_blocks =
      static_cast<std::uint32_t>((data_bytes + bs - 1) / bs);
  data_start_ = leaf_file_->AllocateRun(data_blocks);
  LIOD_RETURN_IF_ERROR(WritePaddedRun(leaf_file_, data_start_, records.data(), data_bytes));

  // --- recursive entry levels ---------------------------------------------
  PlaBuilder data_pla(epsilon_);
  for (const Record& record : records) data_pla.Add(record.key);
  std::vector<Entry> entries;
  for (const auto& seg : data_pla.Finish()) {
    entries.push_back(Entry{seg.first_key, seg.slope, seg.intercept});
  }
  while (entries.size() > 1) {
    // Persist this level.
    LevelMeta meta;
    meta.count = entries.size();
    const std::uint64_t bytes = entries.size() * sizeof(Entry);
    const std::uint32_t blocks = static_cast<std::uint32_t>((bytes + bs - 1) / bs);
    meta.start_block = inner_file_->AllocateRun(blocks);
    LIOD_RETURN_IF_ERROR(WritePaddedRun(inner_file_, meta.start_block, entries.data(), bytes));
    levels_.push_back(meta);

    // Build the level above over this level's first keys.
    PlaBuilder level_pla(epsilon_inner_);
    for (const Entry& entry : entries) level_pla.Add(entry.first_key);
    std::vector<Entry> parents;
    for (const auto& seg : level_pla.Finish()) {
      parents.push_back(Entry{seg.first_key, seg.slope, seg.intercept});
    }
    entries = std::move(parents);
  }
  root_ = entries.front();
  if (levels_.empty()) {
    root_predicts_data_ = true;
    root_child_count_ = records.size();
  } else {
    root_predicts_data_ = false;
    root_child_count_ = levels_.back().count;
  }
  return Status::Ok();
}

Status StaticPgm::ReadEntryWindow(std::size_t level, std::uint64_t lo, std::uint64_t hi,
                                  Entry* out) {
  const std::uint64_t off =
      static_cast<std::uint64_t>(levels_[level].start_block) * inner_file_->block_size() +
      lo * sizeof(Entry);
  return inner_file_->ReadBytes(off, (hi - lo) * sizeof(Entry),
                                reinterpret_cast<std::byte*>(out));
}

Status StaticPgm::ReadRecordWindow(std::uint64_t lo, std::uint64_t hi, Record* out) {
  const std::uint64_t off =
      static_cast<std::uint64_t>(data_start_) * leaf_file_->block_size() +
      lo * sizeof(Record);
  return leaf_file_->ReadBytes(off, (hi - lo) * sizeof(Record),
                               reinterpret_cast<std::byte*>(out));
}

Status StaticPgm::PredictDataWindow(Key key, std::uint64_t* lo, std::uint64_t* hi) {
  Entry current = root_;
  // Predicted start of the segment after `current` in its child level;
  // caps predictions so extrapolation past a segment's end cannot escape
  // its true range (the original PGM applies the same clamp).
  double next_start = static_cast<double>(root_predicts_data_
                                              ? num_records_
                                              : root_child_count_);
  WindowBuffer<Entry, kInlineWindow> window;
  for (std::size_t i = levels_.size(); i-- > 0;) {
    const std::uint64_t child_count = levels_[i].count;
    const std::int64_t slack = static_cast<std::int64_t>(epsilon_inner_) + 2;
    const std::int64_t upper = std::min<std::int64_t>(
        static_cast<std::int64_t>(child_count),
        static_cast<std::int64_t>(next_start) + slack);
    const double raw = current.Predict(key);
    std::int64_t pred = raw <= 0.0 ? 0 : static_cast<std::int64_t>(raw);
    pred = std::max<std::int64_t>(0, std::min<std::int64_t>(pred, upper - 1));
    std::uint64_t wlo = static_cast<std::uint64_t>(std::max<std::int64_t>(0, pred - slack));
    std::uint64_t whi = std::min<std::uint64_t>(
        child_count, static_cast<std::uint64_t>(pred + slack + 1));

    LIOD_RETURN_IF_ERROR(ReadEntryWindow(i, wlo, whi, window.Assign(whi - wlo)));
    if (stats_ != nullptr) stats_->CountInnerNodeVisit();
    // Extend left until the window contains a floor candidate.
    while (wlo > 0 && (window.empty() || window.front().first_key > key)) {
      const std::uint64_t new_lo =
          wlo > static_cast<std::uint64_t>(slack) ? wlo - slack : 0;
      LIOD_RETURN_IF_ERROR(ReadEntryWindow(i, new_lo, wlo, window.GrowFront(wlo - new_lo)));
      wlo = new_lo;
    }
    // Extend right while the floor may lie past the window.
    while (whi < child_count && !window.empty() && window.back().first_key <= key) {
      const std::uint64_t new_hi =
          std::min<std::uint64_t>(child_count, whi + static_cast<std::uint64_t>(slack));
      LIOD_RETURN_IF_ERROR(ReadEntryWindow(i, whi, new_hi, window.GrowBack(new_hi - whi)));
      whi = new_hi;
    }
    // Floor entry: last with first_key <= key (clamped to the first entry).
    const Entry* above = UpperBound(window.begin(), window.end(), key,
                                    [](const Entry& e) { return e.first_key; });
    const std::size_t idx =
        above == window.begin() ? 0 : static_cast<std::size_t>(above - window.begin()) - 1;
    current = window[idx];
    if (idx + 1 < window.size()) {
      next_start = window[idx + 1].intercept;
    } else {
      // The floor ends the window: either it ends the level or its
      // successor's start is unread. Both cap at the child level's size.
      next_start = static_cast<double>(i == 0 ? num_records_ : levels_[i - 1].count);
    }
  }

  const std::int64_t slack = static_cast<std::int64_t>(epsilon_) + 2;
  const std::int64_t upper =
      std::min<std::int64_t>(static_cast<std::int64_t>(num_records_),
                             static_cast<std::int64_t>(next_start) + slack);
  const double raw = current.Predict(key);
  std::int64_t pred = raw <= 0.0 ? 0 : static_cast<std::int64_t>(raw);
  pred = std::max<std::int64_t>(0, std::min<std::int64_t>(pred, upper - 1));
  *lo = static_cast<std::uint64_t>(std::max<std::int64_t>(0, pred - slack));
  *hi = std::min<std::uint64_t>(num_records_,
                                static_cast<std::uint64_t>(pred + slack + 1));
  return Status::Ok();
}

Status StaticPgm::Lookup(Key key, Payload* payload, bool* found) {
  *found = false;
  if (num_records_ == 0 || key < min_key_ || key > max_key_) return Status::Ok();
  std::uint64_t lo, hi;
  LIOD_RETURN_IF_ERROR(PredictDataWindow(key, &lo, &hi));
  WindowBuffer<Record, kInlineWindow> window;
  LIOD_RETURN_IF_ERROR(ReadRecordWindow(lo, hi, window.Assign(hi - lo)));
  if (stats_ != nullptr) stats_->CountLeafNodeVisit();
  const auto it = liod::LowerBound(window.begin(), window.end(), key);
  if (it != window.end() && it->key == key) {
    *payload = it->payload;
    *found = true;
  }
  return Status::Ok();
}

Status StaticPgm::LowerBound(Key key, std::uint64_t* pos) {
  if (num_records_ == 0 || key <= min_key_) {
    *pos = 0;
    return Status::Ok();
  }
  if (key > max_key_) {
    *pos = num_records_;
    return Status::Ok();
  }
  std::uint64_t lo, hi;
  LIOD_RETURN_IF_ERROR(PredictDataWindow(key, &lo, &hi));
  WindowBuffer<Record, kInlineWindow> window;
  LIOD_RETURN_IF_ERROR(ReadRecordWindow(lo, hi, window.Assign(hi - lo)));
  if (stats_ != nullptr) stats_->CountLeafNodeVisit();
  const std::uint64_t step = static_cast<std::uint64_t>(epsilon_) + 2;
  // Extend left while the entire window is >= key (true lower_bound may be
  // earlier; happens only for keys extrapolated between segments).
  while (lo > 0 && (window.empty() || window.front().key >= key)) {
    const std::uint64_t new_lo = lo > step ? lo - step : 0;
    LIOD_RETURN_IF_ERROR(ReadRecordWindow(new_lo, lo, window.GrowFront(lo - new_lo)));
    lo = new_lo;
  }
  // Extend right while the entire window is < key.
  while (hi < num_records_ && (window.empty() || window.back().key < key)) {
    const std::uint64_t new_hi = std::min<std::uint64_t>(num_records_, hi + step);
    LIOD_RETURN_IF_ERROR(ReadRecordWindow(hi, new_hi, window.GrowBack(new_hi - hi)));
    hi = new_hi;
  }
  const auto it = liod::LowerBound(window.begin(), window.end(), key);
  *pos = lo + static_cast<std::uint64_t>(it - window.begin());
  return Status::Ok();
}

Status StaticPgm::ReadRecords(std::uint64_t pos, std::size_t count,
                              std::vector<Record>* out) {
  out->clear();
  if (pos >= num_records_) return Status::Ok();
  const std::size_t take = static_cast<std::size_t>(
      std::min<std::uint64_t>(count, num_records_ - pos));
  out->resize(take);
  return ReadRecordWindow(pos, pos + take, out->data());
}

}  // namespace liod
