#include "pgm/dynamic_pgm_index.h"

#include <algorithm>
#include <cstring>

#include "common/search.h"
#include "pgm/window_buffer.h"

namespace liod {

namespace {
// The insert buffer stores bare records; its live count is memory-resident
// meta state (the paper keeps the meta block in memory while in use).
constexpr std::size_t kBufferRecordsOffset = 0;

/// K-way merge with newest-wins duplicate resolution. `sources` are sorted
/// runs ordered newest first. Returns the number of shadowed (dropped)
/// duplicates.
std::uint64_t MergeNewestWins(const std::vector<std::vector<Record>>& sources,
                              std::vector<Record>* out) {
  out->clear();
  std::vector<std::size_t> cursor(sources.size(), 0);
  std::uint64_t dropped = 0;
  for (;;) {
    std::size_t best = sources.size();
    Key best_key = kMaxKey;
    for (std::size_t s = 0; s < sources.size(); ++s) {
      if (cursor[s] >= sources[s].size()) continue;
      const Key k = sources[s][cursor[s]].key;
      if (best == sources.size() || k < best_key) {
        best = s;
        best_key = k;
      }
    }
    if (best == sources.size()) break;
    out->push_back(sources[best][cursor[best]]);
    ++cursor[best];
    // Skip shadowed duplicates in older sources.
    for (std::size_t s = 0; s < sources.size(); ++s) {
      while (cursor[s] < sources[s].size() && sources[s][cursor[s]].key == best_key) {
        ++cursor[s];
        ++dropped;
      }
    }
  }
  return dropped;
}
}  // namespace

DynamicPgmIndex::DynamicPgmIndex(const IndexOptions& options)
    : DiskIndex(options), buffer_file_(MakeFile(FileClass::kOther)) {
  buffer_capacity_ = options_.pgm_insert_buffer_records;
  const std::size_t bs = options_.block_size;
  const std::uint64_t bytes =
      kBufferRecordsOffset + static_cast<std::uint64_t>(buffer_capacity_) * sizeof(Record);
  buffer_start_ = buffer_file_->AllocateRun(
      static_cast<std::uint32_t>((bytes + bs - 1) / bs));
}

DynamicPgmIndex::~DynamicPgmIndex() = default;

std::uint64_t DynamicPgmIndex::LevelCapacity(std::size_t slot) const {
  return static_cast<std::uint64_t>(buffer_capacity_) << (slot + 1);
}

std::size_t DynamicPgmIndex::live_level_count() const {
  std::size_t live = 0;
  for (const auto& level : levels_) {
    if (level.pgm != nullptr) ++live;
  }
  return live;
}

Status DynamicPgmIndex::BuildLevel(std::size_t slot, std::span<const Record> records) {
  if (levels_.size() <= slot) levels_.resize(slot + 1);
  Level& level = levels_[slot];
  level.inner_file = MakeFile(FileClass::kInner);
  level.leaf_file = MakeFile(FileClass::kLeaf);
  level.pgm = std::make_unique<StaticPgm>(level.inner_file.get(), level.leaf_file.get(),
                                          &io_stats_, options_.pgm_error_bound,
                                          options_.pgm_inner_error_bound);
  return level.pgm->Build(records);
}

void DynamicPgmIndex::DropLevel(std::size_t slot) {
  Level& level = levels_[slot];
  if (level.pgm == nullptr) return;
  // The merged level's files are deleted from disk (Section 6.3).
  RemoveFile(level.inner_file.get());
  RemoveFile(level.leaf_file.get());
  level.pgm.reset();
  level.inner_file.reset();
  level.leaf_file.reset();
}

Status DynamicPgmIndex::Bulkload(std::span<const Record> records) {
  LIOD_RETURN_IF_ERROR(CheckBulkloadInput(records));
  if (bulkloaded_) return Status::FailedPrecondition("Bulkload called twice");
  bulkloaded_ = true;
  if (records.empty()) return Status::Ok();

  std::size_t slot = 0;
  while (LevelCapacity(slot) < records.size()) ++slot;
  LIOD_RETURN_IF_ERROR(BuildLevel(slot, records));
  num_records_ = records.size();
  return Status::Ok();
}

Status DynamicPgmIndex::ReadBuffer(std::vector<Record>* out) {
  out->resize(buffer_count_);
  if (buffer_count_ == 0) return Status::Ok();
  const std::uint64_t off =
      static_cast<std::uint64_t>(buffer_start_) * options_.block_size +
      kBufferRecordsOffset;
  return buffer_file_->ReadBytes(off, buffer_count_ * sizeof(Record),
                                 reinterpret_cast<std::byte*>(out->data()));
}

Status DynamicPgmIndex::BufferFind(Key key, std::size_t* pos, bool* exists,
                                   Payload* payload) {
  *exists = false;
  *pos = buffer_count_;
  if (buffer_count_ == 0) {
    *pos = 0;
    return Status::Ok();
  }
  const std::size_t rpb = options_.block_size / sizeof(Record);
  const std::uint64_t base =
      static_cast<std::uint64_t>(buffer_start_) * options_.block_size;
  // One 4 KiB block of records stays inline; larger blocks use the heap.
  WindowBuffer<Record, 256> block;
  for (std::size_t first = 0; first < buffer_count_; first += rpb) {
    const std::size_t take = std::min(rpb, buffer_count_ - first);
    LIOD_RETURN_IF_ERROR(
        buffer_file_->ReadBytes(base + first * sizeof(Record), take * sizeof(Record),
                                reinterpret_cast<std::byte*>(block.Assign(take))));
    const bool last_block = first + take >= buffer_count_;
    if (key <= block.back().key || last_block) {
      const auto it = LowerBound(block.begin(), block.end(), key);
      *pos = first + static_cast<std::size_t>(it - block.begin());
      if (it != block.end() && it->key == key) {
        *exists = true;
        if (payload != nullptr) *payload = it->payload;
      }
      return Status::Ok();
    }
  }
  return Status::Ok();
}

Status DynamicPgmIndex::MergeInto(std::size_t slot, std::vector<Record>&& buffer_records) {
  ++merge_count_;
  std::vector<std::vector<Record>> sources;
  sources.push_back(std::move(buffer_records));  // newest
  for (std::size_t i = 0; i <= slot && i < levels_.size(); ++i) {
    if (levels_[i].pgm == nullptr) continue;
    std::vector<Record> run;
    LIOD_RETURN_IF_ERROR(levels_[i].pgm->ReadRecords(
        0, static_cast<std::size_t>(levels_[i].pgm->num_records()), &run));
    sources.push_back(std::move(run));
  }
  std::vector<Record> merged;
  const std::uint64_t dropped = MergeNewestWins(sources, &merged);
  num_records_ -= dropped;

  for (std::size_t i = 0; i <= slot && i < levels_.size(); ++i) DropLevel(i);
  LIOD_RETURN_IF_ERROR(BuildLevel(slot, merged));

  buffer_count_ = 0;  // the live count is memory-resident meta
  return Status::Ok();
}

Status DynamicPgmIndex::Insert(Key key, Payload payload) {
  if (!bulkloaded_) return Status::FailedPrecondition("not bulkloaded");

  std::size_t pos = 0;
  bool exists = false;
  {
    PhaseScope search(options_.breakdown, &io_stats_, OpPhase::kSearch);
    LIOD_RETURN_IF_ERROR(BufferFind(key, &pos, &exists, nullptr));
  }

  if (exists) {  // upsert in place
    PhaseScope ins(options_.breakdown, &io_stats_, OpPhase::kInsert);
    const Record record{key, payload};
    const std::uint64_t off =
        static_cast<std::uint64_t>(buffer_start_) * options_.block_size +
        pos * sizeof(Record);
    return buffer_file_->WriteBytes(off, sizeof(Record),
                                    reinterpret_cast<const std::byte*>(&record));
  }

  if (buffer_count_ >= buffer_capacity_) {
    {
      PhaseScope smo(options_.breakdown, &io_stats_, OpPhase::kSmo);
      std::vector<Record> buffer;
      LIOD_RETURN_IF_ERROR(ReadBuffer(&buffer));
      std::size_t slot = 0;
      std::uint64_t total = buffer.size();
      for (;; ++slot) {
        if (slot < levels_.size() && levels_[slot].pgm != nullptr) {
          total += levels_[slot].pgm->num_records();
        }
        if (total <= LevelCapacity(slot)) break;
      }
      LIOD_RETURN_IF_ERROR(MergeInto(slot, std::move(buffer)));
    }
    return Insert(key, payload);
  }

  // Shift the suffix [pos, count) right by one record and place the new one.
  PhaseScope ins(options_.breakdown, &io_stats_, OpPhase::kInsert);
  const std::uint64_t base =
      static_cast<std::uint64_t>(buffer_start_) * options_.block_size;
  std::vector<Record> suffix(buffer_count_ - pos + 1);
  if (buffer_count_ > pos) {
    LIOD_RETURN_IF_ERROR(buffer_file_->ReadBytes(
        base + pos * sizeof(Record), (buffer_count_ - pos) * sizeof(Record),
        reinterpret_cast<std::byte*>(suffix.data() + 1)));
  }
  suffix[0] = Record{key, payload};
  LIOD_RETURN_IF_ERROR(buffer_file_->WriteBytes(
      base + pos * sizeof(Record), suffix.size() * sizeof(Record),
      reinterpret_cast<const std::byte*>(suffix.data())));
  ++buffer_count_;
  ++num_records_;
  return Status::Ok();
}

Status DynamicPgmIndex::Lookup(Key key, Payload* payload, bool* found) {
  PhaseScope scope(options_.breakdown, &io_stats_, OpPhase::kSearch);
  *found = false;
  if (buffer_count_ > 0) {
    std::size_t pos = 0;
    LIOD_RETURN_IF_ERROR(BufferFind(key, &pos, found, payload));
    if (*found) return Status::Ok();
  }
  // Probe every live static index, newest (smallest) first (O10).
  for (const auto& level : levels_) {
    if (level.pgm == nullptr) continue;
    LIOD_RETURN_IF_ERROR(level.pgm->Lookup(key, payload, found));
    if (*found) return Status::Ok();
  }
  return Status::Ok();
}

Status DynamicPgmIndex::Scan(Key start_key, std::size_t count, std::vector<Record>* out) {
  PhaseScope scope(options_.breakdown, &io_stats_, OpPhase::kSearch);
  out->clear();
  if (count == 0) return Status::Ok();

  std::vector<std::vector<Record>> sources;
  {
    std::vector<Record> buffer;
    LIOD_RETURN_IF_ERROR(ReadBuffer(&buffer));
    std::vector<Record> filtered;
    for (const auto& r : buffer) {
      if (r.key >= start_key && filtered.size() < count) filtered.push_back(r);
    }
    sources.push_back(std::move(filtered));
  }
  for (const auto& level : levels_) {
    if (level.pgm == nullptr) continue;
    std::uint64_t pos = 0;
    LIOD_RETURN_IF_ERROR(level.pgm->LowerBound(start_key, &pos));
    std::vector<Record> run;
    LIOD_RETURN_IF_ERROR(level.pgm->ReadRecords(pos, count, &run));
    sources.push_back(std::move(run));
  }
  std::vector<Record> merged;
  MergeNewestWins(sources, &merged);
  if (merged.size() > count) merged.resize(count);
  *out = std::move(merged);
  return Status::Ok();
}

Status DynamicPgmIndex::CollectAll(std::vector<Record>* out) {
  std::vector<std::vector<Record>> sources;
  {
    std::vector<Record> buffer;
    LIOD_RETURN_IF_ERROR(ReadBuffer(&buffer));
    sources.push_back(std::move(buffer));
  }
  for (const auto& level : levels_) {
    if (level.pgm == nullptr) continue;
    std::vector<Record> run;
    LIOD_RETURN_IF_ERROR(level.pgm->ReadRecords(
        0, static_cast<std::size_t>(level.pgm->num_records()), &run));
    sources.push_back(std::move(run));
  }
  MergeNewestWins(sources, out);
  return Status::Ok();
}

IndexStats DynamicPgmIndex::GetIndexStats() const {
  IndexStats stats;
  stats.num_records = num_records_;
  stats.disk_bytes = buffer_file_->size_bytes();
  stats.freed_bytes = 0;
  std::uint64_t height = 0;
  for (const auto& level : levels_) {
    if (level.pgm == nullptr) continue;
    stats.inner_bytes += level.inner_file->size_bytes();
    stats.leaf_bytes += level.leaf_file->size_bytes();
    stats.node_count += level.pgm->segment_count();
    height = std::max<std::uint64_t>(height, level.pgm->num_levels() + 1);
  }
  stats.disk_bytes += stats.inner_bytes + stats.leaf_bytes;
  stats.height = height + 1;  // + the in-memory root hop
  stats.smo_count = merge_count_;
  return stats;
}

}  // namespace liod
