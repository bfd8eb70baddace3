#include "fiting/fiting_tree_index.h"

#include <algorithm>
#include <cassert>
#include <cstring>

namespace liod {

namespace {

/// Merges two sorted record arrays (no duplicate keys across them).
void MergeSorted(std::span<const Record> a, std::span<const Record> b,
                 std::vector<Record>* out) {
  out->clear();
  out->reserve(a.size() + b.size());
  std::merge(a.begin(), a.end(), b.begin(), b.end(), std::back_inserter(*out),
             RecordKeyLess());
}

}  // namespace

FitingTreeIndex::FitingTreeIndex(const IndexOptions& options)
    : DiskIndex(options),
      inner_file_(MakeFile(FileClass::kInner)),
      leaf_file_(MakeFile(FileClass::kLeaf)),
      directory_(inner_file_.get(), inner_file_.get(), &io_stats_, options.btree_fill_factor) {
  head_buffer_capacity_ = static_cast<std::uint32_t>(
      (options_.block_size - sizeof(HeadBufferHeader)) / sizeof(Record));
}

std::uint32_t FitingTreeIndex::BufferBlocksFor(std::uint32_t buffer_capacity) const {
  const std::uint64_t bytes = sizeof(SegHeader) +
                              static_cast<std::uint64_t>(buffer_capacity) * sizeof(Record);
  return static_cast<std::uint32_t>((bytes + options_.block_size - 1) / options_.block_size);
}

std::uint32_t FitingTreeIndex::DataBlocksFor(std::uint32_t count) const {
  const std::uint64_t bytes = static_cast<std::uint64_t>(count) * sizeof(Record);
  return static_cast<std::uint32_t>(
      std::max<std::uint64_t>(1, (bytes + options_.block_size - 1) / options_.block_size));
}

std::uint32_t FitingTreeIndex::DescsPerBlock() const {
  return static_cast<std::uint32_t>((options_.block_size - sizeof(DescBlockHeader)) /
                                    sizeof(SegDesc));
}

Status FitingTreeIndex::WriteSegmentRun(const SegDesc& desc, std::span<const Record> records,
                                        BlockId prev_block, BlockId next_block) {
  const std::size_t bs = options_.block_size;
  // Header (+ empty buffer) in the first block of the run.
  BlockBuffer block(bs);
  block.Zero();
  auto* header = block.As<SegHeader>();
  header->prev_block = prev_block;
  header->next_block = next_block;
  header->buffer_count = 0;
  header->data_count = desc.data_count;
  header->buffer_blocks = desc.buffer_blocks;
  header->data_blocks = desc.data_blocks;
  header->first_key = desc.first_key;
  LIOD_RETURN_IF_ERROR(leaf_file_->WriteBlock(desc.start_block, block.data()));

  // Data area, padded to whole blocks so no read-modify-write is charged.
  const std::uint64_t data_bytes =
      static_cast<std::uint64_t>(desc.data_blocks) * bs;
  std::vector<std::byte> data(data_bytes, std::byte{0});
  std::memcpy(data.data(), records.data(), records.size() * sizeof(Record));
  const std::uint64_t data_off =
      (static_cast<std::uint64_t>(desc.start_block) + desc.buffer_blocks) * bs;
  return leaf_file_->WriteBytes(data_off, data_bytes, data.data());
}

Status FitingTreeIndex::FindSegment(Key key, SegDesc* desc, bool* found) {
  *found = false;
  if (key < min_segment_key_ || segment_count_ == 0) return Status::Ok();
  Record entry;
  bool have_entry = false;
  LIOD_RETURN_IF_ERROR(directory_.LookupFloor(key, &entry, &have_entry));
  if (!have_entry) return Status::Ok();
  const BlockId desc_block = static_cast<BlockId>(entry.payload);
  BlockBuffer block(options_.block_size);
  LIOD_RETURN_IF_ERROR(inner_file_->ReadBlock(desc_block, block.data()));
  io_stats_.CountInnerNodeVisit();
  const auto* header = block.As<DescBlockHeader>();
  const auto* descs = block.As<SegDesc>(sizeof(DescBlockHeader));
  // Floor within the block.
  std::uint32_t lo = 0, hi = header->count;
  while (lo < hi) {
    const std::uint32_t mid = (lo + hi) / 2;
    if (descs[mid].first_key <= key) {
      lo = mid + 1;
    } else {
      hi = mid;
    }
  }
  if (lo == 0) {
    return Status::Corruption("descriptor block floor miss for key " + std::to_string(key));
  }
  *desc = descs[lo - 1];
  *found = true;
  return Status::Ok();
}

Status FitingTreeIndex::ReplaceDescriptors(Key old_first,
                                           const std::vector<SegDesc>& replacements) {
  Record entry;
  bool have_entry = false;
  LIOD_RETURN_IF_ERROR(directory_.LookupFloor(old_first, &entry, &have_entry));
  if (!have_entry) return Status::Corruption("ReplaceDescriptors: directory entry missing");
  const BlockId desc_block = static_cast<BlockId>(entry.payload);
  BlockBuffer block(options_.block_size);
  LIOD_RETURN_IF_ERROR(inner_file_->ReadBlock(desc_block, block.data()));
  auto* header = block.As<DescBlockHeader>();
  auto* descs = block.As<SegDesc>(sizeof(DescBlockHeader));

  std::vector<SegDesc> combined;
  combined.reserve(header->count + replacements.size());
  bool replaced = false;
  for (std::uint32_t i = 0; i < header->count; ++i) {
    if (descs[i].first_key == old_first) {
      combined.insert(combined.end(), replacements.begin(), replacements.end());
      replaced = true;
    } else {
      combined.push_back(descs[i]);
    }
  }
  if (!replaced) return Status::Corruption("ReplaceDescriptors: old descriptor not found");

  const std::uint32_t cap = DescsPerBlock();
  if (combined.size() <= cap) {
    header->count = static_cast<std::uint32_t>(combined.size());
    std::memcpy(descs, combined.data(), combined.size() * sizeof(SegDesc));
    return inner_file_->WriteBlock(desc_block, block.data());
  }

  // Overflow: keep the first chunk in place, spill the rest to new blocks.
  const std::uint32_t chunk = std::max<std::uint32_t>(
      1, static_cast<std::uint32_t>(static_cast<double>(cap) * options_.btree_fill_factor));
  std::size_t taken = chunk;
  header->count = chunk;
  std::memcpy(descs, combined.data(), chunk * sizeof(SegDesc));
  LIOD_RETURN_IF_ERROR(inner_file_->WriteBlock(desc_block, block.data()));
  while (taken < combined.size()) {
    const std::size_t take = std::min<std::size_t>(chunk, combined.size() - taken);
    BlockBuffer nb(options_.block_size);
    nb.Zero();
    nb.As<DescBlockHeader>()->count = static_cast<std::uint32_t>(take);
    std::memcpy(nb.As<SegDesc>(sizeof(DescBlockHeader)), combined.data() + taken,
                take * sizeof(SegDesc));
    const BlockId nb_id = inner_file_->Allocate();
    LIOD_RETURN_IF_ERROR(inner_file_->WriteBlock(nb_id, nb.data()));
    LIOD_RETURN_IF_ERROR(directory_.Insert(combined[taken].first_key, nb_id));
    taken += take;
  }
  return Status::Ok();
}

Status FitingTreeIndex::PrependDescriptors(const std::vector<SegDesc>& new_descs) {
  // All new keys precede the global minimum; they may share a block with the
  // current first descriptors.
  std::vector<SegDesc> combined = new_descs;
  BlockId reuse_block = kInvalidBlock;
  if (segment_count_ > 0) {
    Record entry;
    bool have_entry = false;
    LIOD_RETURN_IF_ERROR(directory_.LookupFloor(min_segment_key_, &entry, &have_entry));
    if (!have_entry) return Status::Corruption("PrependDescriptors: first block missing");
    reuse_block = static_cast<BlockId>(entry.payload);
    BlockBuffer block(options_.block_size);
    LIOD_RETURN_IF_ERROR(inner_file_->ReadBlock(reuse_block, block.data()));
    const auto* header = block.As<DescBlockHeader>();
    const auto* descs = block.As<SegDesc>(sizeof(DescBlockHeader));
    combined.insert(combined.end(), descs, descs + header->count);
    bool erased = false;
    LIOD_RETURN_IF_ERROR(directory_.Erase(entry.key, &erased));
  }

  const std::uint32_t cap = DescsPerBlock();
  const std::uint32_t chunk = std::max<std::uint32_t>(
      1, static_cast<std::uint32_t>(static_cast<double>(cap) * options_.btree_fill_factor));
  std::size_t taken = 0;
  bool reused = false;
  while (taken < combined.size()) {
    const std::size_t take =
        combined.size() - taken <= cap ? combined.size() - taken
                                       : static_cast<std::size_t>(chunk);
    BlockBuffer nb(options_.block_size);
    nb.Zero();
    nb.As<DescBlockHeader>()->count = static_cast<std::uint32_t>(take);
    std::memcpy(nb.As<SegDesc>(sizeof(DescBlockHeader)), combined.data() + taken,
                take * sizeof(SegDesc));
    BlockId nb_id;
    if (!reused && reuse_block != kInvalidBlock) {
      nb_id = reuse_block;
      reused = true;
    } else {
      nb_id = inner_file_->Allocate();
    }
    LIOD_RETURN_IF_ERROR(inner_file_->WriteBlock(nb_id, nb.data()));
    LIOD_RETURN_IF_ERROR(directory_.Insert(combined[taken].first_key, nb_id));
    taken += take;
  }
  return Status::Ok();
}

Status FitingTreeIndex::Bulkload(std::span<const Record> records) {
  LIOD_RETURN_IF_ERROR(CheckBulkloadInput(records));
  if (bulkloaded_) return Status::FailedPrecondition("Bulkload called twice");
  bulkloaded_ = true;
  const std::size_t bs = options_.block_size;

  // Head buffer: one block recorded in the (memory-resident) meta.
  head_buffer_block_ = leaf_file_->Allocate();
  BlockBuffer head(bs);
  head.Zero();
  LIOD_RETURN_IF_ERROR(leaf_file_->WriteBlock(head_buffer_block_, head.data()));

  std::vector<Key> keys(records.size());
  for (std::size_t i = 0; i < records.size(); ++i) keys[i] = records[i].key;
  const auto pla = BuildOptimalPla(keys, options_.fiting_error_bound);

  // Pass 1: allocate all runs so sibling links are known up front.
  std::vector<SegDesc> descs(pla.size());
  const std::uint32_t buffer_blocks = BufferBlocksFor(options_.fiting_buffer_capacity);
  for (std::size_t i = 0; i < pla.size(); ++i) {
    SegDesc& d = descs[i];
    d.first_key = pla[i].first_key;
    d.slope = pla[i].slope;
    d.intercept = pla[i].intercept - static_cast<double>(pla[i].first_pos);
    d.data_count = static_cast<std::uint32_t>(pla[i].count);
    d.buffer_blocks = buffer_blocks;
    d.data_blocks = DataBlocksFor(d.data_count);
    d.padding = 0;
    d.start_block = leaf_file_->AllocateRun(d.buffer_blocks + d.data_blocks);
  }
  // Pass 2: write runs.
  for (std::size_t i = 0; i < pla.size(); ++i) {
    const BlockId prev = i == 0 ? kInvalidBlock : descs[i - 1].start_block;
    const BlockId next = i + 1 == pla.size() ? kInvalidBlock : descs[i + 1].start_block;
    LIOD_RETURN_IF_ERROR(WriteSegmentRun(
        descs[i], records.subspan(pla[i].first_pos, pla[i].count), prev, next));
  }

  // Descriptor blocks + directory.
  const std::uint32_t cap = DescsPerBlock();
  const std::uint32_t chunk = std::max<std::uint32_t>(
      1, static_cast<std::uint32_t>(static_cast<double>(cap) * options_.btree_fill_factor));
  std::vector<Record> directory_entries;
  std::size_t taken = 0;
  while (taken < descs.size()) {
    const std::size_t take = std::min<std::size_t>(chunk, descs.size() - taken);
    BlockBuffer nb(bs);
    nb.Zero();
    nb.As<DescBlockHeader>()->count = static_cast<std::uint32_t>(take);
    std::memcpy(nb.As<SegDesc>(sizeof(DescBlockHeader)), descs.data() + taken,
                take * sizeof(SegDesc));
    const BlockId nb_id = inner_file_->Allocate();
    LIOD_RETURN_IF_ERROR(inner_file_->WriteBlock(nb_id, nb.data()));
    directory_entries.push_back(Record{descs[taken].first_key, nb_id});
    taken += take;
  }
  LIOD_RETURN_IF_ERROR(directory_.Bulkload(directory_entries));

  num_records_ = records.size();
  segment_count_ = pla.size();
  if (!descs.empty()) {
    min_segment_key_ = descs.front().first_key;
    first_segment_block_ = descs.front().start_block;
  }
  return Status::Ok();
}

Status FitingTreeIndex::LookupInData(const SegDesc& desc, Key key, Payload* payload,
                                     bool* found) {
  *found = false;
  if (desc.data_count == 0) return Status::Ok();
  const std::size_t bs = options_.block_size;
  const std::int64_t eps = static_cast<std::int64_t>(options_.fiting_error_bound) + 1;
  const double raw =
      desc.slope * (static_cast<double>(key) - static_cast<double>(desc.first_key)) +
      desc.intercept;
  std::int64_t pred = raw <= 0.0 ? 0 : static_cast<std::int64_t>(raw);
  pred = std::min<std::int64_t>(pred, desc.data_count - 1);
  const std::int64_t lo = std::max<std::int64_t>(0, pred - eps);
  const std::int64_t hi = std::min<std::int64_t>(desc.data_count, pred + eps + 1);

  const std::uint64_t data_off =
      (static_cast<std::uint64_t>(desc.start_block) + desc.buffer_blocks) * bs;
  std::vector<Record> window(static_cast<std::size_t>(hi - lo));
  LIOD_RETURN_IF_ERROR(leaf_file_->ReadBytes(
      data_off + static_cast<std::uint64_t>(lo) * sizeof(Record),
      window.size() * sizeof(Record), reinterpret_cast<std::byte*>(window.data())));
  const auto it = std::lower_bound(window.begin(), window.end(), key, RecordKeyLess());
  if (it != window.end() && it->key == key) {
    *payload = it->payload;
    *found = true;
  }
  return Status::Ok();
}

Status FitingTreeIndex::LookupInBuffer(const SegDesc& desc, Key key, Payload* payload,
                                       bool* found) {
  *found = false;
  const std::size_t bs = options_.block_size;
  BlockBuffer block(bs);
  LIOD_RETURN_IF_ERROR(leaf_file_->ReadBlock(desc.start_block, block.data()));
  const auto* header = block.As<SegHeader>();
  const std::uint32_t count = header->buffer_count;
  if (count == 0) return Status::Ok();
  std::vector<Record> buffer(count);
  const std::uint64_t off =
      static_cast<std::uint64_t>(desc.start_block) * bs + sizeof(SegHeader);
  LIOD_RETURN_IF_ERROR(leaf_file_->ReadBytes(off, count * sizeof(Record),
                                             reinterpret_cast<std::byte*>(buffer.data())));
  const auto it = std::lower_bound(buffer.begin(), buffer.end(), key, RecordKeyLess());
  if (it != buffer.end() && it->key == key) {
    *payload = it->payload;
    *found = true;
  }
  return Status::Ok();
}

Status FitingTreeIndex::Lookup(Key key, Payload* payload, bool* found) {
  PhaseScope scope(options_.breakdown, &io_stats_, OpPhase::kSearch);
  *found = false;
  if (!bulkloaded_) return Status::FailedPrecondition("not bulkloaded");

  if (key < min_segment_key_ || segment_count_ == 0) {
    if (head_buffer_block_ == kInvalidBlock) return Status::Ok();
    BlockBuffer block(options_.block_size);
    LIOD_RETURN_IF_ERROR(leaf_file_->ReadBlock(head_buffer_block_, block.data()));
    io_stats_.CountLeafNodeVisit();
    const auto* header = block.As<HeadBufferHeader>();
    const auto* records = block.As<Record>(sizeof(HeadBufferHeader));
    const auto* end = records + header->count;
    const auto* it = std::lower_bound(records, end, key, RecordKeyLess());
    if (it != end && it->key == key) {
      *payload = it->payload;
      *found = true;
    }
    return Status::Ok();
  }

  SegDesc desc;
  bool have_desc = false;
  LIOD_RETURN_IF_ERROR(FindSegment(key, &desc, &have_desc));
  if (!have_desc) return Status::Ok();
  io_stats_.CountLeafNodeVisit();
  LIOD_RETURN_IF_ERROR(LookupInData(desc, key, payload, found));
  if (*found) return Status::Ok();
  return LookupInBuffer(desc, key, payload, found);
}

Status FitingTreeIndex::ReadSegmentRecords(const SegDesc& desc, std::vector<Record>* out,
                                           SegHeader* header_out) {
  const std::size_t bs = options_.block_size;
  BlockBuffer block(bs);
  LIOD_RETURN_IF_ERROR(leaf_file_->ReadBlock(desc.start_block, block.data()));
  const SegHeader header = *block.As<SegHeader>();
  if (header_out != nullptr) *header_out = header;

  std::vector<Record> buffer(header.buffer_count);
  if (header.buffer_count > 0) {
    const std::uint64_t off =
        static_cast<std::uint64_t>(desc.start_block) * bs + sizeof(SegHeader);
    LIOD_RETURN_IF_ERROR(
        leaf_file_->ReadBytes(off, buffer.size() * sizeof(Record),
                              reinterpret_cast<std::byte*>(buffer.data())));
  }
  std::vector<Record> data(desc.data_count);
  if (desc.data_count > 0) {
    const std::uint64_t off =
        (static_cast<std::uint64_t>(desc.start_block) + desc.buffer_blocks) * bs;
    LIOD_RETURN_IF_ERROR(leaf_file_->ReadBytes(
        off, data.size() * sizeof(Record), reinterpret_cast<std::byte*>(data.data())));
  }
  MergeSorted(data, buffer, out);
  return Status::Ok();
}

Status FitingTreeIndex::Resegment(const SegDesc& desc) {
  ++resegment_count_;
  std::vector<Record> merged;
  SegHeader old_header;
  LIOD_RETURN_IF_ERROR(ReadSegmentRecords(desc, &merged, &old_header));

  std::vector<Key> keys(merged.size());
  for (std::size_t i = 0; i < merged.size(); ++i) keys[i] = merged[i].key;
  const auto pla = BuildOptimalPla(keys, options_.fiting_error_bound);

  const std::uint32_t buffer_blocks = BufferBlocksFor(options_.fiting_buffer_capacity);
  std::vector<SegDesc> new_descs(pla.size());
  for (std::size_t i = 0; i < pla.size(); ++i) {
    SegDesc& d = new_descs[i];
    d.first_key = pla[i].first_key;
    d.slope = pla[i].slope;
    d.intercept = pla[i].intercept - static_cast<double>(pla[i].first_pos);
    d.data_count = static_cast<std::uint32_t>(pla[i].count);
    d.buffer_blocks = buffer_blocks;
    d.data_blocks = DataBlocksFor(d.data_count);
    d.padding = 0;
    d.start_block = leaf_file_->AllocateRun(d.buffer_blocks + d.data_blocks);
  }
  for (std::size_t i = 0; i < pla.size(); ++i) {
    const BlockId prev = i == 0 ? old_header.prev_block : new_descs[i - 1].start_block;
    const BlockId next =
        i + 1 == pla.size() ? old_header.next_block : new_descs[i + 1].start_block;
    LIOD_RETURN_IF_ERROR(WriteSegmentRun(
        new_descs[i],
        std::span<const Record>(merged.data() + pla[i].first_pos, pla[i].count), prev,
        next));
  }

  // Relink the neighbours.
  const std::size_t bs = options_.block_size;
  if (old_header.prev_block != kInvalidBlock) {
    BlockBuffer nb(bs);
    LIOD_RETURN_IF_ERROR(leaf_file_->ReadBlock(old_header.prev_block, nb.data()));
    nb.As<SegHeader>()->next_block = new_descs.front().start_block;
    LIOD_RETURN_IF_ERROR(leaf_file_->WriteBlock(old_header.prev_block, nb.data()));
  }
  if (old_header.next_block != kInvalidBlock) {
    BlockBuffer nb(bs);
    LIOD_RETURN_IF_ERROR(leaf_file_->ReadBlock(old_header.next_block, nb.data()));
    nb.As<SegHeader>()->prev_block = new_descs.back().start_block;
    LIOD_RETURN_IF_ERROR(leaf_file_->WriteBlock(old_header.next_block, nb.data()));
  }

  LIOD_RETURN_IF_ERROR(ReplaceDescriptors(desc.first_key, new_descs));
  leaf_file_->Free(desc.start_block, desc.buffer_blocks + desc.data_blocks);
  if (first_segment_block_ == desc.start_block) {
    first_segment_block_ = new_descs.front().start_block;
  }
  segment_count_ += new_descs.size() - 1;
  return Status::Ok();
}

Status FitingTreeIndex::FlushHeadBuffer() {
  const std::size_t bs = options_.block_size;
  BlockBuffer block(bs);
  LIOD_RETURN_IF_ERROR(leaf_file_->ReadBlock(head_buffer_block_, block.data()));
  auto* header = block.As<HeadBufferHeader>();
  const std::uint32_t count = header->count;
  if (count == 0) return Status::Ok();
  std::vector<Record> records(count);
  std::memcpy(records.data(), block.As<Record>(sizeof(HeadBufferHeader)),
              count * sizeof(Record));

  std::vector<Key> keys(count);
  for (std::uint32_t i = 0; i < count; ++i) keys[i] = records[i].key;
  const auto pla = BuildOptimalPla(keys, options_.fiting_error_bound);

  const std::uint32_t buffer_blocks = BufferBlocksFor(options_.fiting_buffer_capacity);
  std::vector<SegDesc> new_descs(pla.size());
  for (std::size_t i = 0; i < pla.size(); ++i) {
    SegDesc& d = new_descs[i];
    d.first_key = pla[i].first_key;
    d.slope = pla[i].slope;
    d.intercept = pla[i].intercept - static_cast<double>(pla[i].first_pos);
    d.data_count = static_cast<std::uint32_t>(pla[i].count);
    d.buffer_blocks = buffer_blocks;
    d.data_blocks = DataBlocksFor(d.data_count);
    d.padding = 0;
    d.start_block = leaf_file_->AllocateRun(d.buffer_blocks + d.data_blocks);
  }
  for (std::size_t i = 0; i < pla.size(); ++i) {
    const BlockId prev = i == 0 ? kInvalidBlock : new_descs[i - 1].start_block;
    const BlockId next =
        i + 1 == pla.size() ? first_segment_block_ : new_descs[i + 1].start_block;
    LIOD_RETURN_IF_ERROR(WriteSegmentRun(
        new_descs[i],
        std::span<const Record>(records.data() + pla[i].first_pos, pla[i].count), prev,
        next));
  }
  if (first_segment_block_ != kInvalidBlock) {
    BlockBuffer nb(bs);
    LIOD_RETURN_IF_ERROR(leaf_file_->ReadBlock(first_segment_block_, nb.data()));
    nb.As<SegHeader>()->prev_block = new_descs.back().start_block;
    LIOD_RETURN_IF_ERROR(leaf_file_->WriteBlock(first_segment_block_, nb.data()));
  }
  LIOD_RETURN_IF_ERROR(PrependDescriptors(new_descs));

  header->count = 0;
  LIOD_RETURN_IF_ERROR(leaf_file_->WriteBlock(head_buffer_block_, block.data()));
  min_segment_key_ = new_descs.front().first_key;
  first_segment_block_ = new_descs.front().start_block;
  segment_count_ += new_descs.size();
  return Status::Ok();
}

Status FitingTreeIndex::Insert(Key key, Payload payload) {
  if (!bulkloaded_) return Status::FailedPrecondition("not bulkloaded");
  const std::size_t bs = options_.block_size;

  // --- keys below the global minimum go to the head buffer ---------------
  if (key < min_segment_key_ || segment_count_ == 0) {
    BlockBuffer block(bs);
    {
      PhaseScope search(options_.breakdown, &io_stats_, OpPhase::kSearch);
      LIOD_RETURN_IF_ERROR(leaf_file_->ReadBlock(head_buffer_block_, block.data()));
    }
    auto* header = block.As<HeadBufferHeader>();
    auto* records = block.As<Record>(sizeof(HeadBufferHeader));
    auto* end = records + header->count;
    auto* it = std::lower_bound(records, end, key, RecordKeyLess());
    if (it != end && it->key == key) {  // upsert
      PhaseScope ins(options_.breakdown, &io_stats_, OpPhase::kInsert);
      it->payload = payload;
      return leaf_file_->WriteBlock(head_buffer_block_, block.data());
    }
    if (header->count >= head_buffer_capacity_) {
      {
        PhaseScope smo(options_.breakdown, &io_stats_, OpPhase::kSmo);
        LIOD_RETURN_IF_ERROR(FlushHeadBuffer());
      }
      return Insert(key, payload);  // re-route after the flush
    }
    PhaseScope ins(options_.breakdown, &io_stats_, OpPhase::kInsert);
    std::memmove(it + 1, it, static_cast<std::size_t>(end - it) * sizeof(Record));
    *it = Record{key, payload};
    ++header->count;
    ++num_records_;
    return leaf_file_->WriteBlock(head_buffer_block_, block.data());
  }

  // --- normal path: locate segment ---------------------------------------
  SegDesc desc;
  bool have_desc = false;
  {
    PhaseScope search(options_.breakdown, &io_stats_, OpPhase::kSearch);
    LIOD_RETURN_IF_ERROR(FindSegment(key, &desc, &have_desc));
    if (!have_desc) return Status::Corruption("insert: no segment for key");

    // Upsert into the data area if the key already exists there.
    const std::int64_t eps = static_cast<std::int64_t>(options_.fiting_error_bound) + 1;
    const double raw =
        desc.slope * (static_cast<double>(key) - static_cast<double>(desc.first_key)) +
        desc.intercept;
    std::int64_t pred = raw <= 0.0 ? 0 : static_cast<std::int64_t>(raw);
    pred = std::min<std::int64_t>(pred, std::max<std::int64_t>(0, desc.data_count - 1));
    const std::int64_t lo = std::max<std::int64_t>(0, pred - eps);
    const std::int64_t hi = std::min<std::int64_t>(desc.data_count, pred + eps + 1);
    if (hi > lo) {
      std::vector<Record> window(static_cast<std::size_t>(hi - lo));
      const std::uint64_t data_off =
          (static_cast<std::uint64_t>(desc.start_block) + desc.buffer_blocks) * bs +
          static_cast<std::uint64_t>(lo) * sizeof(Record);
      LIOD_RETURN_IF_ERROR(leaf_file_->ReadBytes(
          data_off, window.size() * sizeof(Record),
          reinterpret_cast<std::byte*>(window.data())));
      auto it = std::lower_bound(window.begin(), window.end(), key, RecordKeyLess());
      if (it != window.end() && it->key == key) {
        it->payload = payload;
        const std::uint64_t rec_off =
            data_off + static_cast<std::uint64_t>(it - window.begin()) * sizeof(Record);
        return leaf_file_->WriteBytes(rec_off, sizeof(Record),
                                      reinterpret_cast<const std::byte*>(&*it));
      }
    }
  }

  // --- insert into the delta buffer ---------------------------------------
  BlockBuffer head_block(bs);
  {
    PhaseScope search(options_.breakdown, &io_stats_, OpPhase::kSearch);
    LIOD_RETURN_IF_ERROR(leaf_file_->ReadBlock(desc.start_block, head_block.data()));
  }
  auto* header = head_block.As<SegHeader>();
  if (header->buffer_count >= options_.fiting_buffer_capacity) {
    {
      PhaseScope smo(options_.breakdown, &io_stats_, OpPhase::kSmo);
      LIOD_RETURN_IF_ERROR(Resegment(desc));
    }
    return Insert(key, payload);  // the new segment's buffer is empty
  }

  PhaseScope ins(options_.breakdown, &io_stats_, OpPhase::kInsert);
  const std::uint32_t count = header->buffer_count;
  const std::uint64_t run_off = static_cast<std::uint64_t>(desc.start_block) * bs;
  // Read live buffer records (blocks beyond the header block as needed).
  std::vector<Record> buffer(count + 1);
  if (count > 0) {
    LIOD_RETURN_IF_ERROR(
        leaf_file_->ReadBytes(run_off + sizeof(SegHeader), count * sizeof(Record),
                              reinterpret_cast<std::byte*>(buffer.data())));
  }
  auto it = std::lower_bound(buffer.begin(), buffer.begin() + count, key, RecordKeyLess());
  if (it != buffer.begin() + count && it->key == key) {  // upsert in buffer
    it->payload = payload;
    const std::uint64_t rec_off =
        run_off + sizeof(SegHeader) +
        static_cast<std::uint64_t>(it - buffer.begin()) * sizeof(Record);
    return leaf_file_->WriteBytes(rec_off, sizeof(Record),
                                  reinterpret_cast<const std::byte*>(&*it));
  }
  const std::size_t pos = static_cast<std::size_t>(it - buffer.begin());
  std::memmove(buffer.data() + pos + 1, buffer.data() + pos,
               (count - pos) * sizeof(Record));
  buffer[pos] = Record{key, payload};
  ++num_records_;

  // Write the shifted suffix, then the header block with the new count.
  const std::uint64_t suffix_off = run_off + sizeof(SegHeader) + pos * sizeof(Record);
  LIOD_RETURN_IF_ERROR(leaf_file_->WriteBytes(
      suffix_off, (count + 1 - pos) * sizeof(Record),
      reinterpret_cast<const std::byte*>(buffer.data() + pos)));
  // Re-read the header block (cheap: just written or cached) and bump count.
  LIOD_RETURN_IF_ERROR(leaf_file_->ReadBlock(desc.start_block, head_block.data()));
  head_block.As<SegHeader>()->buffer_count = count + 1;
  return leaf_file_->WriteBlock(desc.start_block, head_block.data());
}

Status FitingTreeIndex::Scan(Key start_key, std::size_t count, std::vector<Record>* out) {
  PhaseScope scope(options_.breakdown, &io_stats_, OpPhase::kSearch);
  out->clear();
  if (!bulkloaded_ || count == 0) return Status::Ok();
  const std::size_t bs = options_.block_size;

  // Head buffer first: its keys precede every segment key.
  if ((start_key < min_segment_key_ || segment_count_ == 0) &&
      head_buffer_block_ != kInvalidBlock) {
    BlockBuffer block(bs);
    LIOD_RETURN_IF_ERROR(leaf_file_->ReadBlock(head_buffer_block_, block.data()));
    const auto* header = block.As<HeadBufferHeader>();
    const auto* records = block.As<Record>(sizeof(HeadBufferHeader));
    for (std::uint32_t i = 0; i < header->count && out->size() < count; ++i) {
      if (records[i].key >= start_key) out->push_back(records[i]);
    }
  }

  // Locate the first segment to visit.
  SegDesc desc;
  bool have_desc = false;
  LIOD_RETURN_IF_ERROR(FindSegment(start_key, &desc, &have_desc));
  BlockId current = have_desc ? desc.start_block : first_segment_block_;

  bool first_segment = have_desc;
  while (current != kInvalidBlock && out->size() < count) {
    BlockBuffer block(bs);
    LIOD_RETURN_IF_ERROR(leaf_file_->ReadBlock(current, block.data()));
    io_stats_.CountLeafNodeVisit();
    const SegHeader header = *block.As<SegHeader>();
    const std::uint64_t run_off = static_cast<std::uint64_t>(current) * bs;

    std::vector<Record> buffer(header.buffer_count);
    if (header.buffer_count > 0) {
      LIOD_RETURN_IF_ERROR(leaf_file_->ReadBytes(
          run_off + sizeof(SegHeader), buffer.size() * sizeof(Record),
          reinterpret_cast<std::byte*>(buffer.data())));
    }

    // Data: start from the model-predicted window on the first segment,
    // from the beginning on subsequent ones.
    std::uint32_t data_lo = 0;
    if (first_segment && header.data_count > 0) {
      const std::int64_t eps = static_cast<std::int64_t>(options_.fiting_error_bound) + 1;
      const double raw = desc.slope * (static_cast<double>(start_key) -
                                       static_cast<double>(desc.first_key)) +
                         desc.intercept;
      std::int64_t pred = raw <= 0.0 ? 0 : static_cast<std::int64_t>(raw);
      pred = std::min<std::int64_t>(pred, header.data_count - 1);
      data_lo = static_cast<std::uint32_t>(std::max<std::int64_t>(0, pred - eps));
    }
    first_segment = false;
    // Merge data and buffer, emitting keys >= start_key. Data is read in
    // block-sized chunks so a short scan over a huge segment never fetches
    // the segment's tail.
    const std::uint64_t data_off =
        run_off + static_cast<std::uint64_t>(header.buffer_blocks) * bs;
    const std::uint32_t chunk_records = static_cast<std::uint32_t>(bs / sizeof(Record));
    std::vector<Record> data;
    std::uint32_t next_data = data_lo;  // next unread data index
    std::size_t di = 0, bi = 0;
    for (;;) {
      if (di >= data.size() && next_data < header.data_count) {
        const std::uint32_t take =
            std::min(chunk_records, header.data_count - next_data);
        data.resize(take);
        LIOD_RETURN_IF_ERROR(leaf_file_->ReadBytes(
            data_off + static_cast<std::uint64_t>(next_data) * sizeof(Record),
            take * sizeof(Record), reinterpret_cast<std::byte*>(data.data())));
        next_data += take;
        di = 0;
      }
      const bool have_data = di < data.size();
      const bool have_buffer = bi < buffer.size();
      if (out->size() >= count || (!have_data && !have_buffer)) break;
      const bool take_data =
          !have_buffer || (have_data && data[di].key < buffer[bi].key);
      const Record& r = take_data ? data[di] : buffer[bi];
      (take_data ? di : bi) += 1;
      if (r.key >= start_key) out->push_back(r);
    }
    current = header.next_block;
  }
  return Status::Ok();
}

IndexStats FitingTreeIndex::GetIndexStats() const {
  IndexStats stats;
  stats.num_records = num_records_;
  stats.inner_bytes = inner_file_->size_bytes();
  stats.leaf_bytes = leaf_file_->size_bytes();
  stats.disk_bytes = stats.inner_bytes + stats.leaf_bytes;
  stats.freed_bytes =
      (inner_file_->freed_blocks() + leaf_file_->freed_blocks()) * options_.block_size;
  stats.height = directory_.height() + 2;  // btree + desc block + segment
  stats.smo_count = resegment_count_;
  stats.node_count = segment_count_;
  return stats;
}

Status FitingTreeIndex::CheckInvariants() {
  // Walk the segment chain: global ordering, per-segment model error, counts.
  std::uint64_t total = 0;
  const std::size_t bs = options_.block_size;
  // Head buffer contents must precede every segment key.
  if (head_buffer_block_ != kInvalidBlock) {
    BlockBuffer block(bs);
    LIOD_RETURN_IF_ERROR(leaf_file_->ReadBlock(head_buffer_block_, block.data()));
    const auto* header = block.As<HeadBufferHeader>();
    const auto* records = block.As<Record>(sizeof(HeadBufferHeader));
    for (std::uint32_t i = 0; i < header->count; ++i) {
      if (i > 0 && records[i].key <= records[i - 1].key) {
        return Status::Corruption("head buffer out of order");
      }
      if (records[i].key >= min_segment_key_) {
        return Status::Corruption("head buffer key >= segment minimum");
      }
    }
    total += header->count;
  }

  BlockId current = first_segment_block_;
  Key prev_last = kMinKey;
  bool have_prev = false;
  std::uint64_t chain_segments = 0;
  while (current != kInvalidBlock) {
    SegDesc desc;
    bool have_desc = false;
    BlockBuffer block(bs);
    LIOD_RETURN_IF_ERROR(leaf_file_->ReadBlock(current, block.data()));
    const SegHeader header = *block.As<SegHeader>();
    LIOD_RETURN_IF_ERROR(FindSegment(header.first_key, &desc, &have_desc));
    if (!have_desc || desc.start_block != current) {
      return Status::Corruption("directory does not resolve segment at block " +
                                std::to_string(current));
    }
    std::vector<Record> merged;
    LIOD_RETURN_IF_ERROR(ReadSegmentRecords(desc, &merged, nullptr));
    for (std::size_t i = 0; i < merged.size(); ++i) {
      if (i > 0 && merged[i].key <= merged[i - 1].key) {
        return Status::Corruption("segment records out of order");
      }
      if (have_prev && merged[i].key <= prev_last) {
        return Status::Corruption("segment overlaps predecessor");
      }
    }
    if (!merged.empty()) {
      prev_last = merged.back().key;
      have_prev = true;
    }
    total += merged.size();
    ++chain_segments;
    current = header.next_block;
  }
  if (total != num_records_) {
    return Status::Corruption("record count mismatch: chain=" + std::to_string(total) +
                              " meta=" + std::to_string(num_records_));
  }
  if (chain_segments != segment_count_) {
    return Status::Corruption("segment count mismatch");
  }
  return Status::Ok();
}

}  // namespace liod
