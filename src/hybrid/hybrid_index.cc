#include "hybrid/hybrid_index.h"

#include <algorithm>
#include <cstring>

namespace liod {

const char* HybridInnerName(HybridInner kind) {
  switch (kind) {
    case HybridInner::kFiting: return "fiting";
    case HybridInner::kPgm: return "pgm";
    case HybridInner::kAlex: return "alex";
    case HybridInner::kLipp: return "lipp";
  }
  return "unknown";
}

HybridIndex::HybridIndex(const IndexOptions& options, HybridInner inner_kind)
    : DiskIndex(options),
      inner_kind_(inner_kind),
      inner_file_(MakeFile(FileClass::kInner)),
      leaf_file_(MakeFile(FileClass::kLeaf)) {}

std::string HybridIndex::name() const {
  return std::string("hybrid-") + HybridInnerName(inner_kind_);
}

Status HybridIndex::Bulkload(std::span<const Record> records) {
  LIOD_RETURN_IF_ERROR(CheckBulkloadInput(records));
  if (bulkloaded_) return Status::FailedPrecondition("Bulkload called twice");
  bulkloaded_ = true;
  const std::size_t bs = options_.block_size;
  num_records_ = records.size();
  if (!records.empty()) max_key_ = records.back().key;

  // --- B+-tree-styled leaf level ------------------------------------------
  const std::size_t capacity = (bs - sizeof(LeafHeader)) / sizeof(Record);
  const std::size_t target = std::max<std::size_t>(
      1, static_cast<std::size_t>(options_.hybrid_leaf_fill * static_cast<double>(capacity)));
  std::vector<Record> fences;  // (leaf max key, leaf block)
  BlockBuffer block(bs);
  BlockId prev = kInvalidBlock;
  std::size_t i = 0;
  while (i < records.size()) {
    const std::size_t take = std::min(target, records.size() - i);
    block.Zero();
    auto* header = block.As<LeafHeader>();
    header->count = static_cast<std::uint32_t>(take);
    header->prev = prev;
    header->next = kInvalidBlock;
    std::memcpy(block.As<Record>(sizeof(LeafHeader)), records.data() + i,
                take * sizeof(Record));
    const BlockId leaf = leaf_file_->Allocate();
    if (prev != kInvalidBlock) {
      BlockBuffer pb(bs);
      LIOD_RETURN_IF_ERROR(leaf_file_->ReadBlock(prev, pb.data()));
      pb.As<LeafHeader>()->next = leaf;
      LIOD_RETURN_IF_ERROR(leaf_file_->WriteBlock(prev, pb.data()));
    }
    LIOD_RETURN_IF_ERROR(leaf_file_->WriteBlock(leaf, block.data()));
    fences.push_back(Record{records[i + take - 1].key, leaf});
    prev = leaf;
    i += take;
  }
  leaf_count_ = fences.size();
  fence_count_ = fences.size();

  // --- learned inner over the fences ---------------------------------------
  switch (inner_kind_) {
    case HybridInner::kFiting:
      pla_ = std::make_unique<StaticPgm>(inner_file_.get(), inner_file_.get(), &io_stats_,
                                         options_.fiting_error_bound,
                                         options_.pgm_inner_error_bound);
      return pla_->Build(fences);
    case HybridInner::kPgm:
      pla_ = std::make_unique<StaticPgm>(inner_file_.get(), inner_file_.get(), &io_stats_,
                                         options_.pgm_error_bound,
                                         options_.pgm_inner_error_bound);
      return pla_->Build(fences);
    case HybridInner::kAlex: {
      if (fences.empty()) return Status::Ok();
      // Contiguous fence array + a root model node with per-group offsets.
      const std::uint64_t fence_bytes = fences.size() * sizeof(Record);
      const std::uint32_t fence_blocks =
          static_cast<std::uint32_t>((fence_bytes + bs - 1) / bs);
      fence_start_ = inner_file_->AllocateRun(fence_blocks);
      std::vector<std::byte> padded(static_cast<std::size_t>(fence_blocks) * bs,
                                    std::byte{0});
      std::memcpy(padded.data(), fences.data(), fence_bytes);
      LIOD_RETURN_IF_ERROR(inner_file_->WriteBytes(
          static_cast<std::uint64_t>(fence_start_) * bs, padded.size(), padded.data()));

      // ~1 group per fence block keeps groups within 1-2 block reads.
      const std::size_t fences_per_block = bs / sizeof(Record);
      const std::uint32_t groups = static_cast<std::uint32_t>(std::max<std::size_t>(
          1, (fences.size() + fences_per_block - 1) / fences_per_block));
      AlexLocatorHeader header{};
      header.num_groups = groups;
      std::vector<Key> fence_keys(fences.size());
      for (std::size_t f = 0; f < fences.size(); ++f) fence_keys[f] = fences[f].key;
      header.model = LinearModel::LeastSquares(fence_keys.begin(),
                                               static_cast<std::int64_t>(fence_keys.size()))
                         .Expanded(static_cast<double>(groups) /
                                   static_cast<double>(fences.size()));
      std::vector<std::uint64_t> offsets(groups + 1, 0);
      {
        std::size_t f = 0;
        for (std::uint32_t g = 0; g < groups; ++g) {
          offsets[g] = f;
          while (f < fences.size() &&
                 header.model.PredictClamped(fences[f].key,
                                             static_cast<std::int64_t>(groups)) <=
                     static_cast<std::int64_t>(g)) {
            ++f;
          }
        }
        offsets[groups] = fences.size();
        // Make offsets cumulative-consistent (monotone).
        for (std::uint32_t g = 1; g <= groups; ++g) {
          offsets[g] = std::max(offsets[g], offsets[g - 1]);
        }
      }
      const std::uint64_t root_bytes = sizeof(AlexLocatorHeader) + (groups + 1) * 8;
      alex_root_blocks_ = static_cast<std::uint32_t>((root_bytes + bs - 1) / bs);
      alex_root_ = inner_file_->AllocateRun(alex_root_blocks_);
      std::vector<std::byte> root_image(static_cast<std::size_t>(alex_root_blocks_) * bs,
                                        std::byte{0});
      std::memcpy(root_image.data(), &header, sizeof(header));
      std::memcpy(root_image.data() + sizeof(header), offsets.data(),
                  offsets.size() * 8);
      return inner_file_->WriteBytes(static_cast<std::uint64_t>(alex_root_) * bs,
                                     root_image.size(), root_image.data());
    }
    case HybridInner::kLipp: {
      if (fences.empty()) return Status::Ok();
      std::uint64_t created = 0;
      std::uint32_t max_level = 0;
      return BuildLippSubtree(inner_file_.get(), fences, 0, options_, &lipp_root_,
                              &created, &max_level);
    }
  }
  return Status::InvalidArgument("unknown hybrid inner kind");
}

Status HybridIndex::ReadFence(std::uint64_t pos, Record* fence) {
  const std::uint64_t off =
      static_cast<std::uint64_t>(fence_start_) * options_.block_size +
      pos * sizeof(Record);
  return inner_file_->ReadBytes(off, sizeof(Record), reinterpret_cast<std::byte*>(fence));
}

Status HybridIndex::LocateViaPla(Key key, BlockId* leaf, bool* found) {
  *found = false;
  std::uint64_t pos = 0;
  LIOD_RETURN_IF_ERROR(pla_->LowerBound(key, &pos));
  if (pos >= pla_->num_records()) return Status::Ok();  // beyond every max key
  std::vector<Record> fence;
  LIOD_RETURN_IF_ERROR(pla_->ReadRecords(pos, 1, &fence));
  *leaf = static_cast<BlockId>(fence[0].payload);
  *found = true;
  return Status::Ok();
}

Status HybridIndex::LocateViaAlex(Key key, BlockId* leaf, bool* found) {
  *found = false;
  const std::size_t bs = options_.block_size;
  // Fetch the root node first -- the model lives in the node (S1 overhead).
  AlexLocatorHeader header;
  LIOD_RETURN_IF_ERROR(
      inner_file_->ReadBytes(static_cast<std::uint64_t>(alex_root_) * bs, sizeof(header),
                             reinterpret_cast<std::byte*>(&header)));
  io_stats_.CountInnerNodeVisit();
  const std::int64_t group = header.model.PredictClamped(
      key, static_cast<std::int64_t>(header.num_groups));
  std::uint64_t range[2];
  LIOD_RETURN_IF_ERROR(inner_file_->ReadBytes(
      static_cast<std::uint64_t>(alex_root_) * bs + sizeof(header) +
          static_cast<std::uint64_t>(group) * 8,
      16, reinterpret_cast<std::byte*>(range)));
  std::uint64_t lo = range[0], hi = range[1];
  // Group window; extend right/left when the ceiling fence lies outside.
  for (;;) {
    if (lo < hi) {
      std::vector<Record> window(static_cast<std::size_t>(hi - lo));
      LIOD_RETURN_IF_ERROR(inner_file_->ReadBytes(
          static_cast<std::uint64_t>(fence_start_) * bs + lo * sizeof(Record),
          window.size() * sizeof(Record), reinterpret_cast<std::byte*>(window.data())));
      if (window.front().key >= key || hi == fence_count_) {
        // Ceiling is the first window fence with key >= `key`, or absent.
        const auto it =
            std::lower_bound(window.begin(), window.end(), key, RecordKeyLess());
        if (it == window.end()) return Status::Ok();  // beyond all max keys
        *leaf = static_cast<BlockId>(it->payload);
        *found = true;
        return Status::Ok();
      }
      if (window.back().key < key) {
        lo = hi;
        hi = std::min<std::uint64_t>(fence_count_, hi + bs / sizeof(Record));
        continue;
      }
      const auto it =
          std::lower_bound(window.begin(), window.end(), key, RecordKeyLess());
      *leaf = static_cast<BlockId>(it->payload);
      *found = true;
      return Status::Ok();
    }
    if (hi >= fence_count_) return Status::Ok();
    hi = std::min<std::uint64_t>(fence_count_, hi + bs / sizeof(Record));
  }
}

Status HybridIndex::LippCeiling(BlockId node, Key key, bool first, Record* fence,
                                bool* found) {
  *found = false;
  const std::size_t bs = options_.block_size;
  LippNodeHeader header;
  LIOD_RETURN_IF_ERROR(inner_file_->ReadBytes(static_cast<std::uint64_t>(node) * bs,
                                              sizeof(header),
                                              reinterpret_cast<std::byte*>(&header)));
  io_stats_.CountInnerNodeVisit();
  const std::uint32_t predicted = static_cast<std::uint32_t>(
      header.model.PredictClamped(key, static_cast<std::int64_t>(header.num_slots)));
  std::uint32_t slot = first ? predicted : 0;
  // Scan forward past NULL slots to the next DATA/NODE slot (Section 6.1.2).
  for (; slot < header.num_slots; ++slot) {
    LippSlot value;
    LIOD_RETURN_IF_ERROR(ReadLippSlot(inner_file_.get(), node, slot, &value));
    switch (value.kind()) {
      case LippSlotKind::kNull:
        continue;
      case LippSlotKind::kData:
        if (value.key() >= key) {
          *fence = Record{value.key(), value.payload()};
          *found = true;
          return Status::Ok();
        }
        continue;  // fence max below the key: keep scanning forward
      case LippSlotKind::kNode: {
        LIOD_RETURN_IF_ERROR(
            LippCeiling(value.child(), key, first && slot == predicted, fence, found));
        if (*found) return Status::Ok();
        continue;
      }
    }
  }
  return Status::Ok();
}

Status HybridIndex::LocateViaLipp(Key key, BlockId* leaf, bool* found) {
  Record fence;
  LIOD_RETURN_IF_ERROR(LippCeiling(lipp_root_, key, /*first=*/true, &fence, found));
  if (*found) *leaf = static_cast<BlockId>(fence.payload);
  return Status::Ok();
}

Status HybridIndex::LocateLeaf(Key key, BlockId* leaf, bool* found) {
  *found = false;
  if (leaf_count_ == 0 || key > max_key_) return Status::Ok();
  switch (inner_kind_) {
    case HybridInner::kFiting:
    case HybridInner::kPgm:
      return LocateViaPla(key, leaf, found);
    case HybridInner::kAlex:
      return LocateViaAlex(key, leaf, found);
    case HybridInner::kLipp:
      return LocateViaLipp(key, leaf, found);
  }
  return Status::InvalidArgument("unknown hybrid inner kind");
}

Status HybridIndex::Lookup(Key key, Payload* payload, bool* found) {
  PhaseScope scope(options_.breakdown, &io_stats_, OpPhase::kSearch);
  *found = false;
  if (!bulkloaded_) return Status::FailedPrecondition("not bulkloaded");
  BlockId leaf;
  bool have_leaf = false;
  LIOD_RETURN_IF_ERROR(LocateLeaf(key, &leaf, &have_leaf));
  if (!have_leaf) return Status::Ok();
  BlockBuffer block(options_.block_size);
  LIOD_RETURN_IF_ERROR(leaf_file_->ReadBlock(leaf, block.data()));
  io_stats_.CountLeafNodeVisit();
  const auto* header = block.As<LeafHeader>();
  const Record* records = block.As<Record>(sizeof(LeafHeader));
  const Record* end = records + header->count;
  const Record* it = std::lower_bound(records, end, key, RecordKeyLess());
  if (it != end && it->key == key) {
    *payload = it->payload;
    *found = true;
  }
  return Status::Ok();
}

Status HybridIndex::Insert(Key /*key*/, Payload /*payload*/) {
  // The paper evaluates the hybrid design on search workloads only
  // (Section 6.1.2); updatable hybrids are its open design direction (P5).
  return Status::Unimplemented("hybrid indexes are search-only in this study");
}

Status HybridIndex::Scan(Key start_key, std::size_t count, std::vector<Record>* out) {
  PhaseScope scope(options_.breakdown, &io_stats_, OpPhase::kSearch);
  out->clear();
  if (!bulkloaded_ || count == 0) return Status::Ok();
  BlockId leaf;
  bool have_leaf = false;
  LIOD_RETURN_IF_ERROR(LocateLeaf(start_key, &leaf, &have_leaf));
  if (!have_leaf) return Status::Ok();
  BlockBuffer block(options_.block_size);
  bool first = true;
  BlockId current = leaf;
  while (current != kInvalidBlock && out->size() < count) {
    LIOD_RETURN_IF_ERROR(leaf_file_->ReadBlock(current, block.data()));
    if (!first) io_stats_.CountLeafNodeVisit();
    first = false;
    const auto* header = block.As<LeafHeader>();
    const Record* records = block.As<Record>(sizeof(LeafHeader));
    const Record* end = records + header->count;
    const Record* it = std::lower_bound(records, end, start_key, RecordKeyLess());
    for (; it != end && out->size() < count; ++it) out->push_back(*it);
    current = header->next;
  }
  return Status::Ok();
}

IndexStats HybridIndex::GetIndexStats() const {
  IndexStats stats;
  stats.num_records = num_records_;
  stats.inner_bytes = inner_file_->size_bytes();
  stats.leaf_bytes = leaf_file_->size_bytes();
  stats.disk_bytes = stats.inner_bytes + stats.leaf_bytes;
  stats.node_count = leaf_count_;
  stats.height = (pla_ != nullptr ? pla_->num_levels() + 1 : 2) + 1;
  return stats;
}

}  // namespace liod
