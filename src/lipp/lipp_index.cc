#include "lipp/lipp_index.h"

#include <algorithm>

namespace liod {

LippIndex::LippIndex(const IndexOptions& options)
    : DiskIndex(options), file_(MakeFile(FileClass::kLeaf)) {}

Status LippIndex::Bulkload(std::span<const Record> records) {
  LIOD_RETURN_IF_ERROR(CheckBulkloadInput(records));
  if (bulkloaded_) return Status::FailedPrecondition("Bulkload called twice");
  bulkloaded_ = true;
  if (!records.empty() && records.back().key > kLippMaxKey) {
    return Status::InvalidArgument("LIPP keys must be < 2^62 (tagged slots)");
  }
  std::uint64_t created = 0;
  LIOD_RETURN_IF_ERROR(
      BuildLippSubtree(file_.get(), records, 0, options_, &root_, &created, &max_level_));
  node_count_ = created;
  num_records_ = records.size();
  return Status::Ok();
}

Status LippIndex::Lookup(Key key, Payload* payload, bool* found) {
  PhaseScope scope(options_.breakdown, &io_stats_, OpPhase::kSearch);
  *found = false;
  if (!bulkloaded_) return Status::FailedPrecondition("not bulkloaded");
  const std::size_t bs = options_.block_size;
  BlockId node = root_;
  for (;;) {
    LippNodeHeader header;
    LIOD_RETURN_IF_ERROR(file_->ReadBytes(static_cast<std::uint64_t>(node) * bs,
                                          sizeof(header),
                                          reinterpret_cast<std::byte*>(&header)));
    io_stats_.CountInnerNodeVisit();
    const std::uint32_t slot = static_cast<std::uint32_t>(
        header.model.PredictClamped(key, static_cast<std::int64_t>(header.num_slots)));
    LippSlot value;
    LIOD_RETURN_IF_ERROR(ReadLippSlot(file_.get(), node, slot, &value));
    switch (value.kind()) {
      case LippSlotKind::kNull:
        return Status::Ok();
      case LippSlotKind::kData:
        io_stats_.CountLeafNodeVisit();
        if (value.key() == key) {
          *payload = value.payload();
          *found = true;
        }
        return Status::Ok();
      case LippSlotKind::kNode:
        node = value.child();
        break;
    }
  }
}

Status LippIndex::UpdatePathStats(const std::vector<PathEntry>& path, bool conflict,
                                  std::size_t* rebuild_depth, bool* rebuild) {
  // The paper (O7): "for each insert, LIPP will update all of the nodes in
  // the path to the inserted node" -- one header RMW per path node.
  *rebuild = false;
  const std::size_t bs = options_.block_size;
  for (std::size_t d = 0; d < path.size(); ++d) {
    LippNodeHeader header;
    const std::uint64_t off = static_cast<std::uint64_t>(path[d].block) * bs;
    LIOD_RETURN_IF_ERROR(file_->ReadBytes(off, sizeof(header),
                                          reinterpret_cast<std::byte*>(&header)));
    header.num_inserts += 1;
    header.size += 1;
    if (conflict) header.num_insert_to_data += 1;
    LIOD_RETURN_IF_ERROR(file_->WriteBytes(off, sizeof(header),
                                           reinterpret_cast<const std::byte*>(&header)));
    if (!*rebuild && header.size >= 64 && header.size >= header.build_size * 4 &&
        static_cast<double>(header.num_insert_to_data) >=
            options_.lipp_rebuild_conflict_ratio * static_cast<double>(header.num_inserts)) {
      *rebuild = true;
      *rebuild_depth = d;
    }
  }
  return Status::Ok();
}

Status LippIndex::RebuildSubtree(const std::vector<PathEntry>& path, std::size_t depth) {
  ++rebuild_smo_count_;
  const BlockId old_root = path[depth].block;
  std::vector<Record> records;
  std::vector<std::pair<BlockId, std::uint32_t>> runs;
  LIOD_RETURN_IF_ERROR(CollectLippSubtree(file_.get(), old_root, &records, &runs));
  std::sort(records.begin(), records.end(), RecordKeyLess());

  LippNodeHeader old_header;
  LIOD_RETURN_IF_ERROR(
      file_->ReadBytes(static_cast<std::uint64_t>(old_root) * options_.block_size,
                       sizeof(old_header), reinterpret_cast<std::byte*>(&old_header)));

  BlockId new_root;
  std::uint64_t created = 0;
  std::uint32_t max_level = max_level_;
  LIOD_RETURN_IF_ERROR(BuildLippSubtree(file_.get(), records, old_header.level, options_,
                                        &new_root, &created, &max_level));
  max_level_ = max_level;
  node_count_ += created;
  node_count_ -= runs.size();
  for (const auto& [block, blocks] : runs) file_->Free(block, blocks);

  if (depth == 0) {
    root_ = new_root;
    return Status::Ok();
  }
  // Update the parent slot to the new child.
  const PathEntry& parent = path[depth - 1];
  return WriteLippSlot(file_.get(), parent.block, parent.slot, LippSlot::Node(new_root));
}

Status LippIndex::Insert(Key key, Payload payload) {
  if (!bulkloaded_) return Status::FailedPrecondition("not bulkloaded");
  if (key > kLippMaxKey) {
    return Status::InvalidArgument("LIPP keys must be < 2^62 (tagged slots)");
  }
  const std::size_t bs = options_.block_size;
  std::vector<PathEntry> path;
  BlockId node = root_;
  bool conflict = false;
  bool inserted = false;

  {
    PhaseScope search(options_.breakdown, &io_stats_, OpPhase::kSearch);
    for (;;) {
      LippNodeHeader header;
      LIOD_RETURN_IF_ERROR(file_->ReadBytes(static_cast<std::uint64_t>(node) * bs,
                                            sizeof(header),
                                            reinterpret_cast<std::byte*>(&header)));
      const std::uint32_t slot = static_cast<std::uint32_t>(
          header.model.PredictClamped(key, static_cast<std::int64_t>(header.num_slots)));
      path.push_back(PathEntry{node, slot, false});
      LippSlot value;
      LIOD_RETURN_IF_ERROR(ReadLippSlot(file_.get(), node, slot, &value));
      if (value.kind() == LippSlotKind::kNull) {
        // Empty slot: write the tagged record in place (one slot write).
        PhaseScope ins(options_.breakdown, &io_stats_, OpPhase::kInsert);
        LIOD_RETURN_IF_ERROR(
            WriteLippSlot(file_.get(), node, slot, LippSlot::Data(key, payload)));
        inserted = true;
        break;
      }
      if (value.kind() == LippSlotKind::kData) {
        if (value.key() == key) {  // upsert
          PhaseScope ins(options_.breakdown, &io_stats_, OpPhase::kInsert);
          LIOD_RETURN_IF_ERROR(
              WriteLippSlot(file_.get(), node, slot, LippSlot::Data(key, payload)));
          return Status::Ok();  // no statistics change for an in-place update
        }
        // Conflict: create a child node holding both records (SMO type 1).
        PhaseScope smo(options_.breakdown, &io_stats_, OpPhase::kSmo);
        ++conflict_smo_count_;
        Record pair[2] = {Record{value.key(), value.payload()}, Record{key, payload}};
        if (pair[0].key > pair[1].key) std::swap(pair[0], pair[1]);
        BlockId child;
        std::uint64_t created = 0;
        std::uint32_t max_level = max_level_;
        LIOD_RETURN_IF_ERROR(BuildLippSubtree(
            file_.get(), std::span<const Record>(pair, 2), header.level + 1, options_,
            &child, &created, &max_level));
        max_level_ = max_level;
        node_count_ += created;
        LIOD_RETURN_IF_ERROR(WriteLippSlot(file_.get(), node, slot, LippSlot::Node(child)));
        conflict = true;
        inserted = true;
        break;
      }
      node = value.child();
    }
  }
  if (!inserted) return Status::Corruption("LIPP insert fell through");
  ++num_records_;

  bool rebuild = false;
  std::size_t rebuild_depth = 0;
  {
    PhaseScope maint(options_.breakdown, &io_stats_, OpPhase::kMaintenance);
    LIOD_RETURN_IF_ERROR(UpdatePathStats(path, conflict, &rebuild_depth, &rebuild));
  }
  if (rebuild) {
    PhaseScope smo(options_.breakdown, &io_stats_, OpPhase::kSmo);
    LIOD_RETURN_IF_ERROR(RebuildSubtree(path, rebuild_depth));
  }
  return Status::Ok();
}

Status LippIndex::ScanEmit(BlockId node, Key start_key, std::size_t count,
                           std::vector<Record>* out, std::uint32_t from_slot) {
  const std::size_t bs = options_.block_size;
  LippNodeHeader header;
  LIOD_RETURN_IF_ERROR(file_->ReadBytes(static_cast<std::uint64_t>(node) * bs,
                                        sizeof(header),
                                        reinterpret_cast<std::byte*>(&header)));
  io_stats_.CountInnerNodeVisit();
  // Read slots in block-sized chunks; a chunk read costs its blocks once.
  const std::uint32_t chunk = static_cast<std::uint32_t>(bs / sizeof(LippSlot));
  std::uint32_t slot = from_slot;
  std::vector<LippSlot> slots;
  while (slot < header.num_slots && out->size() < count) {
    const std::uint32_t take = std::min(chunk, header.num_slots - slot);
    LIOD_RETURN_IF_ERROR(ReadLippSlotRange(file_.get(), node, slot, take, &slots));
    for (std::uint32_t i = 0; i < take && out->size() < count; ++i) {
      const LippSlot& value = slots[i];
      switch (value.kind()) {
        case LippSlotKind::kNull:
          break;
        case LippSlotKind::kData:
          if (value.key() >= start_key) out->push_back(Record{value.key(), value.payload()});
          break;
        case LippSlotKind::kNode:
          LIOD_RETURN_IF_ERROR(ScanEmit(value.child(), start_key, count, out, 0));
          break;
      }
    }
    slot += take;
  }
  return Status::Ok();
}

Status LippIndex::Scan(Key start_key, std::size_t count, std::vector<Record>* out) {
  PhaseScope scope(options_.breakdown, &io_stats_, OpPhase::kSearch);
  out->clear();
  if (!bulkloaded_ || count == 0) return Status::Ok();
  // Walk down to the start position, then emit in-order, unwinding to each
  // parent's next slot (the paper's costly back-and-forth traversal).
  const std::size_t bs = options_.block_size;
  std::vector<PathEntry> path;
  BlockId node = root_;
  for (;;) {
    LippNodeHeader header;
    LIOD_RETURN_IF_ERROR(file_->ReadBytes(static_cast<std::uint64_t>(node) * bs,
                                          sizeof(header),
                                          reinterpret_cast<std::byte*>(&header)));
    io_stats_.CountInnerNodeVisit();
    const std::uint32_t slot = static_cast<std::uint32_t>(header.model.PredictClamped(
        start_key, static_cast<std::int64_t>(header.num_slots)));
    path.push_back(PathEntry{node, slot, false});
    LippSlot value;
    LIOD_RETURN_IF_ERROR(ReadLippSlot(file_.get(), node, slot, &value));
    if (value.kind() != LippSlotKind::kNode) break;
    node = value.child();
  }
  // Emit from the deepest node starting at the predicted slot, then unwind.
  for (std::size_t d = path.size(); d-- > 0 && out->size() < count;) {
    LIOD_RETURN_IF_ERROR(ScanEmit(path[d].block, start_key, count, out, path[d].slot));
    if (d > 0) path[d - 1].slot += 1;
  }
  return Status::Ok();
}

IndexStats LippIndex::GetIndexStats() const {
  IndexStats stats;
  stats.num_records = num_records_;
  stats.leaf_bytes = file_->size_bytes();
  stats.disk_bytes = stats.leaf_bytes;
  stats.freed_bytes = file_->freed_blocks() * options_.block_size;
  stats.height = max_level_;
  stats.smo_count = conflict_smo_count_ + rebuild_smo_count_;
  stats.node_count = node_count_;
  return stats;
}

Status LippIndex::CheckInvariants() {
  std::vector<Record> records;
  LIOD_RETURN_IF_ERROR(CollectLippSubtree(file_.get(), root_, &records, nullptr));
  if (records.size() != num_records_) {
    return Status::Corruption("LIPP record count mismatch: tree=" +
                              std::to_string(records.size()) +
                              " meta=" + std::to_string(num_records_));
  }
  for (std::size_t i = 1; i < records.size(); ++i) {
    if (records[i].key <= records[i - 1].key) {
      return Status::Corruption("LIPP in-order traversal not sorted");
    }
  }
  // Every record must be reachable through model predictions.
  for (const auto& r : records) {
    Payload p = 0;
    bool found = false;
    LIOD_RETURN_IF_ERROR(Lookup(r.key, &p, &found));
    if (!found || p != r.payload) {
      return Status::Corruption("LIPP key unreachable: " + std::to_string(r.key));
    }
  }
  return Status::Ok();
}

}  // namespace liod
