#include "alex/alex_index.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <cstring>

namespace liod {

namespace {
std::uint32_t Pow2Ceil(std::uint32_t v) {
  std::uint32_t p = 1;
  while (p < v) p <<= 1;
  return p;
}

/// First record index whose model-predicted slot is >= `boundary_slot` for a
/// 2-slot model. Partition and routing must agree, so splits always cut at
/// the model boundary, never at an arbitrary median.
std::size_t SplitPointByModel(const std::vector<Record>& records, const LinearModel& model,
                              std::int64_t boundary_slot) {
  std::size_t mid = 0;
  while (mid < records.size() &&
         model.PredictClamped(records[mid].key, 2) < boundary_slot) {
    ++mid;
  }
  return mid;
}
}  // namespace

AlexIndex::AlexIndex(const IndexOptions& options) : DiskIndex(options) {
  leaf_file_ = MakeFile(FileClass::kLeaf);
  if (options_.alex_layout == AlexLayout::kSplitFiles) {
    inner_file_ = MakeFile(FileClass::kInner);
  }
}

std::uint32_t AlexIndex::MaxBuildKeys() const {
  return static_cast<std::uint32_t>(static_cast<double>(options_.alex_max_data_node_slots) *
                                    options_.alex_initial_density);
}

// --- inner-node storage ----------------------------------------------------

DiskAddr AlexIndex::AllocateInner(std::uint32_t bytes) {
  const std::size_t bs = options_.block_size;
  bytes = (bytes + 15) & ~15u;  // keep nodes 16-byte aligned
  if (bytes > bs) {
    const std::uint32_t blocks = static_cast<std::uint32_t>((bytes + bs - 1) / bs);
    return DiskAddr{inner()->AllocateRun(blocks), 0};
  }
  if (pack_block_ == kInvalidBlock || pack_offset_ + bytes > bs) {
    pack_block_ = inner()->Allocate();
    pack_offset_ = 0;
  }
  const DiskAddr addr{pack_block_, pack_offset_};
  pack_offset_ += bytes;
  return addr;
}

Status AlexIndex::WriteInnerNode(DiskAddr addr, const AlexInnerHeader& header,
                                 std::span<const DiskAddr> children) {
  const std::uint64_t base =
      static_cast<std::uint64_t>(addr.block) * options_.block_size + addr.offset;
  std::vector<std::byte> image(sizeof(AlexInnerHeader) + children.size() * sizeof(DiskAddr));
  std::memcpy(image.data(), &header, sizeof(header));
  std::memcpy(image.data() + sizeof(header), children.data(),
              children.size() * sizeof(DiskAddr));
  return inner()->WriteBytes(base, image.size(), image.data());
}

Status AlexIndex::ReadInnerHeader(DiskAddr addr, AlexInnerHeader* header) {
  const std::uint64_t base =
      static_cast<std::uint64_t>(addr.block) * options_.block_size + addr.offset;
  return inner()->ReadBytes(base, sizeof(AlexInnerHeader),
                            reinterpret_cast<std::byte*>(header));
}

Status AlexIndex::ReadChild(DiskAddr node, std::uint32_t slot, DiskAddr* child) {
  const std::uint64_t base =
      static_cast<std::uint64_t>(node.block) * options_.block_size + node.offset +
      sizeof(AlexInnerHeader) + static_cast<std::uint64_t>(slot) * sizeof(DiskAddr);
  return inner()->ReadBytes(base, sizeof(DiskAddr), reinterpret_cast<std::byte*>(child));
}

Status AlexIndex::WriteChildRange(DiskAddr node, std::uint32_t first_slot,
                                  std::span<const DiskAddr> children) {
  const std::uint64_t base =
      static_cast<std::uint64_t>(node.block) * options_.block_size + node.offset +
      sizeof(AlexInnerHeader) + static_cast<std::uint64_t>(first_slot) * sizeof(DiskAddr);
  return inner()->WriteBytes(base, children.size() * sizeof(DiskAddr),
                             reinterpret_cast<const std::byte*>(children.data()));
}

// --- build -------------------------------------------------------------------

Status AlexIndex::BuildDataNodeLinked(std::span<const Record> records,
                                      std::uint32_t min_capacity, std::uint32_t level,
                                      DiskAddr* out_addr) {
  // Chain via the previously built node (bulkload runs left to right).
  BlockId start = kInvalidBlock;
  LIOD_RETURN_IF_ERROR(BuildAlexDataNode(data(), records, min_capacity, level,
                                         options_.block_size, last_built_data_,
                                         kNullAddr, &start, nullptr));
  if (!last_built_data_.IsNull()) {
    LIOD_RETURN_IF_ERROR(SetDataHeaderLink(static_cast<BlockId>(last_built_data_.block),
                                           /*set_next=*/true, TagData(start)));
  }
  last_built_data_ = TagData(start);
  ++data_node_count_;
  *out_addr = TagData(start);
  return Status::Ok();
}

Status AlexIndex::BuildSubtree(std::span<const Record> records, std::uint32_t level,
                               DiskAddr* out_addr) {
  const std::uint32_t max_keys = MaxBuildKeys();
  if (records.size() <= max_keys || level > 64) {
    const std::uint32_t min_cap = std::max<std::uint32_t>(
        64, static_cast<std::uint32_t>(static_cast<double>(records.size()) /
                                       options_.alex_initial_density) +
                1);
    return BuildDataNodeLinked(records, min_cap, level, out_addr);
  }

  // Fanout: aim for half-full children, two slots per child.
  const std::uint32_t target_children = static_cast<std::uint32_t>(
      records.size() / std::max<std::uint32_t>(1, max_keys / 2) + 1);
  const std::uint32_t fanout =
      std::clamp<std::uint32_t>(Pow2Ceil(target_children * 2), 4, options_.alex_max_fanout);

  AlexInnerHeader header{};
  header.node_type = kAlexInnerNodeType;
  header.num_children = fanout;
  header.level = level;
  header.model = LinearModel::MinMax(records.front().key, records.back().key,
                                     static_cast<std::int64_t>(fanout));
  header.total_bytes = static_cast<std::uint32_t>(sizeof(AlexInnerHeader) +
                                                  fanout * sizeof(DiskAddr));
  // Degenerate skew guard: if min-max interpolation dumps (nearly) all
  // records into one child pair, re-anchor the model at the quartiles so the
  // recursion provably shrinks. Routing stays consistent because this model
  // is the one stored in the node.
  {
    const std::int64_t first_pair =
        header.model.PredictClamped(records.front().key,
                                    static_cast<std::int64_t>(fanout)) / 2;
    const std::int64_t last_pair =
        header.model.PredictClamped(records.back().key,
                                    static_cast<std::int64_t>(fanout)) / 2;
    if (first_pair == last_pair) {
      const std::size_t q1 = records.size() / 4;
      const std::size_t q3 = records.size() * 3 / 4;
      header.model = LinearModel::FromPoints(
          records[q1].key, static_cast<double>(fanout) / 4.0, records[q3].key,
          static_cast<double>(fanout) * 3.0 / 4.0);
    }
  }

  // Partition records into pairs of model slots.
  std::vector<DiskAddr> children(fanout);
  std::size_t begin = 0;
  for (std::uint32_t pair = 0; pair < fanout / 2; ++pair) {
    std::size_t end = begin;
    while (end < records.size() &&
           header.model.PredictClamped(records[end].key,
                                       static_cast<std::int64_t>(fanout)) <
               static_cast<std::int64_t>(2 * pair + 2)) {
      ++end;
    }
    DiskAddr child;
    const auto group = records.subspan(begin, end - begin);
    LIOD_RETURN_IF_ERROR(BuildSubtree(group, level + 1, &child));
    children[2 * pair] = child;
    children[2 * pair + 1] = child;
    begin = end;
  }

  const DiskAddr addr = AllocateInner(header.total_bytes);
  ++inner_node_count_;
  LIOD_RETURN_IF_ERROR(WriteInnerNode(addr, header, children));
  *out_addr = addr;
  return Status::Ok();
}

Status AlexIndex::Bulkload(std::span<const Record> records) {
  LIOD_RETURN_IF_ERROR(CheckBulkloadInput(records));
  if (bulkloaded_) return Status::FailedPrecondition("Bulkload called twice");
  bulkloaded_ = true;
  last_built_data_ = kNullAddr;
  LIOD_RETURN_IF_ERROR(BuildSubtree(records, 0, &root_));
  num_records_ = records.size();
  // Height: walk down the leftmost path.
  height_ = 1;
  DiskAddr addr = root_;
  while (!IsData(addr)) {
    AlexInnerHeader header;
    LIOD_RETURN_IF_ERROR(ReadInnerHeader(addr, &header));
    LIOD_RETURN_IF_ERROR(ReadChild(addr, 0, &addr));
    ++height_;
  }
  return Status::Ok();
}

// --- traversal ----------------------------------------------------------------

Status AlexIndex::DescendToData(Key key, BlockId* start, AlexDataHeader* header,
                                std::vector<PathEntry>* path) {
  if (!bulkloaded_) return Status::FailedPrecondition("not bulkloaded");
  DiskAddr addr = root_;
  while (!IsData(addr)) {
    AlexInnerHeader ih;
    LIOD_RETURN_IF_ERROR(ReadInnerHeader(addr, &ih));
    io_stats_.CountInnerNodeVisit();
    const std::uint32_t slot = static_cast<std::uint32_t>(
        ih.model.PredictClamped(key, static_cast<std::int64_t>(ih.num_children)));
    if (path != nullptr) path->push_back(PathEntry{addr, slot, ih.num_children});
    LIOD_RETURN_IF_ERROR(ReadChild(addr, slot, &addr));
  }
  *start = static_cast<BlockId>(addr.block);
  const std::uint64_t base = static_cast<std::uint64_t>(*start) * options_.block_size;
  LIOD_RETURN_IF_ERROR(data()->ReadBytes(base, sizeof(AlexDataHeader),
                                         reinterpret_cast<std::byte*>(header)));
  io_stats_.CountLeafNodeVisit();
  return Status::Ok();
}

Status AlexIndex::Lookup(Key key, Payload* payload, bool* found) {
  PhaseScope scope(options_.breakdown, &io_stats_, OpPhase::kSearch);
  *found = false;
  BlockId start;
  AlexDataHeader header;
  LIOD_RETURN_IF_ERROR(DescendToData(key, &start, &header, nullptr));
  if (header.num_keys == 0) return Status::Ok();
  const std::int64_t pred =
      header.model.PredictClamped(key, static_cast<std::int64_t>(header.capacity));
  std::uint32_t slot, iters;
  LIOD_RETURN_IF_ERROR(
      AlexExponentialSearch(data(), start, header, key, pred, &slot, &iters));
  if (slot >= header.capacity) return Status::Ok();
  Record rec;
  LIOD_RETURN_IF_ERROR(ReadAlexSlot(data(), start, header, slot, &rec));
  if (rec.key == key) {
    // Gap mirrors replicate key and payload of the real slot, so the
    // leftmost match is already correct -- no bitmap access (Section 4.1).
    *payload = rec.payload;
    *found = true;
  }
  return Status::Ok();
}

// --- insert -------------------------------------------------------------------

Status AlexIndex::SetDataHeaderLink(BlockId start, bool set_next, DiskAddr value) {
  const std::uint64_t base = static_cast<std::uint64_t>(start) * options_.block_size;
  AlexDataHeader header;
  LIOD_RETURN_IF_ERROR(data()->ReadBytes(base, sizeof(header),
                                         reinterpret_cast<std::byte*>(&header)));
  if (set_next) {
    header.next = value;
  } else {
    header.prev = value;
  }
  return data()->WriteBytes(base, sizeof(header),
                            reinterpret_cast<const std::byte*>(&header));
}

Status AlexIndex::RelinkNeighbors(DiskAddr prev, DiskAddr next, BlockId new_first,
                                  BlockId new_last) {
  if (!prev.IsNull()) {
    LIOD_RETURN_IF_ERROR(SetDataHeaderLink(static_cast<BlockId>(prev.block),
                                           /*set_next=*/true, TagData(new_first)));
  }
  if (!next.IsNull()) {
    LIOD_RETURN_IF_ERROR(SetDataHeaderLink(static_cast<BlockId>(next.block),
                                           /*set_next=*/false, TagData(new_last)));
  }
  return Status::Ok();
}

Status AlexIndex::FindChildRun(DiskAddr parent, std::uint32_t hint_slot, DiskAddr child,
                               std::uint32_t* run_start, std::uint32_t* run_len) {
  AlexInnerHeader header;
  LIOD_RETURN_IF_ERROR(ReadInnerHeader(parent, &header));
  std::uint32_t lo = hint_slot;
  while (lo > 0) {
    DiskAddr c;
    LIOD_RETURN_IF_ERROR(ReadChild(parent, lo - 1, &c));
    if (!(c == child)) break;
    --lo;
  }
  std::uint32_t hi = hint_slot + 1;
  while (hi < header.num_children) {
    DiskAddr c;
    LIOD_RETURN_IF_ERROR(ReadChild(parent, hi, &c));
    if (!(c == child)) break;
    ++hi;
  }
  *run_start = lo;
  *run_len = hi - lo;
  return Status::Ok();
}

Status AlexIndex::ReplaceChildRun(std::vector<PathEntry>& path, DiskAddr old_child,
                                  std::span<const DiskAddr> replacements) {
  const PathEntry& parent = path.back();
  std::uint32_t run_start, run_len;
  LIOD_RETURN_IF_ERROR(
      FindChildRun(parent.node, parent.slot, old_child, &run_start, &run_len));
  std::vector<DiskAddr> ptrs(run_len);
  if (replacements.size() == 1) {
    std::fill(ptrs.begin(), ptrs.end(), replacements[0]);
  } else {
    // Two replacements: split the run in half.
    const std::uint32_t half = run_len / 2;
    for (std::uint32_t i = 0; i < run_len; ++i) {
      ptrs[i] = i < half ? replacements[0] : replacements[1];
    }
  }
  return WriteChildRange(parent.node, run_start, ptrs);
}

Status AlexIndex::ExpandDataNode(BlockId start, const AlexDataHeader& header,
                                 std::vector<PathEntry>& path) {
  std::vector<Record> records;
  LIOD_RETURN_IF_ERROR(CollectAlexDataRecords(data(), start, header, &records));
  BlockId new_start;
  LIOD_RETURN_IF_ERROR(BuildAlexDataNode(data(), records, header.capacity * 2,
                                         header.level, options_.block_size, header.prev,
                                         header.next, &new_start, nullptr));
  LIOD_RETURN_IF_ERROR(RelinkNeighbors(header.prev, header.next, new_start, new_start));
  if (path.empty()) {
    root_ = TagData(new_start);
  } else {
    const DiskAddr replacement[1] = {TagData(new_start)};
    LIOD_RETURN_IF_ERROR(ReplaceChildRun(path, TagData(start), replacement));
  }
  data()->Free(start, header.run_blocks);
  return Status::Ok();
}

Status AlexIndex::SplitDataNode(BlockId start, const AlexDataHeader& header,
                                std::vector<PathEntry>& path, bool* retry) {
  *retry = false;
  std::vector<Record> records;
  LIOD_RETURN_IF_ERROR(CollectAlexDataRecords(data(), start, header, &records));

  if (path.empty()) {
    // The root is this data node: split down with a new 2-way inner root.
    AlexInnerHeader ih{};
    ih.node_type = kAlexInnerNodeType;
    ih.num_children = 2;
    ih.level = header.level;
    ih.model = LinearModel::MinMax(records.front().key, records.back().key, 2);
    ih.total_bytes = sizeof(AlexInnerHeader) + 2 * sizeof(DiskAddr);
    const std::size_t mid = SplitPointByModel(records, ih.model, 1);
    BlockId left, right;
    const std::uint32_t min_cap_left = std::max<std::uint32_t>(
        64, static_cast<std::uint32_t>(static_cast<double>(mid) /
                                       options_.alex_initial_density) +
                1);
    const std::uint32_t min_cap_right = std::max<std::uint32_t>(
        64, static_cast<std::uint32_t>(static_cast<double>(records.size() - mid) /
                                       options_.alex_initial_density) +
                1);
    LIOD_RETURN_IF_ERROR(BuildAlexDataNode(
        data(), std::span<const Record>(records).subspan(0, mid), min_cap_left,
        header.level + 1, options_.block_size, header.prev, kNullAddr, &left, nullptr));
    LIOD_RETURN_IF_ERROR(BuildAlexDataNode(
        data(), std::span<const Record>(records).subspan(mid), min_cap_right,
        header.level + 1, options_.block_size, TagData(left), header.next, &right,
        nullptr));
    LIOD_RETURN_IF_ERROR(SetDataHeaderLink(left, /*set_next=*/true, TagData(right)));
    LIOD_RETURN_IF_ERROR(RelinkNeighbors(header.prev, header.next, left, right));
    const DiskAddr children[2] = {TagData(left), TagData(right)};
    const DiskAddr addr = AllocateInner(ih.total_bytes);
    ++inner_node_count_;
    ++data_node_count_;
    LIOD_RETURN_IF_ERROR(WriteInnerNode(addr, ih, children));
    root_ = addr;
    ++height_;
    data()->Free(start, header.run_blocks);
    return Status::Ok();
  }

  const PathEntry parent = path.back();
  std::uint32_t run_start, run_len;
  LIOD_RETURN_IF_ERROR(
      FindChildRun(parent.node, parent.slot, TagData(start), &run_start, &run_len));

  if (run_len < 2) {
    AlexInnerHeader pih;
    LIOD_RETURN_IF_ERROR(ReadInnerHeader(parent.node, &pih));
    if (pih.num_children < options_.alex_max_fanout) {
      // Expand the parent so the child owns two slots, then retry.
      LIOD_RETURN_IF_ERROR(ExpandInnerNode(path, path.size() - 1));
      *retry = true;
      return Status::Ok();
    }
    // Parent at maximum fanout: split down (new inner node in our place).
    AlexInnerHeader ih{};
    ih.node_type = kAlexInnerNodeType;
    ih.num_children = 2;
    ih.level = header.level;
    ih.model = LinearModel::MinMax(records.front().key, records.back().key, 2);
    ih.total_bytes = sizeof(AlexInnerHeader) + 2 * sizeof(DiskAddr);
    const std::size_t mid = SplitPointByModel(records, ih.model, 1);
    BlockId left, right;
    const std::uint32_t down_cap_left = std::max<std::uint32_t>(
        64, static_cast<std::uint32_t>(static_cast<double>(mid) /
                                       options_.alex_initial_density) +
                1);
    const std::uint32_t down_cap_right = std::max<std::uint32_t>(
        64, static_cast<std::uint32_t>(static_cast<double>(records.size() - mid) /
                                       options_.alex_initial_density) +
                1);
    LIOD_RETURN_IF_ERROR(BuildAlexDataNode(
        data(), std::span<const Record>(records).subspan(0, mid), down_cap_left,
        header.level + 1, options_.block_size, header.prev, kNullAddr, &left, nullptr));
    LIOD_RETURN_IF_ERROR(BuildAlexDataNode(
        data(), std::span<const Record>(records).subspan(mid), down_cap_right,
        header.level + 1, options_.block_size, TagData(left), header.next, &right,
        nullptr));
    LIOD_RETURN_IF_ERROR(SetDataHeaderLink(left, /*set_next=*/true, TagData(right)));
    LIOD_RETURN_IF_ERROR(RelinkNeighbors(header.prev, header.next, left, right));
    const DiskAddr children[2] = {TagData(left), TagData(right)};
    const DiskAddr addr = AllocateInner(ih.total_bytes);
    ++inner_node_count_;
    ++data_node_count_;
    LIOD_RETURN_IF_ERROR(WriteInnerNode(addr, ih, children));
    const DiskAddr replacement[1] = {addr};
    LIOD_RETURN_IF_ERROR(ReplaceChildRun(path, TagData(start), replacement));
    data()->Free(start, header.run_blocks);
    return Status::Ok();
  }

  // Split sideways: partition by the parent's model at the run midpoint.
  AlexInnerHeader pih;
  LIOD_RETURN_IF_ERROR(ReadInnerHeader(parent.node, &pih));
  const std::uint32_t mid_slot = run_start + run_len / 2;
  std::size_t mid = 0;
  while (mid < records.size() &&
         pih.model.PredictClamped(records[mid].key,
                                  static_cast<std::int64_t>(pih.num_children)) <
             static_cast<std::int64_t>(mid_slot)) {
    ++mid;
  }
  BlockId left, right;
  const std::uint32_t min_cap_left = std::max<std::uint32_t>(
      64, static_cast<std::uint32_t>(static_cast<double>(mid) /
                                     options_.alex_initial_density) +
              1);
  const std::uint32_t min_cap_right = std::max<std::uint32_t>(
      64, static_cast<std::uint32_t>(static_cast<double>(records.size() - mid) /
                                     options_.alex_initial_density) +
              1);
  LIOD_RETURN_IF_ERROR(BuildAlexDataNode(
      data(), std::span<const Record>(records).subspan(0, mid), min_cap_left,
      header.level, options_.block_size, header.prev, kNullAddr, &left, nullptr));
  LIOD_RETURN_IF_ERROR(BuildAlexDataNode(
      data(), std::span<const Record>(records).subspan(mid), min_cap_right, header.level,
      options_.block_size, TagData(left), header.next, &right, nullptr));
  LIOD_RETURN_IF_ERROR(SetDataHeaderLink(left, /*set_next=*/true, TagData(right)));
  LIOD_RETURN_IF_ERROR(RelinkNeighbors(header.prev, header.next, left, right));
  ++data_node_count_;
  const DiskAddr replacements[2] = {TagData(left), TagData(right)};
  LIOD_RETURN_IF_ERROR(ReplaceChildRun(path, TagData(start), replacements));
  data()->Free(start, header.run_blocks);
  return Status::Ok();
}

Status AlexIndex::ExpandInnerNode(std::vector<PathEntry>& path, std::size_t depth) {
  const DiskAddr addr = path[depth].node;
  AlexInnerHeader header;
  LIOD_RETURN_IF_ERROR(ReadInnerHeader(addr, &header));
  std::vector<DiskAddr> children(header.num_children);
  const std::uint64_t base =
      static_cast<std::uint64_t>(addr.block) * options_.block_size + addr.offset +
      sizeof(AlexInnerHeader);
  LIOD_RETURN_IF_ERROR(inner()->ReadBytes(base, children.size() * sizeof(DiskAddr),
                                          reinterpret_cast<std::byte*>(children.data())));

  AlexInnerHeader new_header = header;
  new_header.num_children = header.num_children * 2;
  new_header.model = header.model.Expanded(2.0);
  new_header.total_bytes = static_cast<std::uint32_t>(
      sizeof(AlexInnerHeader) + new_header.num_children * sizeof(DiskAddr));
  std::vector<DiskAddr> new_children(new_header.num_children);
  for (std::uint32_t i = 0; i < header.num_children; ++i) {
    new_children[2 * i] = children[i];
    new_children[2 * i + 1] = children[i];
  }
  const DiskAddr new_addr = AllocateInner(new_header.total_bytes);
  LIOD_RETURN_IF_ERROR(WriteInnerNode(new_addr, new_header, new_children));
  freed_inner_bytes_ += header.total_bytes;

  if (depth == 0) {
    root_ = new_addr;
  } else {
    std::vector<PathEntry> parent_path(path.begin(),
                                       path.begin() + static_cast<std::ptrdiff_t>(depth));
    const DiskAddr replacement[1] = {new_addr};
    LIOD_RETURN_IF_ERROR(ReplaceChildRun(parent_path, addr, replacement));
  }
  return Status::Ok();
}

Status AlexIndex::RunSmo(BlockId start, const AlexDataHeader& header,
                         std::vector<PathEntry>& path) {
  ++smo_count_;
  AlexNodeCosts costs;
  costs.expected_exp_search_iters = header.expected_iters;
  costs.expected_shifts = header.expected_shifts;
  costs.num_lookups = header.num_lookups;
  costs.num_inserts = header.num_inserts;
  costs.num_exp_search_iters = header.num_exp_search_iters;
  costs.num_shifts = header.num_shifts;
  const bool can_expand = header.capacity * 2 <= options_.alex_max_data_node_slots;
  const AlexSmoDecision decision = AlexCostModel::Decide(costs, can_expand);
  if (decision == AlexSmoDecision::kExpand) {
    return ExpandDataNode(start, header, path);
  }
  bool retry = false;
  return SplitDataNode(start, header, path, &retry);
}

Status AlexIndex::InsertIntoData(BlockId start, AlexDataHeader& header,
                                 std::vector<PathEntry>& path, Key key, Payload payload,
                                 bool* retry, bool* inserted) {
  *retry = false;
  *inserted = false;
  const std::uint64_t base = static_cast<std::uint64_t>(start) * options_.block_size;

  std::uint32_t slot = header.capacity;
  std::uint32_t iters = 0;
  bool exact = false;
  {
    PhaseScope search(options_.breakdown, &io_stats_, OpPhase::kSearch);
    const std::int64_t pred =
        header.model.PredictClamped(key, static_cast<std::int64_t>(header.capacity));
    LIOD_RETURN_IF_ERROR(
        AlexExponentialSearch(data(), start, header, key, pred, &slot, &iters));
    if (slot < header.capacity && header.num_keys > 0) {
      Record rec;
      LIOD_RETURN_IF_ERROR(ReadAlexSlot(data(), start, header, slot, &rec));
      exact = rec.key == key;
    }
  }
  if (exact) {
    // Upsert: rewrite the whole mirror run [slot, real] so every copy
    // carries the new payload.
    PhaseScope ins(options_.breakdown, &io_stats_, OpPhase::kInsert);
    std::uint32_t real;
    LIOD_RETURN_IF_ERROR(NextSetBit(data(), start, header, slot, &real));
    if (real >= header.capacity) real = slot;  // defensive
    std::vector<Record> run(real - slot + 1, Record{key, payload});
    LIOD_RETURN_IF_ERROR(data()->WriteBytes(
        base + header.slot_region_off + static_cast<std::uint64_t>(slot) * 16,
        run.size() * sizeof(Record), reinterpret_cast<const std::byte*>(run.data())));
    *inserted = true;  // handled (no new key)
    return Status::Ok();
  }

  // Density check before inserting a new key.
  if (static_cast<double>(header.num_keys + 1) >
      options_.alex_max_density * static_cast<double>(header.capacity)) {
    {
      PhaseScope smo(options_.breakdown, &io_stats_, OpPhase::kSmo);
      LIOD_RETURN_IF_ERROR(RunSmo(start, header, path));
    }
    *retry = true;
    return Status::Ok();
  }

  std::uint64_t shifts = 0;
  {
    PhaseScope ins(options_.breakdown, &io_stats_, OpPhase::kInsert);
    std::uint32_t place = slot;
    bool place_is_gap = false;
    if (header.num_keys == 0) {
      place = 0;
      place_is_gap = true;
    } else if (slot >= header.capacity) {
      // Key greater than every stored key with no trailing gap (trailing
      // gaps hold the max-key sentinel, so lower_bound would have found
      // one): append via the shift-left path.
      place = header.capacity;
      place_is_gap = false;
    } else {
      bool is_set;
      LIOD_RETURN_IF_ERROR(ReadAlexBitmapBit(data(), start, header, slot, &is_set));
      place_is_gap = !is_set;
    }

    if (place_is_gap) {
      // Write the record and mirror it into the preceding gap run (S5).
      std::uint32_t prev_real;
      LIOD_RETURN_IF_ERROR(PrevSetBit(data(), start, header,
                                      place == 0 ? 0 : place - 1, &prev_real));
      std::uint32_t first_mirror =
          (place == 0 || prev_real == header.capacity) ? 0 : prev_real + 1;
      if (place == 0) first_mirror = 0;
      std::vector<Record> run(place - first_mirror + 1, Record{key, payload});
      LIOD_RETURN_IF_ERROR(data()->WriteBytes(
          base + header.slot_region_off + static_cast<std::uint64_t>(first_mirror) * 16,
          run.size() * sizeof(Record), reinterpret_cast<const std::byte*>(run.data())));
      LIOD_RETURN_IF_ERROR(WriteAlexBitmapBit(data(), start, header, place, true));
    } else {
      // Occupied: shift toward the nearest gap.
      std::uint32_t gap;
      LIOD_RETURN_IF_ERROR(NextZeroBit(data(), start, header, place, &gap));
      if (gap < header.capacity) {
        // Shift [place, gap) right by one.
        std::vector<Record> span_records(gap - place);
        LIOD_RETURN_IF_ERROR(data()->ReadBytes(
            base + header.slot_region_off + static_cast<std::uint64_t>(place) * 16,
            span_records.size() * sizeof(Record),
            reinterpret_cast<std::byte*>(span_records.data())));
        LIOD_RETURN_IF_ERROR(data()->WriteBytes(
            base + header.slot_region_off + static_cast<std::uint64_t>(place + 1) * 16,
            span_records.size() * sizeof(Record),
            reinterpret_cast<const std::byte*>(span_records.data())));
        shifts = gap - place;
        LIOD_RETURN_IF_ERROR(WriteAlexBitmapBit(data(), start, header, gap, true));
        // Place the new record, then mirror into the preceding gap run.
        std::uint32_t prev_real;
        LIOD_RETURN_IF_ERROR(PrevSetBit(data(), start, header,
                                        place == 0 ? 0 : place - 1, &prev_real));
        const std::uint32_t first_mirror =
            (place == 0 || prev_real == header.capacity) ? 0 : prev_real + 1;
        std::vector<Record> run(place - first_mirror + 1, Record{key, payload});
        LIOD_RETURN_IF_ERROR(data()->WriteBytes(
            base + header.slot_region_off + static_cast<std::uint64_t>(first_mirror) * 16,
            run.size() * sizeof(Record), reinterpret_cast<const std::byte*>(run.data())));
      } else {
        // No gap to the right: shift (gap_left, place) left by one.
        std::uint32_t gap_left;
        LIOD_RETURN_IF_ERROR(PrevZeroBit(data(), start, header, place - 1, &gap_left));
        if (gap_left >= header.capacity) {
          return Status::Corruption("ALEX data node has no gap below density limit");
        }
        std::vector<Record> span_records(place - 1 - gap_left);
        LIOD_RETURN_IF_ERROR(data()->ReadBytes(
            base + header.slot_region_off + static_cast<std::uint64_t>(gap_left + 1) * 16,
            span_records.size() * sizeof(Record),
            reinterpret_cast<std::byte*>(span_records.data())));
        LIOD_RETURN_IF_ERROR(data()->WriteBytes(
            base + header.slot_region_off + static_cast<std::uint64_t>(gap_left) * 16,
            span_records.size() * sizeof(Record),
            reinterpret_cast<const std::byte*>(span_records.data())));
        shifts = place - 1 - gap_left;
        const Record rec{key, payload};
        LIOD_RETURN_IF_ERROR(data()->WriteBytes(
            base + header.slot_region_off + static_cast<std::uint64_t>(place - 1) * 16,
            sizeof(Record), reinterpret_cast<const std::byte*>(&rec)));
        LIOD_RETURN_IF_ERROR(WriteAlexBitmapBit(data(), start, header, gap_left, true));
      }
    }
  }

  {
    // Maintenance: statistics + key count in the node header (Figure 6).
    PhaseScope maint(options_.breakdown, &io_stats_, OpPhase::kMaintenance);
    header.num_keys += 1;
    header.num_inserts += 1;
    header.num_exp_search_iters += iters;
    header.num_shifts += shifts;
    LIOD_RETURN_IF_ERROR(data()->WriteBytes(base, sizeof(header),
                                            reinterpret_cast<const std::byte*>(&header)));
  }
  ++num_records_;
  *inserted = true;
  return Status::Ok();
}

Status AlexIndex::Insert(Key key, Payload payload) {
  for (int attempt = 0; attempt < 16; ++attempt) {
    BlockId start;
    AlexDataHeader header;
    std::vector<PathEntry> path;
    {
      PhaseScope search(options_.breakdown, &io_stats_, OpPhase::kSearch);
      LIOD_RETURN_IF_ERROR(DescendToData(key, &start, &header, &path));
    }
    bool retry = false, inserted = false;
    LIOD_RETURN_IF_ERROR(InsertIntoData(start, header, path, key, payload, &retry,
                                        &inserted));
    if (inserted) return Status::Ok();
    if (!retry) return Status::Corruption("ALEX insert neither inserted nor retried");
  }
  return Status::Corruption("ALEX insert exceeded SMO retry budget");
}

// --- scan ---------------------------------------------------------------------

Status AlexIndex::Scan(Key start_key, std::size_t count, std::vector<Record>* out) {
  PhaseScope scope(options_.breakdown, &io_stats_, OpPhase::kSearch);
  out->clear();
  if (count == 0) return Status::Ok();
  BlockId start;
  AlexDataHeader header;
  LIOD_RETURN_IF_ERROR(DescendToData(start_key, &start, &header, nullptr));

  // Locate the first real slot with key >= start_key.
  std::uint32_t slot = 0;
  if (header.num_keys > 0) {
    const std::int64_t pred =
        header.model.PredictClamped(start_key, static_cast<std::int64_t>(header.capacity));
    std::uint32_t iters;
    LIOD_RETURN_IF_ERROR(
        AlexExponentialSearch(data(), start, header, start_key, pred, &slot, &iters));
  }

  DiskAddr current = TagData(start);
  bool first = true;
  while (!current.IsNull() && out->size() < count) {
    const BlockId node = static_cast<BlockId>(current.block);
    AlexDataHeader h;
    if (first) {
      h = header;
    } else {
      LIOD_RETURN_IF_ERROR(
          data()->ReadBytes(static_cast<std::uint64_t>(node) * options_.block_size,
                            sizeof(h), reinterpret_cast<std::byte*>(&h)));
      io_stats_.CountLeafNodeVisit();
      slot = 0;
    }
    first = false;
    // The bitmap is consumed one block at a time (Section 4.1: "one block is
    // loaded into main memory and scanned first"); the slots under each
    // bitmap block are then read in ascending order, so every touched slot
    // block is fetched once.
    const std::uint64_t node_base = static_cast<std::uint64_t>(node) * options_.block_size;
    const std::uint32_t words_per_chunk =
        static_cast<std::uint32_t>(options_.block_size / 8);
    std::uint32_t word = slot / 64;
    std::uint32_t cursor = slot;
    while (word < h.bitmap_words && out->size() < count) {
      const std::uint32_t take = std::min(words_per_chunk, h.bitmap_words - word);
      std::vector<std::uint64_t> words(take);
      LIOD_RETURN_IF_ERROR(
          data()->ReadBytes(node_base + sizeof(AlexDataHeader) +
                                static_cast<std::uint64_t>(word) * 8,
                            take * 8ull, reinterpret_cast<std::byte*>(words.data())));
      for (std::uint32_t w = 0; w < take && out->size() < count; ++w) {
        std::uint64_t bits = words[w];
        const std::uint32_t base_slot = (word + w) * 64;
        if (base_slot + 64 <= cursor) continue;
        if (cursor > base_slot) bits &= ~0ULL << (cursor - base_slot);
        while (bits != 0 && out->size() < count) {
          const std::uint32_t real =
              base_slot + static_cast<std::uint32_t>(__builtin_ctzll(bits));
          bits &= bits - 1;
          if (real >= h.capacity) break;
          Record rec;
          LIOD_RETURN_IF_ERROR(ReadAlexSlot(data(), node, h, real, &rec));
          if (rec.key >= start_key) out->push_back(rec);
        }
      }
      word += take;
    }
    current = h.next;
  }
  return Status::Ok();
}

IndexStats AlexIndex::GetIndexStats() const {
  IndexStats stats;
  stats.num_records = num_records_;
  if (inner_file_ != nullptr) {
    stats.inner_bytes = inner_file_->size_bytes();
    stats.leaf_bytes = leaf_file_->size_bytes();
  } else {
    stats.leaf_bytes = leaf_file_->size_bytes();
  }
  stats.disk_bytes = stats.inner_bytes + stats.leaf_bytes;
  stats.freed_bytes = (leaf_file_->freed_blocks() +
                       (inner_file_ != nullptr ? inner_file_->freed_blocks() : 0)) *
                          options_.block_size +
                      freed_inner_bytes_;
  stats.height = height_;
  stats.smo_count = smo_count_;
  stats.node_count = data_node_count_ + inner_node_count_;
  return stats;
}

Status AlexIndex::CheckInvariants() {
  // Walk the data-node chain from the leftmost node.
  BlockId start;
  AlexDataHeader header;
  std::vector<PathEntry> path;
  LIOD_RETURN_IF_ERROR(DescendToData(kMinKey, &start, &header, &path));
  DiskAddr current = TagData(start);
  std::uint64_t total = 0;
  Key prev_key = kMinKey;
  bool have_prev = false;
  while (!current.IsNull()) {
    const BlockId node = static_cast<BlockId>(current.block);
    AlexDataHeader h;
    LIOD_RETURN_IF_ERROR(
        data()->ReadBytes(static_cast<std::uint64_t>(node) * options_.block_size,
                          sizeof(h), reinterpret_cast<std::byte*>(&h)));
    std::vector<Record> records;
    LIOD_RETURN_IF_ERROR(CollectAlexDataRecords(data(), node, h, &records));
    if (records.size() != h.num_keys) {
      return Status::Corruption("ALEX node key count mismatch");
    }
    for (const auto& r : records) {
      if (have_prev && r.key <= prev_key) {
        return Status::Corruption("ALEX chain out of order at key " + std::to_string(r.key));
      }
      prev_key = r.key;
      have_prev = true;
    }
    // Slot array monotone (mirrors included).
    std::vector<Record> slots(h.capacity);
    LIOD_RETURN_IF_ERROR(data()->ReadBytes(
        static_cast<std::uint64_t>(node) * options_.block_size + h.slot_region_off,
        slots.size() * sizeof(Record), reinterpret_cast<std::byte*>(slots.data())));
    for (std::size_t i = 1; i < slots.size(); ++i) {
      if (slots[i].key < slots[i - 1].key) {
        return Status::Corruption("ALEX slot array not monotone");
      }
    }
    total += records.size();
    current = h.next;
  }
  if (total != num_records_) {
    return Status::Corruption("ALEX record count mismatch: chain=" + std::to_string(total) +
                              " meta=" + std::to_string(num_records_));
  }
  return Status::Ok();
}

}  // namespace liod
