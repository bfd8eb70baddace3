#include "btree/bplus_tree.h"

#include <algorithm>
#include <cassert>
#include <cstring>
#include <functional>

#include "common/search.h"

namespace liod {

BPlusTree::BPlusTree(PagedFile* inner_file, PagedFile* leaf_file, IoStats* stats,
                     double fill_factor)
    : inner_file_(inner_file),
      leaf_file_(leaf_file),
      stats_(stats),
      fill_factor_(fill_factor) {
  const std::size_t bs = leaf_file_->block_size();
  leaf_capacity_ = (bs - sizeof(LeafHeader)) / sizeof(Record);
  inner_capacity_ = (bs - sizeof(InnerHeader)) / (sizeof(Key) + sizeof(BlockId));
  assert(leaf_capacity_ >= 4 && inner_capacity_ >= 4);
}

Status BPlusTree::Bulkload(std::span<const Record> records) {
  if (root_ != kInvalidBlock) {
    return Status::FailedPrecondition("BPlusTree::Bulkload called twice");
  }
  const std::size_t bs = leaf_file_->block_size();
  BlockBuffer block(bs);

  // --- leaf level -------------------------------------------------------
  const std::size_t leaf_target = std::max<std::size_t>(
      1, static_cast<std::size_t>(fill_factor_ * static_cast<double>(leaf_capacity_)));
  std::vector<std::pair<Key, BlockId>> level;  // (first key, node) per node

  std::size_t i = 0;
  BlockId prev_leaf = kInvalidBlock;
  if (records.empty()) {
    block.Zero();
    auto* header = block.As<LeafHeader>();
    header->count = 0;
    header->prev = kInvalidBlock;
    header->next = kInvalidBlock;
    const BlockId leaf = leaf_file_->Allocate();
    LIOD_RETURN_IF_ERROR(leaf_file_->WriteBlock(leaf, block.data()));
    level.emplace_back(kMinKey, leaf);
  }
  while (i < records.size()) {
    const std::size_t take = std::min(leaf_target, records.size() - i);
    block.Zero();
    auto* header = block.As<LeafHeader>();
    header->count = static_cast<std::uint32_t>(take);
    header->prev = prev_leaf;
    header->next = kInvalidBlock;
    std::memcpy(LeafRecords(block), records.data() + i, take * sizeof(Record));
    const BlockId leaf = leaf_file_->Allocate();
    // Link the previous leaf forward.
    if (prev_leaf != kInvalidBlock) {
      BlockBuffer prev_block(bs);
      LIOD_RETURN_IF_ERROR(leaf_file_->ReadBlock(prev_leaf, prev_block.data()));
      prev_block.As<LeafHeader>()->next = leaf;
      LIOD_RETURN_IF_ERROR(leaf_file_->WriteBlock(prev_leaf, prev_block.data()));
    }
    LIOD_RETURN_IF_ERROR(leaf_file_->WriteBlock(leaf, block.data()));
    level.emplace_back(records[i].key, leaf);
    prev_leaf = leaf;
    i += take;
  }
  leaf_count_ = level.size();
  num_records_ = records.size();
  height_ = 1;

  // --- inner levels -----------------------------------------------------
  const std::size_t inner_target = std::max<std::size_t>(
      2, static_cast<std::size_t>(fill_factor_ * static_cast<double>(inner_capacity_)));
  std::uint32_t current_level = 1;
  while (level.size() > 1) {
    std::vector<std::pair<Key, BlockId>> next_level;
    std::size_t j = 0;
    while (j < level.size()) {
      std::size_t take = std::min(inner_target, level.size() - j);
      // Avoid leaving a lone child in the last node.
      if (level.size() - j - take == 1) take = std::min(take + 1, level.size() - j);
      block.Zero();
      auto* header = block.As<InnerHeader>();
      header->count = static_cast<std::uint32_t>(take);
      header->level = current_level;
      Key* keys = InnerKeys(block);
      BlockId* children = InnerChildren(block);
      for (std::size_t k = 0; k < take; ++k) {
        keys[k] = level[j + k].first;
        children[k] = level[j + k].second;
      }
      const BlockId node = inner_file_->Allocate();
      LIOD_RETURN_IF_ERROR(inner_file_->WriteBlock(node, block.data()));
      next_level.emplace_back(level[j].first, node);
      j += take;
    }
    level = std::move(next_level);
    ++height_;
    ++current_level;
  }
  root_ = level.front().second;
  return Status::Ok();
}

Status BPlusTree::DescendToLeaf(Key key, BlockId* leaf, std::vector<PathEntry>* path) {
  if (root_ == kInvalidBlock) return Status::FailedPrecondition("tree not bulkloaded");
  BlockId current = root_;
  PageRef page;
  for (std::uint64_t depth = height_; depth > 1; --depth) {
    LIOD_RETURN_IF_ERROR(inner_file_->PinBlock(current, &page));
    if (stats_ != nullptr) stats_->CountInnerNodeVisit();
    const auto* header = page.As<InnerHeader>();
    const Key* keys = InnerKeys(page);
    const Key* end = keys + header->count;
    // Rightmost entry with key <= search key; clamp to entry 0.
    const Key* it = UpperBound(keys, end, key);
    std::uint32_t idx = it == keys ? 0 : static_cast<std::uint32_t>(it - keys - 1);
    if (path != nullptr) path->push_back(PathEntry{current, idx});
    current = InnerChildren(page)[idx];
  }
  if (stats_ != nullptr) stats_->CountLeafNodeVisit();
  *leaf = current;
  return Status::Ok();
}

Status BPlusTree::Lookup(Key key, std::uint64_t* value, bool* found) {
  *found = false;
  BlockId leaf;
  LIOD_RETURN_IF_ERROR(DescendToLeaf(key, &leaf, nullptr));
  PageRef page;
  LIOD_RETURN_IF_ERROR(leaf_file_->PinBlock(leaf, &page));
  const auto* header = page.As<LeafHeader>();
  const Record* records = LeafRecords(page);
  const Record* end = records + header->count;
  const Record* it = LowerBound(records, end, key);
  if (it != end && it->key == key) {
    *value = it->payload;
    *found = true;
  }
  return Status::Ok();
}

Status BPlusTree::Insert(Key key, std::uint64_t value) {
  std::vector<PathEntry> path;
  BlockId leaf;
  LIOD_RETURN_IF_ERROR(DescendToLeaf(key, &leaf, &path));
  const std::size_t bs = leaf_file_->block_size();
  BlockBuffer block(bs);
  LIOD_RETURN_IF_ERROR(leaf_file_->ReadBlock(leaf, block.data()));
  auto* header = block.As<LeafHeader>();
  Record* records = LeafRecords(block);
  Record* end = records + header->count;
  Record* it = LowerBound(records, end, key);
  if (it != end && it->key == key) {  // upsert
    it->payload = value;
    return leaf_file_->WriteBlock(leaf, block.data());
  }
  const bool new_min = header->count > 0 && key < records[0].key;

  if (header->count < leaf_capacity_) {
    std::memmove(it + 1, it, static_cast<std::size_t>(end - it) * sizeof(Record));
    *it = Record{key, value};
    ++header->count;
    ++num_records_;
    LIOD_RETURN_IF_ERROR(leaf_file_->WriteBlock(leaf, block.data()));
  } else {
    // Split: right sibling takes the upper half.
    const std::uint32_t left_count = header->count / 2;
    const std::uint32_t right_count = header->count - left_count;
    BlockBuffer right_block(bs);
    right_block.Zero();
    auto* right_header = right_block.As<LeafHeader>();
    right_header->count = right_count;
    std::memcpy(LeafRecords(right_block), records + left_count, right_count * sizeof(Record));
    const BlockId right_leaf = leaf_file_->Allocate();
    right_header->prev = leaf;
    right_header->next = header->next;
    if (header->next != kInvalidBlock) {
      BlockBuffer nb(bs);
      LIOD_RETURN_IF_ERROR(leaf_file_->ReadBlock(header->next, nb.data()));
      nb.As<LeafHeader>()->prev = right_leaf;
      LIOD_RETURN_IF_ERROR(leaf_file_->WriteBlock(header->next, nb.data()));
    }
    header->next = right_leaf;
    header->count = left_count;
    ++leaf_count_;

    const Key right_first = LeafRecords(right_block)[0].key;
    // Insert into the proper side.
    if (key < right_first) {
      Record* lrecords = LeafRecords(block);
      Record* lend = lrecords + header->count;
      Record* lit = LowerBound(lrecords, lend, key);
      std::memmove(lit + 1, lit, static_cast<std::size_t>(lend - lit) * sizeof(Record));
      *lit = Record{key, value};
      ++header->count;
    } else {
      Record* rrecords = LeafRecords(right_block);
      Record* rend = rrecords + right_header->count;
      Record* rit = LowerBound(rrecords, rend, key);
      std::memmove(rit + 1, rit, static_cast<std::size_t>(rend - rit) * sizeof(Record));
      *rit = Record{key, value};
      ++right_header->count;
    }
    ++num_records_;
    LIOD_RETURN_IF_ERROR(leaf_file_->WriteBlock(leaf, block.data()));
    LIOD_RETURN_IF_ERROR(leaf_file_->WriteBlock(right_leaf, right_block.data()));
    LIOD_RETURN_IF_ERROR(
        InsertIntoParent(path, path.size(), right_first, right_leaf, /*level=*/1));
  }

  // Keep parent routers consistent when the subtree minimum decreased.
  if (new_min) {
    for (std::size_t d = path.size(); d-- > 0;) {
      BlockBuffer pb(inner_file_->block_size());
      LIOD_RETURN_IF_ERROR(inner_file_->ReadBlock(path[d].block, pb.data()));
      Key* keys = InnerKeys(pb);
      if (keys[path[d].child_index] <= key) break;
      keys[path[d].child_index] = key;
      LIOD_RETURN_IF_ERROR(inner_file_->WriteBlock(path[d].block, pb.data()));
      if (path[d].child_index > 0) break;  // no higher router references this min
    }
  }
  return Status::Ok();
}

Status BPlusTree::InsertIntoParent(std::vector<PathEntry>& path, std::size_t parent_depth,
                                   Key key, BlockId child, std::uint32_t level) {
  if (parent_depth == 0) {
    // The split reached the root: grow the tree by one level.
    Key left_key = kMinKey;
    BlockId left = root_;
    if (height_ == 1) {
      BlockBuffer lb(leaf_file_->block_size());
      LIOD_RETURN_IF_ERROR(leaf_file_->ReadBlock(root_, lb.data()));
      left_key = LeafRecords(lb)[0].key;
    } else {
      BlockBuffer lb(inner_file_->block_size());
      LIOD_RETURN_IF_ERROR(inner_file_->ReadBlock(root_, lb.data()));
      left_key = InnerKeys(lb)[0];
    }
    return NewRoot(left_key, left, key, child, level + 1);
  }

  const std::size_t bs = inner_file_->block_size();
  const PathEntry entry = path[parent_depth - 1];
  BlockBuffer block(bs);
  LIOD_RETURN_IF_ERROR(inner_file_->ReadBlock(entry.block, block.data()));
  auto* header = block.As<InnerHeader>();
  Key* keys = InnerKeys(block);
  BlockId* children = InnerChildren(block);
  const std::uint32_t pos = entry.child_index + 1;

  if (header->count < inner_capacity_) {
    std::memmove(keys + pos + 1, keys + pos, (header->count - pos) * sizeof(Key));
    std::memmove(children + pos + 1, children + pos, (header->count - pos) * sizeof(BlockId));
    keys[pos] = key;
    children[pos] = child;
    ++header->count;
    return inner_file_->WriteBlock(entry.block, block.data());
  }

  // Split the inner node.
  const std::uint32_t left_count = header->count / 2;
  const std::uint32_t right_count = header->count - left_count;
  BlockBuffer right_block(bs);
  right_block.Zero();
  auto* right_header = right_block.As<InnerHeader>();
  right_header->count = right_count;
  right_header->level = header->level;
  std::memcpy(InnerKeys(right_block), keys + left_count, right_count * sizeof(Key));
  std::memcpy(InnerChildren(right_block), children + left_count, right_count * sizeof(BlockId));
  header->count = left_count;
  const BlockId right_node = inner_file_->Allocate();
  const Key right_first = InnerKeys(right_block)[0];

  // Insert the new entry into the proper half.
  if (key < right_first) {
    Key* lkeys = InnerKeys(block);
    BlockId* lchildren = InnerChildren(block);
    const Key* it = UpperBound(lkeys, lkeys + header->count, key);
    const std::uint32_t p = static_cast<std::uint32_t>(it - lkeys);
    std::memmove(lkeys + p + 1, lkeys + p, (header->count - p) * sizeof(Key));
    std::memmove(lchildren + p + 1, lchildren + p, (header->count - p) * sizeof(BlockId));
    lkeys[p] = key;
    lchildren[p] = child;
    ++header->count;
  } else {
    Key* rkeys = InnerKeys(right_block);
    BlockId* rchildren = InnerChildren(right_block);
    const Key* it = UpperBound(rkeys, rkeys + right_header->count, key);
    const std::uint32_t p = static_cast<std::uint32_t>(it - rkeys);
    std::memmove(rkeys + p + 1, rkeys + p, (right_header->count - p) * sizeof(Key));
    std::memmove(rchildren + p + 1, rchildren + p, (right_header->count - p) * sizeof(BlockId));
    rkeys[p] = key;
    rchildren[p] = child;
    ++right_header->count;
  }
  LIOD_RETURN_IF_ERROR(inner_file_->WriteBlock(entry.block, block.data()));
  LIOD_RETURN_IF_ERROR(inner_file_->WriteBlock(right_node, right_block.data()));
  return InsertIntoParent(path, parent_depth - 1, right_first, right_node, header->level);
}

Status BPlusTree::NewRoot(Key left_key, BlockId left, Key right_key, BlockId right,
                          std::uint32_t level) {
  BlockBuffer block(inner_file_->block_size());
  block.Zero();
  auto* header = block.As<InnerHeader>();
  header->count = 2;
  header->level = level;
  InnerKeys(block)[0] = left_key;
  InnerKeys(block)[1] = right_key;
  InnerChildren(block)[0] = left;
  InnerChildren(block)[1] = right;
  const BlockId node = inner_file_->Allocate();
  LIOD_RETURN_IF_ERROR(inner_file_->WriteBlock(node, block.data()));
  root_ = node;
  ++height_;
  return Status::Ok();
}

Status BPlusTree::Erase(Key key, bool* erased) {
  *erased = false;
  BlockId leaf;
  LIOD_RETURN_IF_ERROR(DescendToLeaf(key, &leaf, nullptr));
  BlockBuffer block(leaf_file_->block_size());
  LIOD_RETURN_IF_ERROR(leaf_file_->ReadBlock(leaf, block.data()));
  auto* header = block.As<LeafHeader>();
  Record* records = LeafRecords(block);
  Record* end = records + header->count;
  Record* it = LowerBound(records, end, key);
  if (it == end || it->key != key) return Status::Ok();
  std::memmove(it, it + 1, static_cast<std::size_t>(end - it - 1) * sizeof(Record));
  --header->count;
  --num_records_;
  *erased = true;
  return leaf_file_->WriteBlock(leaf, block.data());
}

Status BPlusTree::LookupFloor(Key key, Record* out, bool* found) {
  *found = false;
  BlockId leaf;
  LIOD_RETURN_IF_ERROR(DescendToLeaf(key, &leaf, nullptr));
  PageRef page;
  while (leaf != kInvalidBlock) {
    LIOD_RETURN_IF_ERROR(leaf_file_->PinBlock(leaf, &page));
    const auto* header = page.As<LeafHeader>();
    const Record* records = LeafRecords(page);
    const Record* end = records + header->count;
    const Record* it = UpperBound(records, end, key);
    if (it != records) {
      *out = *(it - 1);
      *found = true;
      return Status::Ok();
    }
    // The whole leaf is greater than `key` (or empty): walk left.
    leaf = header->prev;
    if (leaf != kInvalidBlock && stats_ != nullptr) stats_->CountLeafNodeVisit();
  }
  return Status::Ok();
}

Status BPlusTree::Scan(Key start_key, std::size_t count, std::vector<Record>* out) {
  out->clear();
  if (count == 0) return Status::Ok();
  BlockId leaf;
  LIOD_RETURN_IF_ERROR(DescendToLeaf(start_key, &leaf, nullptr));
  PageRef page;
  bool first = true;
  while (leaf != kInvalidBlock && out->size() < count) {
    LIOD_RETURN_IF_ERROR(leaf_file_->PinBlock(leaf, &page));
    if (!first && stats_ != nullptr) stats_->CountLeafNodeVisit();
    first = false;
    const auto* header = page.As<LeafHeader>();
    const Record* records = LeafRecords(page);
    const Record* end = records + header->count;
    const Record* it = LowerBound(records, end, start_key);
    for (; it != end && out->size() < count; ++it) out->push_back(*it);
    leaf = header->next;
  }
  return Status::Ok();
}

Status BPlusTree::ForEach(const std::function<Status(const Record&)>& fn) {
  BlockId leaf;
  LIOD_RETURN_IF_ERROR(DescendToLeaf(kMinKey, &leaf, nullptr));
  PageRef page;
  std::vector<Record> records;
  while (leaf != kInvalidBlock) {
    LIOD_RETURN_IF_ERROR(leaf_file_->PinBlock(leaf, &page));
    const auto* header = page.As<LeafHeader>();
    const Record* first = LeafRecords(page);
    records.assign(first, first + header->count);
    leaf = header->next;
    // `fn` may fetch from this tree's files (CheckInvariants looks keys up),
    // so the pin goes before it runs.
    page.Release();
    for (const Record& record : records) LIOD_RETURN_IF_ERROR(fn(record));
  }
  return Status::Ok();
}

Status BPlusTree::CheckInvariants() {
  if (root_ == kInvalidBlock) return Status::Ok();
  // (a) The leaf chain is globally sorted and counts match.
  std::uint64_t seen = 0;
  Key prev_key = kMinKey;
  bool have_prev = false;
  Status chain_status = ForEach([&](const Record& r) {
    if (have_prev && r.key <= prev_key) {
      return Status::Corruption("leaf chain out of order");
    }
    prev_key = r.key;
    have_prev = true;
    ++seen;
    return Status::Ok();
  });
  LIOD_RETURN_IF_ERROR(chain_status);
  if (seen != num_records_) {
    return Status::Corruption("record count mismatch: chain=" + std::to_string(seen) +
                              " meta=" + std::to_string(num_records_));
  }
  // (b) Inner nodes have strictly increasing keys (checked by BFS).
  if (height_ > 1) {
    std::vector<BlockId> frontier{root_};
    BlockBuffer block(inner_file_->block_size());
    for (std::uint64_t depth = height_; depth > 1; --depth) {
      std::vector<BlockId> next;
      for (BlockId node : frontier) {
        LIOD_RETURN_IF_ERROR(inner_file_->ReadBlock(node, block.data()));
        const auto* header = block.As<InnerHeader>();
        if (header->count == 0) return Status::Corruption("empty inner node");
        const Key* keys = InnerKeys(block);
        for (std::uint32_t k = 1; k < header->count; ++k) {
          if (keys[k] <= keys[k - 1]) return Status::Corruption("inner keys out of order");
        }
        if (depth > 2) {
          const BlockId* children = InnerChildren(block);
          next.insert(next.end(), children, children + header->count);
        }
      }
      frontier = std::move(next);
    }
  }
  // (c) Every stored key is reachable through routing.
  Status probe = ForEach([&](const Record& r) {
    std::uint64_t value = 0;
    bool found = false;
    LIOD_RETURN_IF_ERROR(Lookup(r.key, &value, &found));
    if (!found || value != r.payload) {
      return Status::Corruption("key unreachable via routing: " + std::to_string(r.key));
    }
    return Status::Ok();
  });
  return probe;
}

}  // namespace liod
