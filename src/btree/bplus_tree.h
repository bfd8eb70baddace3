#ifndef LIOD_BTREE_BPLUS_TREE_H_
#define LIOD_BTREE_BPLUS_TREE_H_

#include <cstdint>
#include <functional>
#include <span>
#include <vector>

#include "common/status.h"
#include "common/types.h"
#include "storage/block.h"
#include "storage/io_stats.h"
#include "storage/paged_file.h"

namespace liod {

/// A disk-resident B+-tree mapping Key -> 64-bit value. One node per block.
///
/// This is the reusable core: BTreeIndex wraps it as the paper's baseline
/// index (values = payloads), and the FITing-tree embeds one as its inner
/// structure (values = encoded segment addresses, Section 2.1).
///
/// Inner nodes use the min-key convention: entry i = (smallest key of child
/// subtree i, child block); searches for keys below entry 0 descend into
/// child 0. Leaves are dense sorted arrays with prev/next sibling links.
/// Deletion does not rebalance (underflowed leaves are legal); the paper's
/// workloads contain no deletes -- Erase exists for segment-map maintenance.
class BPlusTree {
 public:
  /// `inner_file`/`leaf_file` must outlive the tree; `stats` receives
  /// logical node-visit counts (block I/O is counted by the files).
  BPlusTree(PagedFile* inner_file, PagedFile* leaf_file, IoStats* stats,
            double fill_factor);

  /// Builds from records sorted by strictly increasing key. Callable once.
  Status Bulkload(std::span<const Record> records);

  Status Lookup(Key key, std::uint64_t* value, bool* found);

  /// Upsert.
  Status Insert(Key key, std::uint64_t value);

  /// Removes `key` if present.
  Status Erase(Key key, bool* erased);

  /// Greatest entry with key <= `key` (the segment-routing primitive).
  Status LookupFloor(Key key, Record* out, bool* found);

  /// Up to `count` records with keys >= `start_key`, in key order.
  Status Scan(Key start_key, std::size_t count, std::vector<Record>* out);

  /// Calls `fn(record)` for every record in key order (no I/O accounting
  /// shortcuts: reads every leaf block). Used by integration tests.
  Status ForEach(const std::function<Status(const Record&)>& fn);

  std::uint64_t height() const { return height_; }
  std::uint64_t num_records() const { return num_records_; }
  std::uint64_t leaf_count() const { return leaf_count_; }

  std::size_t leaf_capacity() const { return leaf_capacity_; }
  std::size_t inner_capacity() const { return inner_capacity_; }

  /// Verifies ordering, sibling links, and router consistency. Test helper;
  /// returns a failed Status describing the first violation.
  Status CheckInvariants();

 private:
  struct LeafHeader {
    std::uint32_t count;
    BlockId prev;
    BlockId next;
    std::uint32_t padding;
  };
  static_assert(sizeof(LeafHeader) == 16);

  struct InnerHeader {
    std::uint32_t count;
    std::uint32_t level;  // 1 = lowest inner level (children are leaves)
  };
  static_assert(sizeof(InnerHeader) == 8);

  // --- block layout helpers -------------------------------------------
  Record* LeafRecords(BlockBuffer& block) const {
    return block.As<Record>(sizeof(LeafHeader));
  }
  Key* InnerKeys(BlockBuffer& block) const { return block.As<Key>(sizeof(InnerHeader)); }
  BlockId* InnerChildren(BlockBuffer& block) const {
    return block.As<BlockId>(sizeof(InnerHeader) + inner_capacity_ * sizeof(Key));
  }
  // Read-only views of a const BlockBuffer or of a pinned PageRef.
  template <typename Block>
  const Record* LeafRecords(const Block& block) const {
    return block.template As<Record>(sizeof(LeafHeader));
  }
  template <typename Block>
  const Key* InnerKeys(const Block& block) const {
    return block.template As<Key>(sizeof(InnerHeader));
  }
  template <typename Block>
  const BlockId* InnerChildren(const Block& block) const {
    return block.template As<BlockId>(sizeof(InnerHeader) + inner_capacity_ * sizeof(Key));
  }

  /// Descends to the leaf that should contain `key`. Appends (block, child
  /// index within parent) pairs to `path` when non-null (leaf excluded).
  /// Inner nodes are read in place through one PageRef, hand over hand; no
  /// pin is left when it returns. The read-only paths (Lookup, LookupFloor,
  /// Scan, ForEach) pin leaves the same way; write paths copy blocks.
  struct PathEntry {
    BlockId block;
    std::uint32_t child_index;
  };
  Status DescendToLeaf(Key key, BlockId* leaf, std::vector<PathEntry>* path);

  /// Inserts (key, child) into the parent chain after a split at `level`.
  Status InsertIntoParent(std::vector<PathEntry>& path, std::size_t parent_depth,
                          Key key, BlockId child, std::uint32_t level);

  Status NewRoot(Key left_key, BlockId left, Key right_key, BlockId right,
                 std::uint32_t level);

  PagedFile* inner_file_;
  PagedFile* leaf_file_;
  IoStats* stats_;
  double fill_factor_;

  std::size_t leaf_capacity_;
  std::size_t inner_capacity_;

  // Meta state (the paper keeps the meta block memory-resident, Section 6.1).
  BlockId root_ = kInvalidBlock;
  std::uint64_t height_ = 0;  // levels including the leaf level
  std::uint64_t num_records_ = 0;
  std::uint64_t leaf_count_ = 0;
};

}  // namespace liod

#endif  // LIOD_BTREE_BPLUS_TREE_H_
