#include "btree/btree_index.h"

namespace liod {

BTreeIndex::BTreeIndex(const IndexOptions& options)
    : DiskIndex(options),
      inner_file_(MakeFile(FileClass::kInner)),
      leaf_file_(MakeFile(FileClass::kLeaf)),
      tree_(inner_file_.get(), leaf_file_.get(), &io_stats_, options.btree_fill_factor) {}

Status BTreeIndex::Bulkload(std::span<const Record> records) {
  LIOD_RETURN_IF_ERROR(CheckBulkloadInput(records));
  return tree_.Bulkload(records);
}

Status BTreeIndex::Lookup(Key key, Payload* payload, bool* found) {
  PhaseScope scope(options_.breakdown, &io_stats_, OpPhase::kSearch);
  return tree_.Lookup(key, payload, found);
}

Status BTreeIndex::Insert(Key key, Payload payload) {
  // The B+-tree has no separate SMO/maintenance steps the way the learned
  // indexes do; splits are charged to the insert phase (Figure 6 reports the
  // B+-tree this way as well).
  PhaseScope scope(options_.breakdown, &io_stats_, OpPhase::kInsert);
  return tree_.Insert(key, payload);
}

Status BTreeIndex::Scan(Key start_key, std::size_t count, std::vector<Record>* out) {
  PhaseScope scope(options_.breakdown, &io_stats_, OpPhase::kSearch);
  return tree_.Scan(start_key, count, out);
}

IndexStats BTreeIndex::GetIndexStats() const {
  IndexStats stats;
  stats.num_records = tree_.num_records();
  stats.inner_bytes = inner_file_->size_bytes();
  stats.leaf_bytes = leaf_file_->size_bytes();
  stats.disk_bytes = stats.inner_bytes + stats.leaf_bytes;
  stats.freed_bytes =
      (inner_file_->freed_blocks() + leaf_file_->freed_blocks()) * options_.block_size;
  stats.height = tree_.height();
  stats.node_count = inner_file_->allocated_blocks() + tree_.leaf_count();
  return stats;
}

}  // namespace liod
