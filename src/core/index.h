#ifndef LIOD_CORE_INDEX_H_
#define LIOD_CORE_INDEX_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "common/options.h"
#include "common/status.h"
#include "common/types.h"
#include "core/op_breakdown.h"
#include "storage/buffer_manager.h"
#include "storage/io_stats.h"
#include "storage/paged_file.h"

namespace liod {

/// Storage footprint and structural statistics of one index.
struct IndexStats {
  std::uint64_t num_records = 0;       ///< live key-payload pairs
  std::uint64_t disk_bytes = 0;        ///< total allocated on-disk bytes
  std::uint64_t inner_bytes = 0;       ///< bytes in inner-node files
  std::uint64_t leaf_bytes = 0;        ///< bytes in leaf/data files
  std::uint64_t freed_bytes = 0;       ///< invalid (unreclaimed) bytes
  std::uint64_t height = 0;            ///< root-to-leaf levels (max)
  std::uint64_t smo_count = 0;         ///< structural modifications performed
  std::uint64_t node_count = 0;        ///< nodes/segments currently live
};

/// Common interface of every on-disk index in the library: the B+-tree
/// baseline, the four learned indexes (Sections 2 and 4 of the paper), and
/// the hybrid designs (Section 6.1.2).
///
/// Concurrency: instances are single-threaded, matching the paper's setup.
/// Multi-threaded service is layered on top by engine/sharded_engine.h, which
/// key-range-partitions a dataset across many single-threaded instances.
/// Duplicate policy: Insert of an existing key updates its payload.
class DiskIndex {
 public:
  explicit DiskIndex(const IndexOptions& options);
  virtual ~DiskIndex() = default;

  DiskIndex(const DiskIndex&) = delete;
  DiskIndex& operator=(const DiskIndex&) = delete;

  /// Short identifier, e.g. "btree", "alex", "lipp".
  virtual std::string name() const = 0;

  /// Builds the index from records sorted by strictly increasing key.
  /// Must be called exactly once, before any other operation.
  virtual Status Bulkload(std::span<const Record> records) = 0;

  /// Point lookup. Sets *found and, when found, *payload.
  virtual Status Lookup(Key key, Payload* payload, bool* found) = 0;

  /// Upsert of one key-payload pair.
  virtual Status Insert(Key key, Payload payload) = 0;

  /// Removes one key. The paper's base structures have no delete path
  /// (deletes are its open direction), so the default returns
  /// kUnimplemented; the out-of-place update buffer (src/updates/)
  /// implements deletion as tombstones layered over any base index.
  virtual Status Delete(Key key);

  /// Range scan: locates `start_key` (or its successor) and returns up to
  /// `count` records in key order.
  virtual Status Scan(Key start_key, std::size_t count, std::vector<Record>* out) = 0;

  /// Structural/storage statistics.
  virtual IndexStats GetIndexStats() const = 0;

  const IndexOptions& options() const { return options_; }
  /// Virtual so decorators (updates/buffered_index.h) can expose the base
  /// index's counters as their own; all I/O of a decorated stack lands in
  /// one IoStats.
  virtual IoStats& io_stats() { return io_stats_; }
  virtual const IoStats& io_stats() const { return io_stats_; }

  /// Empties every buffer frame of the index, writing back dirty frames
  /// first (a no-op under write-through, where every frame is clean).
  /// Benchmarks call this after bulkload so measurements start cold, as in
  /// the paper's no-buffer default. Returns the first flush error, if any.
  virtual Status DropCaches();

  /// Writes back every dirty frame of every file without dropping it. The
  /// workload runner calls this at the end of each measured window so
  /// write-back I/O is attributed to the window that deferred it. No-op
  /// under write-through.
  virtual Status FlushBuffers();

  /// Drains any out-of-place staged updates into the base structure. No-op
  /// for indexes that apply updates in place (the default); the update-buffer
  /// decorator overrides it with a full merge. The workload runner calls it
  /// at the end of each measured window, before FlushBuffers, so deferred
  /// merge I/O is paid inside the window that staged it.
  virtual Status FlushUpdates() { return Status::Ok(); }

  /// The manager all of this index's files are registered with: its own by
  /// default, or IndexOptions::shared_buffer_manager when injected (e.g. one
  /// budget spanning every shard of a ShardedEngine).
  virtual BufferManager& buffer_manager() { return *buffer_manager_; }

  /// Creates an auxiliary paged file that shares this index's buffer
  /// manager, I/O stats, and flush/drop registry -- for decorators layering
  /// extra storage onto an index (e.g. the update buffer's spill runs).
  /// Release with ReleaseAuxFile before destroying the returned file.
  std::unique_ptr<PagedFile> MakeAuxFile(FileClass klass) { return MakeFile(klass); }

  /// Unregisters an auxiliary file that the caller is about to destroy. The
  /// file's dirty frames are discarded, not flushed.
  void ReleaseAuxFile(PagedFile* file) { RemoveFile(file); }

  /// Installs a WAL-before-data hook on every data file of this index --
  /// current and future (e.g. the file a PGM level merge creates mid-run).
  /// The buffer manager invokes it before any deferred write-back of a dirty
  /// frame, so the durability decorator can force its write-ahead log ahead
  /// of the data pages it covers. Install before the index sees operations.
  void SetWriteAheadHook(std::function<Status()> hook);

 protected:
  /// Creates a paged file of the given class honoring the shared options:
  /// buffer budget (per-file or shared), eviction policy, write-back,
  /// freed-space reuse, and the Section 6.2 memory-resident-inner mode
  /// (inner/meta files stop counting I/O and pin unbounded).
  std::unique_ptr<PagedFile> MakeFile(FileClass klass);

  /// Unregisters a file that the index is about to destroy (e.g. PGM deletes
  /// a merged level's file from disk, Section 6.3). The file's dirty frames
  /// are discarded, not flushed: it is being deleted.
  void RemoveFile(PagedFile* file);

  /// Validates that bulkload input is sorted by strictly increasing key.
  /// Every index calls this first and returns kInvalidArgument on violation.
  static Status CheckBulkloadInput(std::span<const Record> records);

  IndexOptions options_;
  IoStats io_stats_;

 private:
  /// Owned manager when no external one is injected. Declared before files_
  /// so any straggler PagedFiles of a misbehaving subclass fail loudly rather
  /// than silently; in practice subclasses own their files and destroy them
  /// (unregistering each) before this base class is torn down.
  std::unique_ptr<BufferManager> owned_buffer_manager_;
  BufferManager* buffer_manager_ = nullptr;
  std::vector<PagedFile*> files_;  // registry for DropCaches (non-owning)
  std::function<Status()> write_ahead_hook_;  // applied to current + future files
};

}  // namespace liod

#endif  // LIOD_CORE_INDEX_H_
