#ifndef LIOD_STORAGE_BUFFER_MANAGER_H_
#define LIOD_STORAGE_BUFFER_MANAGER_H_

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <functional>
#include <limits>
#include <memory>
#include <mutex>
#include <span>
#include <utility>
#include <vector>

#include "common/options.h"
#include "common/status.h"
#include "storage/block.h"
#include "storage/block_device.h"
#include "storage/io_stats.h"

namespace liod {

class BufferManager;

/// Eviction-policy strategy of one frame pool. Implementations track frames
/// by their stable slot id and pick the next victim. Slot ids are small and
/// dense (the manager recycles them), so implementations keep their state in
/// slot-indexed arrays. The manager calls every method under its latch, so
/// implementations need no locking of their own.
class EvictionPolicy {
 public:
  /// Victim() result when every frame of the pool is pinned.
  static constexpr std::size_t kNoVictim = std::numeric_limits<std::size_t>::max();
  /// Tells Victim() which frames are pinned and must not be chosen.
  using PinnedFn = std::function<bool(std::size_t frame)>;

  virtual ~EvictionPolicy() = default;

  virtual const char* name() const = 0;
  /// `frame` entered the pool (it is the most recent frame).
  virtual void Insert(std::size_t frame) = 0;
  /// `frame` was accessed again (hit).
  virtual void Touch(std::size_t frame) = 0;
  /// `frame` left the pool (evicted or dropped).
  virtual void Erase(std::size_t frame) = 0;
  /// Chooses the frame to evict, skipping frames for which `pinned` is true;
  /// kNoVictim when every frame is pinned. Only called when the pool is
  /// non-empty. When nothing is pinned the choice is the policy's plain one.
  virtual std::size_t Victim(const PinnedFn& pinned) = 0;
};

/// Factory over the policies of common/options.h: "lru", "clock", "fifo".
std::unique_ptr<EvictionPolicy> MakeEvictionPolicy(BufferPolicy policy);

/// A pinned, read-only view of one block, filled by FileHandle::PinBlock.
/// While the ref holds a pool frame, that frame cannot be evicted or dropped;
/// the pin is released when the ref is destroyed, Release()d, or passed to
/// another PinBlock. Pins are meant to be short: release a ref before the
/// next fetch from the same file, or a 1-frame pool has nothing left to
/// evict. When every frame of the pool is pinned, the ref owns a private
/// copy of the block instead of a frame.
class PageRef {
 public:
  PageRef() = default;
  ~PageRef() { Release(); }

  PageRef(const PageRef&) = delete;
  PageRef& operator=(const PageRef&) = delete;

  bool empty() const { return data_ == nullptr; }
  const std::byte* data() const { return data_; }

  /// Reinterprets the block at `offset` as a T (trivially copyable, fits).
  template <typename T>
  const T* As(std::size_t offset = 0) const {
    return reinterpret_cast<const T*>(data_ + offset);
  }

  /// Unpins the frame (or frees the private copy). Takes no latch.
  void Release() {
    if (pins_ != nullptr) pins_->fetch_sub(1);
    pins_ = nullptr;
    owned_.reset();
    data_ = nullptr;
  }

 private:
  friend class BufferManager;

  const std::byte* data_ = nullptr;
  std::atomic<std::uint32_t>* pins_ = nullptr;  ///< the pinned frame's count
  std::unique_ptr<std::byte[]> owned_;  ///< private copy when all frames are pinned
};

/// One registered file's view into the BufferManager: the block read/write
/// interface PagedFile forwards to. Instances are created by
/// BufferManager::RegisterFile and owned by the manager.
class FileHandle {
 public:
  /// Copies block `id` into `out`. A miss performs (and counts) a device
  /// read; a hit performs none.
  Status ReadBlock(BlockId id, std::byte* out);

  /// Pins block `id` into `ref` without copying it, after releasing whatever
  /// `ref` held. Counted I/O and the policy's view are exactly ReadBlock's.
  /// On a miss the device read lands straight in the new frame; if every
  /// frame of the pool is pinned, the block is served as a private copy
  /// owned by `ref` (one miss and one read, no eviction, nothing cached). On
  /// error `ref` is left empty and nothing is cached.
  Status PinBlock(BlockId id, PageRef* ref);

  /// Writes block `id` from `data`. Write-through: the device write happens
  /// immediately and is counted. Write-back: the frame is dirtied and the
  /// device write is paid (and counted) on eviction or Flush.
  Status WriteBlock(BlockId id, const std::byte* data);

  /// Batch ReadBlock: copies ids[i] into outs[i]. Counted I/O (hits, misses,
  /// reads, evictions) is bit-identical to calling ReadBlock per id -- the
  /// per-id hit/miss/eviction state machine runs in order; only the device
  /// reads of the misses are deferred into one ReadBatch submission. Devices
  /// without batch support (and non-strictly-increasing id sequences) take
  /// the sequential path outright.
  Status ReadBlocks(std::span<const BlockId> ids, std::span<std::byte* const> outs);

  /// Batch WriteBlock, same contract: counted I/O bit-identical to the
  /// per-id loop. Write-through mode submits all device writes as one
  /// WriteBatch (frames are never dirty under write-through, so the frame
  /// bookkeeping performs no device I/O of its own); write-back mode has no
  /// immediate device writes to batch and simply loops.
  Status WriteBlocks(std::span<const BlockId> ids, std::span<const std::byte* const> datas);

  /// Writes back every dirty frame of this file; frames stay cached (clean).
  Status Flush();

  /// Flushes dirty frames, then discards all of this file's frames.
  Status DropCaches();

  /// Extends the device to at least `new_num_blocks` blocks, serialized with
  /// the manager's device accesses (a shared pool may write back this file's
  /// frames from another shard's thread).
  Status Grow(BlockId new_num_blocks);

  FileClass file_class() const { return klass_; }
  std::size_t cached_blocks() const;
  std::size_t dirty_blocks() const;

  /// Installs the WAL-before-data hook: invoked (under the manager latch)
  /// before any deferred write-back of this file's dirty frames -- eviction
  /// or flush -- so the durability layer can force its write-ahead log onto
  /// the device ahead of the data pages it covers. The hook must not re-enter
  /// this manager (the WAL file lives on its own private manager, so a WAL
  /// force takes a different latch). Install before the file sees concurrent
  /// traffic; a cross-shard eviction may run it on another shard's thread.
  void SetWriteAheadHook(std::function<Status()> hook) { write_ahead_ = std::move(hook); }

 private:
  friend class BufferManager;

  BufferManager* manager_ = nullptr;
  BlockDevice* device_ = nullptr;
  IoStats* stats_ = nullptr;
  FileClass klass_ = FileClass::kOther;
  bool count_io_ = true;
  static constexpr std::uint32_t kNoSlot = std::numeric_limits<std::uint32_t>::max();

  /// Slot of block `id`'s frame, or kNoSlot when it is not cached.
  std::uint32_t SlotOf(BlockId id) const {
    return id < frames_.size() ? frames_[id] : kNoSlot;
  }

  std::size_t pool_ = 0;  ///< index into the manager's pool table
  /// Block -> slot of its frame (kNoSlot = not cached). Files are dense block
  /// ranges, so a hit is one array index. Sized from the device at
  /// registration and grown with it.
  std::vector<std::uint32_t> frames_;
  std::size_t cached_ = 0;  ///< entries of frames_ that are not kNoSlot
  std::function<Status()> write_ahead_;  ///< WAL-before-data hook, may be empty
};

/// Shared write-back buffer manager: one memory budget in frames spanning all
/// files registered with it, with pluggable eviction.
///
/// The seed reproduction hard-wired one write-through LRU BufferPool of
/// capacity `buffer_pool_blocks` per PagedFile -- the paper's Section 6.5
/// setting. Real disk-resident DBMSs instead manage one budgeted pool with an
/// eviction-policy knob and write-back, which is exactly the integration
/// point Abu-Libdeh et al. identify for learned indexes. This manager
/// expresses both:
///
///  - Per-file budgets (Options::shared_budget_frames == 0, the default):
///    every registered file gets its own pool of `file_budget_frames`. With
///    LRU + write-through this reproduces the seed's block I/O bit-exactly
///    (pinned by tests/buffer_regression_test.cc).
///  - Shared budget (shared_budget_frames > 0): all counted files draw from
///    one pool; a miss on any file can evict any other file's frame. Files
///    registered with count_io == false (the Section 6.2 memory-resident
///    inner mode) always get a private unbounded, uncounted pool.
///
/// Counting: device reads/writes plus frame hits/misses/evictions/writebacks
/// are folded into each file's IoStats, per file class.
///
/// Pinning: a frame pinned through a PageRef is never chosen as a victim. A
/// miss that finds every frame of its pool pinned is served uncached (no
/// eviction, no insert; a write-back write goes straight to the device,
/// after the write-ahead hook, and counts as a write-back).
/// Dropping a pinned frame (UnregisterFile, DropCaches) is a programming
/// error and aborts.
///
/// Thread-safety: every operation takes the manager latch, so one manager
/// may be shared across ShardedEngine shards (each shard is single-threaded
/// under its own shard mutex; the latch serializes cross-shard frame traffic
/// and device access, including Grow). IoStats counters are relaxed atomics
/// for the same reason. The one exception is PageRef::Release, an atomic
/// decrement of the frame's pin count.
class BufferManager {
 public:
  /// Sentinel budget: never evict.
  static constexpr std::size_t kUnbounded = std::numeric_limits<std::size_t>::max();

  struct Options {
    BufferPolicy policy = BufferPolicy::kLru;
    bool write_back = false;
    /// 0 = per-file budgets (the paper's per-file setting); > 0 = one shared
    /// pool of this many frames for every counted file.
    std::size_t shared_budget_frames = 0;
  };

  explicit BufferManager(const Options& options);
  ~BufferManager();

  BufferManager(const BufferManager&) = delete;
  BufferManager& operator=(const BufferManager&) = delete;

  /// Registers `device` (caller-owned, must outlive the handle). In per-file
  /// mode the file gets its own pool of `file_budget_frames`; in shared mode
  /// the budget argument is ignored and the file joins the shared pool.
  /// A budget of 0 frames is invalid: the handle is still returned, but every
  /// ReadBlock/WriteBlock on it fails with kInvalidArgument (a pool that can
  /// hold nothing would otherwise silently cache nothing).
  FileHandle* RegisterFile(BlockDevice* device, IoStats* stats, FileClass klass,
                           std::size_t file_budget_frames, bool count_io = true);

  /// Discards the file's frames WITHOUT flushing (the caller is deleting the
  /// file, e.g. PGM dropping a merged level) and destroys the handle.
  void UnregisterFile(FileHandle* file);

  /// Writes back every dirty frame of every registered file.
  Status FlushAll();

  const Options& options() const { return options_; }
  std::size_t cached_frames() const;

 private:
  friend class FileHandle;

  struct Frame {
    FileHandle* file = nullptr;  ///< nullptr = free slot
    BlockId block = 0;
    std::unique_ptr<std::byte[]> data;
    bool dirty = false;
    /// Live PageRefs on this frame. Raised and read (before eviction) under
    /// the latch; PageRef::Release lowers it without the latch.
    std::atomic<std::uint32_t> pins{0};
  };

  struct Pool {
    std::size_t budget = 0;
    std::size_t frames = 0;
    std::unique_ptr<EvictionPolicy> policy;
  };

  bool PoolIsPrivateLocked(const FileHandle* file) const;
  /// PinBlockLocked into a local ref plus one copy to `out`.
  Status ReadBlockLocked(FileHandle* file, BlockId id, std::byte* out);
  Status PinBlockLocked(FileHandle* file, BlockId id, PageRef* ref);
  Status WriteBlockLocked(FileHandle* file, BlockId id, const std::byte* data);
  Status ReadBlocksLocked(FileHandle* file, std::span<const BlockId> ids,
                          std::span<std::byte* const> outs);
  Status WriteBlocksLocked(FileHandle* file, std::span<const BlockId> ids,
                           std::span<const std::byte* const> datas);
  Status FlushLocked(FileHandle* file);
  /// Evicts unpinned victims until `pool` has room for one more frame, or
  /// stops when every frame is pinned; callers test HasRoom() afterwards.
  /// Dirty victims are written back (counted); a write-back failure aborts
  /// the operation and leaves the victim cached and dirty.
  Status MakeRoomLocked(Pool& pool);
  static bool HasRoom(const Pool& pool) { return pool.frames < pool.budget; }
  bool PinnedLocked(std::size_t slot) const { return slots_[slot].pins.load() != 0; }
  Status WritebackLocked(Frame& frame);
  /// Caches `data` (one block, ownership taken) as block `id` of `file`.
  std::size_t InsertFrameLocked(FileHandle* file, BlockId id, bool dirty,
                                std::unique_ptr<std::byte[]> data);
  /// InsertFrameLocked with a fresh frame copied from `src`.
  void InsertCopyLocked(FileHandle* file, BlockId id, bool dirty, const std::byte* src);
  /// Aborts if the frame is pinned.
  void DropFrameLocked(std::size_t slot);
  /// Drops every frame of `file`, in block order, without flushing.
  void DropFramesLocked(FileHandle* file);
  std::size_t NewPoolLocked(std::size_t budget);
  static Status CheckBudget(const Pool& pool);

  Options options_;
  mutable std::mutex mu_;
  std::vector<std::unique_ptr<FileHandle>> files_;
  /// Pool 0 = shared pool (when enabled). Private pools are freed when their
  /// file unregisters and their slots recycled, so file churn (e.g. PGM level
  /// merges) does not grow the table.
  std::vector<std::unique_ptr<Pool>> pools_;
  std::vector<std::size_t> free_pools_;
  std::deque<Frame> slots_;  ///< a deque: frames (and their pin counts) never move
  std::vector<std::size_t> free_slots_;
};

/// Maps the buffer-related IndexOptions knobs onto manager options -- the one
/// place DiskIndex and ShardedEngine both construct managers from.
BufferManager::Options BufferManagerOptionsFrom(const IndexOptions& options);

}  // namespace liod

#endif  // LIOD_STORAGE_BUFFER_MANAGER_H_
