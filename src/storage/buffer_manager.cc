#include "storage/buffer_manager.h"

#include <algorithm>
#include <cassert>
#include <cstring>
#include <string>

namespace liod {

namespace {

constexpr std::uint32_t kNil = std::numeric_limits<std::uint32_t>::max();

/// Shared machinery of the exact-ordering policies: an intrusive recency list
/// (head = newest) threaded through slot-indexed prev/next links, so insert,
/// erase and move-to-front are array stores. LRU and FIFO differ only in
/// whether Touch reorders.
class ListPolicy : public EvictionPolicy {
 public:
  void Insert(std::size_t frame) override {
    if (frame >= links_.size()) links_.resize(frame + 1);
    PushFront(static_cast<std::uint32_t>(frame));
  }
  void Erase(std::size_t frame) override { Unlink(static_cast<std::uint32_t>(frame)); }
  std::size_t Victim(const PinnedFn& pinned) override {
    for (std::uint32_t frame = tail_; frame != kNil; frame = links_[frame].prev) {
      if (!pinned(frame)) return frame;
    }
    return kNoVictim;
  }

 protected:
  void PushFront(std::uint32_t frame) {
    links_[frame] = {kNil, head_};
    if (head_ != kNil) {
      links_[head_].prev = frame;
    } else {
      tail_ = frame;
    }
    head_ = frame;
  }
  void Unlink(std::uint32_t frame) {
    const Link link = links_[frame];
    (link.prev != kNil ? links_[link.prev].next : head_) = link.next;
    (link.next != kNil ? links_[link.next].prev : tail_) = link.prev;
  }

  struct Link {
    std::uint32_t prev;  ///< newer neighbour
    std::uint32_t next;  ///< older neighbour
  };
  std::vector<Link> links_;  // indexed by slot; meaningful only while listed
  std::uint32_t head_ = kNil;  // most recent
  std::uint32_t tail_ = kNil;  // least recent
};

class LruPolicy final : public ListPolicy {
 public:
  const char* name() const override { return "lru"; }
  void Touch(std::size_t frame) override {
    const auto slot = static_cast<std::uint32_t>(frame);
    if (slot == head_) return;
    Unlink(slot);
    PushFront(slot);
  }
};

class FifoPolicy final : public ListPolicy {
 public:
  const char* name() const override { return "fifo"; }
  void Touch(std::size_t) override {}  // insertion order only
};

/// Second-chance clock: a ring of frames with reference bits; the hand skips
/// (and clears) referenced frames and evicts the first unreferenced one.
/// Erased frames leave tombstones that are compacted once they dominate.
class ClockPolicy final : public EvictionPolicy {
 public:
  const char* name() const override { return "clock"; }

  void Insert(std::size_t frame) override {
    if (frame >= pos_.size()) pos_.resize(frame + 1);
    pos_[frame] = ring_.size();
    ring_.push_back({frame, false});
    ++live_;
  }

  void Touch(std::size_t frame) override { ring_[pos_[frame]].ref = true; }

  void Erase(std::size_t frame) override {
    ring_[pos_[frame]].frame = kTombstone;
    --live_;
    if (ring_.size() > 2 * live_ + 8) Compact();
  }

  std::size_t Victim(const PinnedFn& pinned) override {
    // Two sweeps visit every entry twice: the first clears an unpinned
    // frame's reference bit, the second takes it. Pinned frames are passed
    // over like tombstones, so finding nothing in two sweeps means every
    // frame is pinned.
    for (std::size_t step = 0; step < 2 * ring_.size(); ++step) {
      if (hand_ >= ring_.size()) hand_ = 0;
      Entry& entry = ring_[hand_];
      if (entry.frame == kTombstone || pinned(entry.frame)) {
        ++hand_;
      } else if (entry.ref) {
        entry.ref = false;  // second chance
        ++hand_;
      } else {
        return entry.frame;  // hand stays: Erase will tombstone this slot
      }
    }
    return kNoVictim;
  }

 private:
  static constexpr std::size_t kTombstone = static_cast<std::size_t>(-1);
  struct Entry {
    std::size_t frame;
    bool ref;
  };

  void Compact() {
    std::vector<Entry> packed;
    packed.reserve(live_);
    // Preserve the circular order as seen from the hand so sweep progress
    // carries over.
    for (std::size_t i = 0; i < ring_.size(); ++i) {
      const Entry& entry = ring_[(hand_ + i) % ring_.size()];
      if (entry.frame != kTombstone) packed.push_back(entry);
    }
    ring_ = std::move(packed);
    hand_ = 0;
    for (std::size_t i = 0; i < ring_.size(); ++i) pos_[ring_[i].frame] = i;
  }

  std::vector<Entry> ring_;
  std::vector<std::size_t> pos_;  // slot -> ring index, meaningful while live
  std::size_t hand_ = 0;
  std::size_t live_ = 0;
};

}  // namespace

std::unique_ptr<EvictionPolicy> MakeEvictionPolicy(BufferPolicy policy) {
  switch (policy) {
    case BufferPolicy::kLru: return std::make_unique<LruPolicy>();
    case BufferPolicy::kClock: return std::make_unique<ClockPolicy>();
    case BufferPolicy::kFifo: return std::make_unique<FifoPolicy>();
  }
  return std::make_unique<LruPolicy>();
}

// --- FileHandle: thin locking forwarders ------------------------------------

Status FileHandle::ReadBlock(BlockId id, std::byte* out) {
  std::lock_guard<std::mutex> lock(manager_->mu_);
  return manager_->ReadBlockLocked(this, id, out);
}

Status FileHandle::PinBlock(BlockId id, PageRef* ref) {
  ref->Release();  // before the latch: the old frame may be this fetch's victim
  std::lock_guard<std::mutex> lock(manager_->mu_);
  return manager_->PinBlockLocked(this, id, ref);
}

Status FileHandle::WriteBlock(BlockId id, const std::byte* data) {
  std::lock_guard<std::mutex> lock(manager_->mu_);
  return manager_->WriteBlockLocked(this, id, data);
}

Status FileHandle::ReadBlocks(std::span<const BlockId> ids,
                              std::span<std::byte* const> outs) {
  std::lock_guard<std::mutex> lock(manager_->mu_);
  return manager_->ReadBlocksLocked(this, ids, outs);
}

Status FileHandle::WriteBlocks(std::span<const BlockId> ids,
                               std::span<const std::byte* const> datas) {
  std::lock_guard<std::mutex> lock(manager_->mu_);
  return manager_->WriteBlocksLocked(this, ids, datas);
}

Status FileHandle::Flush() {
  std::lock_guard<std::mutex> lock(manager_->mu_);
  return manager_->FlushLocked(this);
}

Status FileHandle::DropCaches() {
  std::lock_guard<std::mutex> lock(manager_->mu_);
  LIOD_RETURN_IF_ERROR(manager_->FlushLocked(this));
  manager_->DropFramesLocked(this);  // all clean now
  return Status::Ok();
}

Status FileHandle::Grow(BlockId new_num_blocks) {
  std::lock_guard<std::mutex> lock(manager_->mu_);
  LIOD_RETURN_IF_ERROR(device_->Grow(new_num_blocks));
  if (frames_.size() < device_->num_blocks()) frames_.resize(device_->num_blocks(), kNoSlot);
  return Status::Ok();
}

std::size_t FileHandle::cached_blocks() const {
  std::lock_guard<std::mutex> lock(manager_->mu_);
  return cached_;
}

std::size_t FileHandle::dirty_blocks() const {
  std::lock_guard<std::mutex> lock(manager_->mu_);
  std::size_t dirty = 0;
  for (const std::uint32_t slot : frames_) {
    if (slot != kNoSlot && manager_->slots_[slot].dirty) ++dirty;
  }
  return dirty;
}

// --- BufferManager ----------------------------------------------------------

BufferManager::BufferManager(const Options& options) : options_(options) {
  if (options_.shared_budget_frames > 0) {
    (void)NewPoolLocked(options_.shared_budget_frames);  // pool 0: the shared pool
  }
}

BufferManager::~BufferManager() = default;

std::size_t BufferManager::NewPoolLocked(std::size_t budget) {
  auto pool = std::make_unique<Pool>();
  pool->budget = budget;
  pool->policy = MakeEvictionPolicy(options_.policy);
  if (!free_pools_.empty()) {
    const std::size_t index = free_pools_.back();
    free_pools_.pop_back();
    pools_[index] = std::move(pool);
    return index;
  }
  pools_.push_back(std::move(pool));
  return pools_.size() - 1;
}

bool BufferManager::PoolIsPrivateLocked(const FileHandle* file) const {
  return !(options_.shared_budget_frames > 0 && file->pool_ == 0);
}

FileHandle* BufferManager::RegisterFile(BlockDevice* device, IoStats* stats,
                                        FileClass klass, std::size_t file_budget_frames,
                                        bool count_io) {
  std::lock_guard<std::mutex> lock(mu_);
  auto file = std::make_unique<FileHandle>();
  file->manager_ = this;
  file->device_ = device;
  file->stats_ = stats;
  file->klass_ = klass;
  file->count_io_ = count_io;
  file->frames_.assign(device->num_blocks(), FileHandle::kNoSlot);
  if (!count_io) {
    // Memory-resident mode (Section 6.2): pinned, uncounted, unbounded --
    // never competes with counted files for the shared budget.
    file->pool_ = NewPoolLocked(kUnbounded);
  } else if (options_.shared_budget_frames > 0) {
    file->pool_ = 0;
  } else {
    file->pool_ = NewPoolLocked(file_budget_frames);
  }
  FileHandle* raw = file.get();
  files_.push_back(std::move(file));
  return raw;
}

void BufferManager::UnregisterFile(FileHandle* file) {
  std::lock_guard<std::mutex> lock(mu_);
  // The file is being deleted: its frames are discarded without write-back.
  // (PagedFile's destructor flushes first unless the file was marked deleted.)
  DropFramesLocked(file);
  if (PoolIsPrivateLocked(file)) {
    // Recycle the private pool's slot so file churn cannot grow the table.
    pools_[file->pool_].reset();
    free_pools_.push_back(file->pool_);
  }
  std::erase_if(files_, [file](const std::unique_ptr<FileHandle>& f) {
    return f.get() == file;
  });
}

Status BufferManager::CheckBudget(const Pool& pool) {
  if (pool.budget == 0) {
    return Status::InvalidArgument(
        "buffer budget must be at least 1 frame (got 0); use "
        "BufferManager::kUnbounded for no limit");
  }
  return Status::Ok();
}

Status BufferManager::WritebackLocked(Frame& frame) {
  // WAL-before-data: a deferred data-page write must not reach the device
  // ahead of the log records covering it. The hook forces the owning index's
  // WAL (which lives on its own private manager, so this does not re-enter
  // our latch) and is a no-op when the WAL has nothing unforced.
  if (frame.file->write_ahead_) LIOD_RETURN_IF_ERROR(frame.file->write_ahead_());
  LIOD_RETURN_IF_ERROR(frame.file->device_->Write(frame.block, frame.data.get()));
  if (frame.file->count_io_ && frame.file->stats_ != nullptr) {
    frame.file->stats_->CountWrite(frame.file->klass_);
    frame.file->stats_->CountWriteback(frame.file->klass_);
  }
  frame.dirty = false;
  return Status::Ok();
}

Status BufferManager::MakeRoomLocked(Pool& pool) {
  while (!HasRoom(pool)) {
    const std::size_t victim =
        pool.policy->Victim([this](std::size_t slot) { return PinnedLocked(slot); });
    if (victim == EvictionPolicy::kNoVictim) break;  // every frame is pinned
    Frame& frame = slots_[victim];
    // A failed write-back aborts the triggering operation; the victim stays
    // cached and dirty so no data is lost.
    if (frame.dirty) LIOD_RETURN_IF_ERROR(WritebackLocked(frame));
    if (frame.file->count_io_ && frame.file->stats_ != nullptr) {
      frame.file->stats_->CountEviction(frame.file->klass_);
    }
    DropFrameLocked(victim);
  }
  return Status::Ok();
}

std::size_t BufferManager::InsertFrameLocked(FileHandle* file, BlockId id, bool dirty,
                                             std::unique_ptr<std::byte[]> data) {
  std::size_t slot;
  if (!free_slots_.empty()) {
    slot = free_slots_.back();
    free_slots_.pop_back();
  } else {
    slot = slots_.size();
    assert(slot < FileHandle::kNoSlot && "frame slots exhausted");
    slots_.emplace_back();
  }
  Frame& frame = slots_[slot];
  frame.file = file;
  frame.block = id;
  frame.data = std::move(data);
  frame.dirty = dirty;
  if (id >= file->frames_.size()) {
    file->frames_.resize(std::max<std::size_t>(id + 1, file->device_->num_blocks()),
                         FileHandle::kNoSlot);
  }
  file->frames_[id] = static_cast<std::uint32_t>(slot);
  ++file->cached_;
  Pool& pool = *pools_[file->pool_];
  ++pool.frames;
  pool.policy->Insert(slot);
  return slot;
}

void BufferManager::InsertCopyLocked(FileHandle* file, BlockId id, bool dirty,
                                     const std::byte* src) {
  const std::size_t block_size = file->device_->block_size();
  auto data = std::make_unique_for_overwrite<std::byte[]>(block_size);
  std::memcpy(data.get(), src, block_size);
  (void)InsertFrameLocked(file, id, dirty, std::move(data));
}

void BufferManager::DropFrameLocked(std::size_t slot) {
  Frame& frame = slots_[slot];
  // Freeing a pinned frame would leave a PageRef pointing at freed memory.
  if (PinnedLocked(slot)) {
    CheckOk(Status::FailedPrecondition("block " + std::to_string(frame.block) +
                                       " is still pinned by a PageRef"),
            "BufferManager::DropFrameLocked");
  }
  Pool& pool = *pools_[frame.file->pool_];
  pool.policy->Erase(slot);
  --pool.frames;
  frame.file->frames_[frame.block] = FileHandle::kNoSlot;
  --frame.file->cached_;
  frame.file = nullptr;
  frame.data.reset();
  frame.dirty = false;
  free_slots_.push_back(slot);
}

void BufferManager::DropFramesLocked(FileHandle* file) {
  for (BlockId id = 0; file->cached_ > 0; ++id) {
    if (file->frames_[id] != FileHandle::kNoSlot) DropFrameLocked(file->frames_[id]);
  }
}

Status BufferManager::ReadBlockLocked(FileHandle* file, BlockId id, std::byte* out) {
  // A copying read is a pin plus one copy out of the frame, so the fetch,
  // counting and eviction rules live in PinBlockLocked alone. A miss costs
  // the same one copy as reading into `out` and copying that into a frame.
  PageRef ref;
  LIOD_RETURN_IF_ERROR(PinBlockLocked(file, id, &ref));
  std::memcpy(out, ref.data(), file->device_->block_size());
  return Status::Ok();
}

Status BufferManager::PinBlockLocked(FileHandle* file, BlockId id, PageRef* ref) {
  Pool& pool = *pools_[file->pool_];
  LIOD_RETURN_IF_ERROR(CheckBudget(pool));
  const auto pin = [ref](Frame& frame) {
    frame.pins.fetch_add(1);
    ref->pins_ = &frame.pins;
    ref->data_ = frame.data.get();
  };
  if (const std::uint32_t slot = file->SlotOf(id); slot != FileHandle::kNoSlot) {
    if (file->count_io_ && file->stats_ != nullptr) file->stats_->CountHit(file->klass_);
    pool.policy->Touch(slot);
    pin(slots_[slot]);
    return Status::Ok();
  }
  if (file->count_io_ && file->stats_ != nullptr) file->stats_->CountMiss(file->klass_);
  // Fetch straight into the buffer that becomes the frame BEFORE evicting: a
  // failed read must neither cache a stale frame nor cost another file's
  // victim its slot (under write-back an eager eviction would even pay a
  // device write for a read that never happens). The seed's BufferPool
  // read-then-evicted too.
  auto data = std::make_unique_for_overwrite<std::byte[]>(file->device_->block_size());
  LIOD_RETURN_IF_ERROR(file->device_->Read(id, data.get()));
  if (file->count_io_ && file->stats_ != nullptr) file->stats_->CountRead(file->klass_);
  LIOD_RETURN_IF_ERROR(MakeRoomLocked(pool));
  if (!HasRoom(pool)) {
    // Every frame is pinned: the ref keeps the block as a private copy.
    ref->owned_ = std::move(data);
    ref->data_ = ref->owned_.get();
    return Status::Ok();
  }
  pin(slots_[InsertFrameLocked(file, id, /*dirty=*/false, std::move(data))]);
  return Status::Ok();
}

Status BufferManager::WriteBlockLocked(FileHandle* file, BlockId id,
                                       const std::byte* data) {
  Pool& pool = *pools_[file->pool_];
  LIOD_RETURN_IF_ERROR(CheckBudget(pool));
  // Rejected up front in both modes, so a deferred write cannot cache (and
  // size the frame table for) a block the device does not have.
  if (id >= file->device_->num_blocks()) {
    return Status::OutOfRange("write past device end: block " + std::to_string(id));
  }
  if (!options_.write_back) {
    // Write-through: the device write always happens and is always counted.
    LIOD_RETURN_IF_ERROR(file->device_->Write(id, data));
    if (file->count_io_ && file->stats_ != nullptr) file->stats_->CountWrite(file->klass_);
  }
  const bool dirty = options_.write_back;
  if (const std::uint32_t slot = file->SlotOf(id); slot != FileHandle::kNoSlot) {
    if (file->count_io_ && file->stats_ != nullptr) file->stats_->CountHit(file->klass_);
    pool.policy->Touch(slot);
    Frame& frame = slots_[slot];
    // A pinned frame is being read in place; overwriting it would race.
    assert(!PinnedLocked(slot) && "WriteBlock on a pinned frame");
    std::memcpy(frame.data.get(), data, file->device_->block_size());
    frame.dirty = dirty;
    return Status::Ok();
  }
  if (file->count_io_ && file->stats_ != nullptr) file->stats_->CountMiss(file->klass_);
  LIOD_RETURN_IF_ERROR(MakeRoomLocked(pool));
  if (!HasRoom(pool)) {
    // Every frame is pinned: nothing can be cached, so a write-back write
    // goes to the device now (write-through already wrote it above). It is
    // a write-back paid at once, so it keeps WritebackLocked's WAL-before-data
    // order and counts.
    if (!dirty) return Status::Ok();
    if (file->write_ahead_) LIOD_RETURN_IF_ERROR(file->write_ahead_());
    LIOD_RETURN_IF_ERROR(file->device_->Write(id, data));
    if (file->count_io_ && file->stats_ != nullptr) {
      file->stats_->CountWrite(file->klass_);
      file->stats_->CountWriteback(file->klass_);
    }
    return Status::Ok();
  }
  // Write-allocate: a full-block write needs no device read to populate the
  // frame. In write-back mode the device write is deferred to eviction/flush.
  InsertCopyLocked(file, id, dirty, data);
  return Status::Ok();
}

namespace {

/// True when the id sequence is strictly increasing -- the shape the batch
/// paths are specified for (PagedFile only ever produces it). Anything else
/// takes the sequential per-id path so its semantics need no batch analysis.
bool StrictlyIncreasing(std::span<const BlockId> ids) {
  for (std::size_t i = 1; i < ids.size(); ++i) {
    if (ids[i] <= ids[i - 1]) return false;
  }
  return true;
}

}  // namespace

Status BufferManager::ReadBlocksLocked(FileHandle* file, std::span<const BlockId> ids,
                                       std::span<std::byte* const> outs) {
  // A range past the device end takes the per-id path too: it fails at the
  // first missing block exactly like ReadBlock, before any frame is promised.
  if (ids.size() < 2 || !file->device_->SupportsBatch() || !StrictlyIncreasing(ids) ||
      ids.back() >= file->device_->num_blocks()) {
    for (std::size_t i = 0; i < ids.size(); ++i) {
      LIOD_RETURN_IF_ERROR(ReadBlockLocked(file, ids[i], outs[i]));
    }
    return Status::Ok();
  }
  Pool& pool = *pools_[file->pool_];
  LIOD_RETURN_IF_ERROR(CheckBudget(pool));
  const std::size_t block_size = file->device_->block_size();
  // In-order replay of the sequential hit/miss state machine -- every counter
  // increment and every policy Touch/evict/Insert happens at the same point
  // it would per-id, so counted I/O is bit-identical. Only the misses' device
  // reads are deferred into one batch submission at the end. A missed block's
  // frame is inserted "promised" (clean, unfilled); with a budget smaller
  // than the batch a later miss may evict it again, so the fill loop below
  // re-looks each miss up and only fills frames that survived.
  std::vector<BlockId> miss_ids;
  std::vector<std::byte*> miss_outs;
  for (std::size_t i = 0; i < ids.size(); ++i) {
    const BlockId id = ids[i];
    if (const std::uint32_t slot = file->SlotOf(id); slot != FileHandle::kNoSlot) {
      if (file->count_io_ && file->stats_ != nullptr) file->stats_->CountHit(file->klass_);
      pool.policy->Touch(slot);
      std::memcpy(outs[i], slots_[slot].data.get(), block_size);
      continue;
    }
    if (file->count_io_ && file->stats_ != nullptr) {
      file->stats_->CountMiss(file->klass_);
      file->stats_->CountRead(file->klass_);
    }
    miss_ids.push_back(id);
    miss_outs.push_back(outs[i]);
    LIOD_RETURN_IF_ERROR(MakeRoomLocked(pool));
    if (HasRoom(pool)) {
      (void)InsertFrameLocked(file, id, /*dirty=*/false,
                              std::make_unique_for_overwrite<std::byte[]>(block_size));
    }
  }
  if (miss_ids.empty()) return Status::Ok();
  const Status status = file->device_->ReadBatch(miss_ids, miss_outs);
  if (!status.ok()) {
    // Drop the unfilled promised frames: caching garbage would be worse than
    // the (error-path-only) divergence from the sequential counts.
    for (const BlockId id : miss_ids) {
      if (const std::uint32_t slot = file->SlotOf(id); slot != FileHandle::kNoSlot) {
        DropFrameLocked(slot);
      }
    }
    return status;
  }
  for (std::size_t i = 0; i < miss_ids.size(); ++i) {
    if (const std::uint32_t slot = file->SlotOf(miss_ids[i]); slot != FileHandle::kNoSlot) {
      std::memcpy(slots_[slot].data.get(), miss_outs[i], block_size);
    }
  }
  return Status::Ok();
}

Status BufferManager::WriteBlocksLocked(FileHandle* file, std::span<const BlockId> ids,
                                        std::span<const std::byte* const> datas) {
  // Write-back defers all device writes to eviction/flush, so there is
  // nothing to batch here -- the per-id loop IS the batch path.
  if (ids.size() < 2 || !file->device_->SupportsBatch() || options_.write_back ||
      !StrictlyIncreasing(ids)) {
    for (std::size_t i = 0; i < ids.size(); ++i) {
      LIOD_RETURN_IF_ERROR(WriteBlockLocked(file, ids[i], datas[i]));
    }
    return Status::Ok();
  }
  Pool& pool = *pools_[file->pool_];
  LIOD_RETURN_IF_ERROR(CheckBudget(pool));
  const std::size_t block_size = file->device_->block_size();
  // Write-through: submit every device write as one batch up front. Under
  // write-through no frame is ever dirty, so the frame bookkeeping below
  // performs no device I/O and the device sees the same per-block write order
  // as the sequential loop.
  LIOD_RETURN_IF_ERROR(file->device_->WriteBatch(ids, datas));
  for (std::size_t i = 0; i < ids.size(); ++i) {
    const BlockId id = ids[i];
    if (file->count_io_ && file->stats_ != nullptr) file->stats_->CountWrite(file->klass_);
    if (const std::uint32_t slot = file->SlotOf(id); slot != FileHandle::kNoSlot) {
      if (file->count_io_ && file->stats_ != nullptr) file->stats_->CountHit(file->klass_);
      pool.policy->Touch(slot);
      assert(!PinnedLocked(slot) && "WriteBlocks on a pinned frame");
      std::memcpy(slots_[slot].data.get(), datas[i], block_size);
      continue;
    }
    if (file->count_io_ && file->stats_ != nullptr) file->stats_->CountMiss(file->klass_);
    LIOD_RETURN_IF_ERROR(MakeRoomLocked(pool));
    if (HasRoom(pool)) InsertCopyLocked(file, id, /*dirty=*/false, datas[i]);
  }
  return Status::Ok();
}

Status BufferManager::FlushLocked(FileHandle* file) {
  // The frame table is walked in block order, so write-backs are issued in
  // ascending block order.
  std::vector<std::size_t> dirty_slots;
  for (std::size_t seen = 0, id = 0; seen < file->cached_; ++id) {
    const std::uint32_t slot = file->frames_[id];
    if (slot == FileHandle::kNoSlot) continue;
    ++seen;
    if (slots_[slot].dirty) dirty_slots.push_back(slot);
  }
  if (dirty_slots.size() >= 2 && file->device_->SupportsBatch()) {
    // WAL-before-data once for the whole drain: the hook forces everything
    // unforced, so the first call covers all N pages (per-page re-invocation
    // would be a no-op anyway).
    if (file->write_ahead_) LIOD_RETURN_IF_ERROR(file->write_ahead_());
    std::vector<BlockId> ids;
    std::vector<const std::byte*> datas;
    ids.reserve(dirty_slots.size());
    datas.reserve(dirty_slots.size());
    for (std::size_t slot : dirty_slots) {
      ids.push_back(slots_[slot].block);
      datas.push_back(slots_[slot].data.get());
    }
    // Frames stay dirty on failure; writes are block-granular and idempotent,
    // so the next flush simply redoes the batch.
    LIOD_RETURN_IF_ERROR(file->device_->WriteBatch(ids, datas));
    for (std::size_t slot : dirty_slots) {
      if (file->count_io_ && file->stats_ != nullptr) {
        file->stats_->CountWrite(file->klass_);
        file->stats_->CountWriteback(file->klass_);
      }
      slots_[slot].dirty = false;
    }
    return Status::Ok();
  }
  for (std::size_t slot : dirty_slots) {
    LIOD_RETURN_IF_ERROR(WritebackLocked(slots_[slot]));
  }
  return Status::Ok();
}

Status BufferManager::FlushAll() {
  std::lock_guard<std::mutex> lock(mu_);
  for (const auto& file : files_) {
    LIOD_RETURN_IF_ERROR(FlushLocked(file.get()));
  }
  return Status::Ok();
}

std::size_t BufferManager::cached_frames() const {
  std::lock_guard<std::mutex> lock(mu_);
  return slots_.size() - free_slots_.size();
}

BufferManager::Options BufferManagerOptionsFrom(const IndexOptions& options) {
  BufferManager::Options manager_options;
  manager_options.policy = options.buffer_policy;
  manager_options.write_back = options.buffer_write_back;
  manager_options.shared_budget_frames = options.shared_buffer_budget_blocks;
  return manager_options;
}

}  // namespace liod
