#include <algorithm>
#include <array>
#include <cstdio>
#include <cstring>
#include <limits>
#include <list>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "common/random.h"
#include "storage/block_device.h"
#include "storage/buffer_manager.h"
#include "storage/disk_model.h"
#include "storage/fault_injection_device.h"
#include "storage/io_stats.h"
#include "storage/paged_file.h"

namespace liod {
namespace {

constexpr std::size_t kBs = 4096;

std::vector<std::byte> Pattern(std::size_t size, unsigned char seed) {
  std::vector<std::byte> data(size);
  for (std::size_t i = 0; i < size; ++i) {
    data[i] = static_cast<std::byte>((seed + i * 31) & 0xFF);
  }
  return data;
}

// --- MemoryBlockDevice --------------------------------------------------

TEST(MemoryBlockDevice, RoundTrip) {
  MemoryBlockDevice dev(kBs);
  ASSERT_TRUE(dev.Grow(4).ok());
  const auto data = Pattern(kBs, 7);
  ASSERT_TRUE(dev.Write(2, data.data()).ok());
  std::vector<std::byte> out(kBs);
  ASSERT_TRUE(dev.Read(2, out.data()).ok());
  EXPECT_EQ(0, std::memcmp(data.data(), out.data(), kBs));
}

TEST(MemoryBlockDevice, ReadPastEndFails) {
  MemoryBlockDevice dev(kBs);
  ASSERT_TRUE(dev.Grow(2).ok());
  std::vector<std::byte> out(kBs);
  EXPECT_EQ(dev.Read(2, out.data()).code(), Status::Code::kOutOfRange);
  EXPECT_EQ(dev.Write(5, out.data()).code(), Status::Code::kOutOfRange);
}

TEST(MemoryBlockDevice, GrowZeroFills) {
  MemoryBlockDevice dev(kBs);
  ASSERT_TRUE(dev.Grow(1).ok());
  std::vector<std::byte> out(kBs, std::byte{0xFF});
  ASSERT_TRUE(dev.Read(0, out.data()).ok());
  for (std::size_t i = 0; i < kBs; ++i) EXPECT_EQ(out[i], std::byte{0});
}

// --- FileBlockDevice ----------------------------------------------------

TEST(FileBlockDevice, RoundTripThroughRealFile) {
  const std::string path = ::testing::TempDir() + "/liod_fbd_test.bin";
  FileBlockDevice dev(path, kBs);
  ASSERT_TRUE(dev.ok());
  ASSERT_TRUE(dev.Grow(3).ok());
  const auto data = Pattern(kBs, 99);
  ASSERT_TRUE(dev.Write(1, data.data()).ok());
  std::vector<std::byte> out(kBs);
  ASSERT_TRUE(dev.Read(1, out.data()).ok());
  EXPECT_EQ(0, std::memcmp(data.data(), out.data(), kBs));
  std::remove(path.c_str());
}

TEST(FileBlockDevice, ReopenPreservesContents) {
  const std::string path = ::testing::TempDir() + "/liod_fbd_reopen.bin";
  const auto data = Pattern(kBs, 55);
  {
    FileBlockDevice dev(path, kBs);
    ASSERT_TRUE(dev.ok());
    ASSERT_TRUE(dev.Grow(2).ok());
    ASSERT_TRUE(dev.Write(1, data.data()).ok());
  }
  {
    FileBlockDevice dev(path, kBs, /*truncate=*/false);
    ASSERT_TRUE(dev.ok());
    EXPECT_EQ(dev.num_blocks(), 2u);
    std::vector<std::byte> out(kBs);
    ASSERT_TRUE(dev.Read(1, out.data()).ok());
    EXPECT_EQ(0, std::memcmp(data.data(), out.data(), kBs));
  }
  std::remove(path.c_str());
}

// --- BufferManager ------------------------------------------------------

/// One memory device + one registered file, per-file budget.
struct BufferedFile {
  MemoryBlockDevice dev{kBs};
  IoStats stats;
  BufferManager manager;
  FileHandle* file;

  explicit BufferedFile(std::size_t budget, BufferManager::Options options = {},
                        BlockId blocks = 8, FileClass klass = FileClass::kLeaf)
      : manager(options) {
    CheckOk(dev.Grow(blocks), "BufferedFile grow");
    file = manager.RegisterFile(&dev, &stats, klass, budget);
  }
};

TEST(BufferManager, CapacityOneReusesLastBlockOnly) {
  // The paper's default: only the last fetched block is reusable (Sec 6.5).
  BufferedFile f(1);
  std::vector<std::byte> out(kBs);

  ASSERT_TRUE(f.file->ReadBlock(0, out.data()).ok());  // miss
  ASSERT_TRUE(f.file->ReadBlock(0, out.data()).ok());  // hit
  EXPECT_EQ(f.stats.snapshot().TotalReads(), 1u);
  ASSERT_TRUE(f.file->ReadBlock(1, out.data()).ok());  // miss, evicts 0
  ASSERT_TRUE(f.file->ReadBlock(0, out.data()).ok());  // miss again
  EXPECT_EQ(f.stats.snapshot().TotalReads(), 3u);
}

TEST(BufferManager, LruEvictionOrder) {
  BufferedFile f(2);
  std::vector<std::byte> out(kBs);

  ASSERT_TRUE(f.file->ReadBlock(0, out.data()).ok());  // cache: {0}
  ASSERT_TRUE(f.file->ReadBlock(1, out.data()).ok());  // cache: {1,0}
  ASSERT_TRUE(f.file->ReadBlock(0, out.data()).ok());  // hit; cache: {0,1}
  ASSERT_TRUE(f.file->ReadBlock(2, out.data()).ok());  // evicts 1
  EXPECT_EQ(f.stats.snapshot().TotalReads(), 3u);
  ASSERT_TRUE(f.file->ReadBlock(0, out.data()).ok());  // still cached
  EXPECT_EQ(f.stats.snapshot().TotalReads(), 3u);
  ASSERT_TRUE(f.file->ReadBlock(1, out.data()).ok());  // was evicted: miss
  EXPECT_EQ(f.stats.snapshot().TotalReads(), 4u);
}

TEST(BufferManager, HitMissAccountingAcrossEvictionBoundary) {
  // Capacity 2 with an access pattern that forces evict-then-refetch: the
  // hit/miss counters must stay consistent with the counted device reads.
  BufferedFile f(2);
  std::vector<std::byte> out(kBs);
  const auto hits = [&] { return f.stats.snapshot().TotalHits(); };
  const auto misses = [&] { return f.stats.snapshot().TotalMisses(); };

  ASSERT_TRUE(f.file->ReadBlock(0, out.data()).ok());  // miss; cache {0}
  ASSERT_TRUE(f.file->ReadBlock(1, out.data()).ok());  // miss; cache {1,0}
  ASSERT_TRUE(f.file->ReadBlock(0, out.data()).ok());  // hit;  cache {0,1}
  EXPECT_EQ(hits(), 1u);
  EXPECT_EQ(misses(), 2u);

  ASSERT_TRUE(f.file->ReadBlock(2, out.data()).ok());  // miss; evicts 1
  ASSERT_TRUE(f.file->ReadBlock(1, out.data()).ok());  // miss: 1 must refetch
  EXPECT_EQ(hits(), 1u);
  EXPECT_EQ(misses(), 4u);

  ASSERT_TRUE(f.file->ReadBlock(0, out.data()).ok());  // miss: 0 was evicted by 1
  ASSERT_TRUE(f.file->ReadBlock(0, out.data()).ok());  // hit
  EXPECT_EQ(hits(), 2u);
  EXPECT_EQ(misses(), 5u);

  // Every miss is a counted device read; hits never touch the device.
  EXPECT_EQ(f.stats.snapshot().TotalReads(), misses());
  EXPECT_EQ(f.file->cached_blocks(), 2u);
  EXPECT_EQ(f.stats.snapshot().EvictionsFor(FileClass::kLeaf), 3u);
  EXPECT_DOUBLE_EQ(f.stats.snapshot().OverallHitRate(), 2.0 / 7.0);
}

TEST(BufferManager, WriteThroughCountsEveryWrite) {
  BufferedFile f(4);
  const auto data = Pattern(kBs, 1);
  ASSERT_TRUE(f.file->WriteBlock(0, data.data()).ok());
  ASSERT_TRUE(f.file->WriteBlock(0, data.data()).ok());
  EXPECT_EQ(f.stats.snapshot().TotalWrites(), 2u);
  EXPECT_EQ(f.stats.snapshot().WritebacksFor(FileClass::kLeaf), 0u);
  // The written block is cached: reading it costs no device read.
  std::vector<std::byte> out(kBs);
  ASSERT_TRUE(f.file->ReadBlock(0, out.data()).ok());
  EXPECT_EQ(f.stats.snapshot().TotalReads(), 0u);
  EXPECT_EQ(0, std::memcmp(data.data(), out.data(), kBs));
}

TEST(BufferManager, UncountedFileLeavesStatsUntouched) {
  BufferedFile f(1);  // holds the manager; the uncounted file pins unbounded
  MemoryBlockDevice dev(kBs);
  ASSERT_TRUE(dev.Grow(2).ok());
  FileHandle* inner =
      f.manager.RegisterFile(&dev, &f.stats, FileClass::kInner, 1, /*count_io=*/false);
  std::vector<std::byte> out(kBs);
  ASSERT_TRUE(inner->ReadBlock(0, out.data()).ok());
  ASSERT_TRUE(inner->WriteBlock(1, out.data()).ok());
  ASSERT_TRUE(inner->ReadBlock(1, out.data()).ok());
  EXPECT_EQ(f.stats.snapshot().TotalIo(), 0u);
  EXPECT_EQ(f.stats.snapshot().TotalHits() + f.stats.snapshot().TotalMisses(), 0u);
  // Unbounded: both blocks stayed cached.
  EXPECT_EQ(inner->cached_blocks(), 2u);
}

TEST(BufferManager, ClassifiedCounting) {
  MemoryBlockDevice inner_dev(kBs), leaf_dev(kBs);
  ASSERT_TRUE(inner_dev.Grow(1).ok());
  ASSERT_TRUE(leaf_dev.Grow(1).ok());
  IoStats stats;
  BufferManager manager{BufferManager::Options{}};
  FileHandle* inner = manager.RegisterFile(&inner_dev, &stats, FileClass::kInner, 1);
  FileHandle* leaf = manager.RegisterFile(&leaf_dev, &stats, FileClass::kLeaf, 1);
  std::vector<std::byte> out(kBs);
  ASSERT_TRUE(inner->ReadBlock(0, out.data()).ok());
  ASSERT_TRUE(leaf->ReadBlock(0, out.data()).ok());
  ASSERT_TRUE(leaf->ReadBlock(0, out.data()).ok());
  EXPECT_EQ(stats.snapshot().ReadsFor(FileClass::kInner), 1u);
  EXPECT_EQ(stats.snapshot().ReadsFor(FileClass::kLeaf), 1u);
  EXPECT_EQ(stats.snapshot().HitsFor(FileClass::kLeaf), 1u);
  EXPECT_DOUBLE_EQ(stats.snapshot().HitRateFor(FileClass::kLeaf), 0.5);
}

TEST(BufferManager, ZeroBudgetIsRejected) {
  // Satellite fix: a 0-frame pool used to be silently clamped; it must fail.
  BufferedFile f(0);
  std::vector<std::byte> out(kBs);
  EXPECT_EQ(f.file->ReadBlock(0, out.data()).code(), Status::Code::kInvalidArgument);
  EXPECT_EQ(f.file->WriteBlock(0, out.data()).code(), Status::Code::kInvalidArgument);
  EXPECT_EQ(f.stats.snapshot().TotalIo(), 0u);
}

TEST(BufferManager, UnboundedSentinelNeverEvicts) {
  EXPECT_EQ(BufferManager::kUnbounded, std::numeric_limits<std::size_t>::max());
  BufferedFile f(BufferManager::kUnbounded);
  std::vector<std::byte> out(kBs);
  for (BlockId id = 0; id < 8; ++id) {
    ASSERT_TRUE(f.file->ReadBlock(id, out.data()).ok());
  }
  EXPECT_EQ(f.file->cached_blocks(), 8u);
  EXPECT_EQ(f.stats.snapshot().EvictionsFor(FileClass::kLeaf), 0u);
}

TEST(BufferManager, WriteBackDefersAndCoalescesDeviceWrites) {
  BufferManager::Options options;
  options.write_back = true;
  BufferedFile f(2, options);
  const auto data = Pattern(kBs, 9);

  // Three writes to the same block: zero device writes until flush.
  for (int i = 0; i < 3; ++i) {
    ASSERT_TRUE(f.file->WriteBlock(0, data.data()).ok());
  }
  EXPECT_EQ(f.stats.snapshot().TotalWrites(), 0u);
  EXPECT_EQ(f.file->dirty_blocks(), 1u);

  // A read of the dirty frame sees the buffered contents.
  std::vector<std::byte> out(kBs);
  ASSERT_TRUE(f.file->ReadBlock(0, out.data()).ok());
  EXPECT_EQ(0, std::memcmp(data.data(), out.data(), kBs));

  ASSERT_TRUE(f.file->Flush().ok());
  EXPECT_EQ(f.stats.snapshot().TotalWrites(), 1u);  // coalesced
  EXPECT_EQ(f.stats.snapshot().WritebacksFor(FileClass::kLeaf), 1u);
  EXPECT_EQ(f.file->dirty_blocks(), 0u);
  EXPECT_EQ(f.file->cached_blocks(), 1u);  // flush keeps the frame

  // Device now holds the data.
  std::vector<std::byte> direct(kBs);
  ASSERT_TRUE(f.dev.Read(0, direct.data()).ok());
  EXPECT_EQ(0, std::memcmp(data.data(), direct.data(), kBs));
}

TEST(BufferManager, WriteBackPaysOnEviction) {
  BufferManager::Options options;
  options.write_back = true;
  BufferedFile f(1, options);
  const auto data = Pattern(kBs, 3);
  ASSERT_TRUE(f.file->WriteBlock(0, data.data()).ok());
  EXPECT_EQ(f.stats.snapshot().TotalWrites(), 0u);
  std::vector<std::byte> out(kBs);
  ASSERT_TRUE(f.file->ReadBlock(1, out.data()).ok());  // evicts dirty 0
  EXPECT_EQ(f.stats.snapshot().TotalWrites(), 1u);
  EXPECT_EQ(f.stats.snapshot().WritebacksFor(FileClass::kLeaf), 1u);
  std::vector<std::byte> direct(kBs);
  ASSERT_TRUE(f.dev.Read(0, direct.data()).ok());
  EXPECT_EQ(0, std::memcmp(data.data(), direct.data(), kBs));
}

TEST(BufferManager, DropCachesFlushesDirtyFramesFirst) {
  BufferManager::Options options;
  options.write_back = true;
  BufferedFile f(4, options);
  const auto data = Pattern(kBs, 5);
  ASSERT_TRUE(f.file->WriteBlock(2, data.data()).ok());
  ASSERT_TRUE(f.file->DropCaches().ok());
  EXPECT_EQ(f.file->cached_blocks(), 0u);
  EXPECT_EQ(f.stats.snapshot().TotalWrites(), 1u);
  std::vector<std::byte> direct(kBs);
  ASSERT_TRUE(f.dev.Read(2, direct.data()).ok());
  EXPECT_EQ(0, std::memcmp(data.data(), direct.data(), kBs));
}

TEST(BufferManager, SharedBudgetSpansFiles) {
  BufferManager::Options options;
  options.shared_budget_frames = 2;
  BufferManager manager(options);
  MemoryBlockDevice dev_a(kBs), dev_b(kBs);
  ASSERT_TRUE(dev_a.Grow(4).ok());
  ASSERT_TRUE(dev_b.Grow(4).ok());
  IoStats stats;
  // Per-file budget argument is ignored in shared mode.
  FileHandle* a = manager.RegisterFile(&dev_a, &stats, FileClass::kInner, 99);
  FileHandle* b = manager.RegisterFile(&dev_b, &stats, FileClass::kLeaf, 99);
  std::vector<std::byte> out(kBs);

  ASSERT_TRUE(a->ReadBlock(0, out.data()).ok());  // pool: {a0}
  ASSERT_TRUE(b->ReadBlock(0, out.data()).ok());  // pool: {b0,a0}
  EXPECT_EQ(manager.cached_frames(), 2u);
  ASSERT_TRUE(b->ReadBlock(1, out.data()).ok());  // evicts a0 (LRU across files)
  EXPECT_EQ(manager.cached_frames(), 2u);
  EXPECT_EQ(a->cached_blocks(), 0u);
  EXPECT_EQ(b->cached_blocks(), 2u);
  EXPECT_EQ(stats.snapshot().EvictionsFor(FileClass::kInner), 1u);
  ASSERT_TRUE(a->ReadBlock(0, out.data()).ok());  // miss: was evicted
  EXPECT_EQ(stats.snapshot().ReadsFor(FileClass::kInner), 2u);
}

TEST(BufferManager, FifoIgnoresRecency) {
  BufferManager::Options options;
  options.policy = BufferPolicy::kFifo;
  BufferedFile f(2, options);
  std::vector<std::byte> out(kBs);
  ASSERT_TRUE(f.file->ReadBlock(0, out.data()).ok());  // in: 0
  ASSERT_TRUE(f.file->ReadBlock(1, out.data()).ok());  // in: 0,1
  ASSERT_TRUE(f.file->ReadBlock(0, out.data()).ok());  // hit; order unchanged
  ASSERT_TRUE(f.file->ReadBlock(2, out.data()).ok());  // evicts 0 (oldest in)
  ASSERT_TRUE(f.file->ReadBlock(1, out.data()).ok());  // 1 still cached: hit
  EXPECT_EQ(f.stats.snapshot().TotalReads(), 3u);
  ASSERT_TRUE(f.file->ReadBlock(0, out.data()).ok());  // 0 was evicted: miss
  EXPECT_EQ(f.stats.snapshot().TotalReads(), 4u);
}

TEST(BufferManager, ClockGivesSecondChance) {
  BufferManager::Options options;
  options.policy = BufferPolicy::kClock;
  BufferedFile f(2, options);
  std::vector<std::byte> out(kBs);
  ASSERT_TRUE(f.file->ReadBlock(0, out.data()).ok());  // ring: 0(ref=0)
  ASSERT_TRUE(f.file->ReadBlock(1, out.data()).ok());  // ring: 0,1 (ref=0)
  ASSERT_TRUE(f.file->ReadBlock(0, out.data()).ok());  // hit: ref(0)=1
  // Miss: hand at 0 -> 0 referenced, gets second chance; victim is 1.
  ASSERT_TRUE(f.file->ReadBlock(2, out.data()).ok());
  ASSERT_TRUE(f.file->ReadBlock(0, out.data()).ok());  // hit: survived
  EXPECT_EQ(f.stats.snapshot().TotalReads(), 3u);
  ASSERT_TRUE(f.file->ReadBlock(1, out.data()).ok());  // evicted: miss
  EXPECT_EQ(f.stats.snapshot().TotalReads(), 4u);
}

TEST(BufferManager, EveryPolicyRoundTripsData) {
  for (BufferPolicy policy :
       {BufferPolicy::kLru, BufferPolicy::kClock, BufferPolicy::kFifo}) {
    for (bool write_back : {false, true}) {
      BufferManager::Options options;
      options.policy = policy;
      options.write_back = write_back;
      BufferedFile f(3, options, /*blocks=*/16);
      // Interleaved writes and reads over 16 blocks through a 3-frame pool.
      for (int round = 0; round < 3; ++round) {
        for (BlockId id = 0; id < 16; ++id) {
          const auto data = Pattern(kBs, static_cast<unsigned char>(id * 7 + round));
          ASSERT_TRUE(f.file->WriteBlock(id, data.data()).ok());
        }
        for (BlockId id = 0; id < 16; ++id) {
          const auto want = Pattern(kBs, static_cast<unsigned char>(id * 7 + round));
          std::vector<std::byte> got(kBs);
          ASSERT_TRUE(f.file->ReadBlock(id, got.data()).ok());
          ASSERT_EQ(0, std::memcmp(want.data(), got.data(), kBs))
              << BufferPolicyName(policy) << " wb=" << write_back << " id=" << id;
        }
      }
      ASSERT_TRUE(f.file->Flush().ok());
      // After flush the device holds the final contents.
      for (BlockId id = 0; id < 16; ++id) {
        const auto want = Pattern(kBs, static_cast<unsigned char>(id * 7 + 2));
        std::vector<std::byte> direct(kBs);
        ASSERT_TRUE(f.dev.Read(id, direct.data()).ok());
        ASSERT_EQ(0, std::memcmp(want.data(), direct.data(), kBs));
      }
    }
  }
}

// --- Pinned reads (PageRef) ---------------------------------------------

/// Fills every block of `f`'s device with Pattern(kBs, id) behind the pool.
void FillDevice(BufferedFile& f, BlockId blocks) {
  for (BlockId id = 0; id < blocks; ++id) {
    CheckOk(f.dev.Write(id, Pattern(kBs, static_cast<unsigned char>(id)).data()),
            "FillDevice");
  }
}

bool Holds(const PageRef& ref, BlockId id) {
  const auto want = Pattern(kBs, static_cast<unsigned char>(id));
  return !ref.empty() && std::memcmp(ref.data(), want.data(), kBs) == 0;
}

TEST(BufferManager, PinnedFrameIsNeverEvicted) {
  for (BufferPolicy policy :
       {BufferPolicy::kLru, BufferPolicy::kClock, BufferPolicy::kFifo}) {
    for (std::size_t budget : {1u, 2u}) {
      BufferManager::Options options;
      options.policy = policy;
      BufferedFile f(budget, options);
      FillDevice(f, 8);
      PageRef pinned;
      ASSERT_TRUE(f.file->PinBlock(0, &pinned).ok());
      // Every other block streams through the pool; block 0 would be the
      // first victim under each policy if it were not pinned.
      std::vector<std::byte> out(kBs);
      for (int round = 0; round < 3; ++round) {
        for (BlockId id = 1; id < 8; ++id) {
          ASSERT_TRUE(f.file->ReadBlock(id, out.data()).ok());
          ASSERT_TRUE(Holds(pinned, 0)) << BufferPolicyName(policy) << " budget=" << budget;
        }
      }
      EXPECT_LE(f.file->cached_blocks(), budget);
      pinned.Release();
      const std::uint64_t reads = f.stats.snapshot().TotalReads();
      ASSERT_TRUE(f.file->ReadBlock(0, out.data()).ok());
      EXPECT_EQ(f.stats.snapshot().TotalReads(), reads)  // still cached: a hit
          << BufferPolicyName(policy) << " budget=" << budget;
    }
  }
}

TEST(BufferManager, PinCountsMatchReadBlock) {
  // One id sequence through ReadBlock and through PinBlock (one ref, each pin
  // released by the next): every counter and every byte must agree.
  std::vector<BlockId> ids;
  std::uint32_t x = 12345;
  for (int i = 0; i < 400; ++i) {
    x = x * 1103515245u + 12345u;
    ids.push_back((x >> 16) % 16);
  }
  for (BufferPolicy policy :
       {BufferPolicy::kLru, BufferPolicy::kClock, BufferPolicy::kFifo}) {
    for (std::size_t budget : {1u, 2u, 64u}) {
      BufferManager::Options options;
      options.policy = policy;
      BufferedFile copied(budget, options, /*blocks=*/16);
      BufferedFile pinned(budget, options, /*blocks=*/16);
      FillDevice(copied, 16);
      FillDevice(pinned, 16);
      std::vector<std::byte> out(kBs);
      PageRef ref;
      for (BlockId id : ids) {
        ASSERT_TRUE(copied.file->ReadBlock(id, out.data()).ok());
        ASSERT_TRUE(pinned.file->PinBlock(id, &ref).ok());
        ASSERT_EQ(0, std::memcmp(out.data(), ref.data(), kBs));
      }
      ref.Release();
      const IoStatsSnapshot a = copied.stats.snapshot();
      const IoStatsSnapshot b = pinned.stats.snapshot();
      const std::string where =
          std::string(BufferPolicyName(policy)) + " budget=" + std::to_string(budget);
      EXPECT_EQ(a.TotalHits(), b.TotalHits()) << where;
      EXPECT_EQ(a.TotalMisses(), b.TotalMisses()) << where;
      EXPECT_EQ(a.TotalEvictions(), b.TotalEvictions()) << where;
      EXPECT_EQ(a.TotalReads(), b.TotalReads()) << where;
      EXPECT_EQ(copied.file->cached_blocks(), pinned.file->cached_blocks()) << where;
    }
  }
}

TEST(BufferManager, AllPinnedMissServesPrivateCopy) {
  BufferedFile f(1);
  FillDevice(f, 8);
  PageRef first;
  ASSERT_TRUE(f.file->PinBlock(0, &first).ok());
  const IoStatsSnapshot before = f.stats.snapshot();
  PageRef second;
  ASSERT_TRUE(f.file->PinBlock(1, &second).ok());  // the only frame is pinned
  EXPECT_TRUE(Holds(second, 1));
  EXPECT_TRUE(Holds(first, 0));
  const IoStatsSnapshot delta = f.stats.snapshot() - before;
  EXPECT_EQ(delta.TotalMisses(), 1u);
  EXPECT_EQ(delta.TotalReads(), 1u);
  EXPECT_EQ(delta.TotalEvictions(), 0u);
  EXPECT_EQ(f.manager.cached_frames(), 1u);  // no new frame
  EXPECT_EQ(f.file->cached_blocks(), 1u);
  // The copy was never cached: reading block 1 again is another miss.
  second.Release();
  first.Release();
  std::vector<std::byte> out(kBs);
  ASSERT_TRUE(f.file->ReadBlock(1, out.data()).ok());
  EXPECT_EQ((f.stats.snapshot() - before).TotalReads(), 2u);
}

TEST(BufferManager, PinnedFrameSurvivesOtherFilesEviction) {
  BufferManager::Options options;
  options.shared_budget_frames = 2;
  BufferManager manager(options);
  MemoryBlockDevice dev_a(kBs), dev_b(kBs);
  ASSERT_TRUE(dev_a.Grow(4).ok());
  ASSERT_TRUE(dev_b.Grow(4).ok());
  const auto data = Pattern(kBs, 9);
  ASSERT_TRUE(dev_a.Write(0, data.data()).ok());
  IoStats stats;
  FileHandle* a = manager.RegisterFile(&dev_a, &stats, FileClass::kInner, 99);
  FileHandle* b = manager.RegisterFile(&dev_b, &stats, FileClass::kLeaf, 99);
  {
    PageRef ref;
    ASSERT_TRUE(a->PinBlock(0, &ref).ok());  // pool: {a0}, the LRU victim
    std::vector<std::byte> out(kBs);
    for (BlockId id = 0; id < 4; ++id) ASSERT_TRUE(b->ReadBlock(id, out.data()).ok());
    EXPECT_EQ(a->cached_blocks(), 1u);
    EXPECT_EQ(stats.snapshot().EvictionsFor(FileClass::kInner), 0u);
    EXPECT_EQ(stats.snapshot().EvictionsFor(FileClass::kLeaf), 3u);
    EXPECT_EQ(0, std::memcmp(ref.data(), data.data(), kBs));
  }
  // Unpinned, a0 is the least recently used frame again and goes first.
  std::vector<std::byte> out(kBs);
  ASSERT_TRUE(b->ReadBlock(0, out.data()).ok());
  EXPECT_EQ(a->cached_blocks(), 0u);
}

TEST(BufferManager, AllPinnedWriteGoesToDeviceAfterWriteAhead) {
  // With the only frame pinned, a write-back write cannot be deferred: it is
  // paid at once, so it must force the write-ahead hook before the device
  // write and count as a write-back, like a deferred write's eviction.
  for (bool write_back : {false, true}) {
    BufferManager::Options options;
    options.write_back = write_back;
    BufferedFile f(1, options);
    FillDevice(f, 8);
    const auto data = Pattern(kBs, 99);
    int hook_calls = 0;
    bool on_device_at_hook = false;
    f.file->SetWriteAheadHook([&] {
      ++hook_calls;
      std::vector<std::byte> now(kBs);
      CheckOk(f.dev.Read(1, now.data()), "hook read");
      on_device_at_hook = std::memcmp(now.data(), data.data(), kBs) == 0;
      return Status::Ok();
    });
    PageRef pinned;
    ASSERT_TRUE(f.file->PinBlock(0, &pinned).ok());
    const IoStatsSnapshot before = f.stats.snapshot();
    ASSERT_TRUE(f.file->WriteBlock(1, data.data()).ok());
    const IoStatsSnapshot delta = f.stats.snapshot() - before;
    if (write_back) {
      EXPECT_EQ(hook_calls, 1);
      EXPECT_FALSE(on_device_at_hook);
      EXPECT_EQ(delta.WritebacksFor(FileClass::kLeaf), 1u);
    }
    EXPECT_EQ(delta.TotalWrites(), 1u) << "wb=" << write_back;
    EXPECT_EQ(delta.TotalEvictions(), 0u) << "wb=" << write_back;
    EXPECT_EQ(f.file->cached_blocks(), 1u) << "wb=" << write_back;  // not cached
    EXPECT_EQ(f.file->dirty_blocks(), 0u) << "wb=" << write_back;
    std::vector<std::byte> direct(kBs);
    ASSERT_TRUE(f.dev.Read(1, direct.data()).ok());
    EXPECT_EQ(0, std::memcmp(direct.data(), data.data(), kBs)) << "wb=" << write_back;
    EXPECT_TRUE(Holds(pinned, 0));
  }
}

TEST(BufferManagerDeathTest, DroppingPinnedFrameAborts) {
  EXPECT_DEATH(
      {
        BufferedFile f(2);
        PageRef ref;
        CheckOk(f.file->PinBlock(0, &ref), "pin");
        (void)f.file->DropCaches();
      },
      "still pinned");
  EXPECT_DEATH(
      {
        BufferedFile f(2);
        PageRef ref;
        CheckOk(f.file->PinBlock(0, &ref), "pin");
        f.manager.UnregisterFile(f.file);
      },
      "still pinned");
}

// --- Frame table edges ----------------------------------------------------

TEST(BufferManager, PinPastDeviceEndCachesNothing) {
  BufferedFile f(4);
  FillDevice(f, 8);
  PageRef ref;
  ASSERT_TRUE(f.file->PinBlock(3, &ref).ok());
  ref.Release();
  const IoStatsSnapshot before = f.stats.snapshot();
  for (const BlockId id : {BlockId{8}, std::numeric_limits<BlockId>::max() - 1}) {
    EXPECT_EQ(f.file->PinBlock(id, &ref).code(), Status::Code::kOutOfRange) << id;
    EXPECT_TRUE(ref.empty());
  }
  EXPECT_EQ(f.file->cached_blocks(), 1u);
  EXPECT_EQ(f.stats.snapshot().TotalReads(), before.TotalReads());
  EXPECT_EQ(f.stats.snapshot().TotalEvictions(), 0u);
  // The block that was cached before the failures is still a hit.
  ASSERT_TRUE(f.file->PinBlock(3, &ref).ok());
  EXPECT_TRUE(Holds(ref, 3));
  EXPECT_EQ(f.stats.snapshot().TotalHits(), before.TotalHits() + 1);
  EXPECT_EQ(f.stats.snapshot().TotalReads(), before.TotalReads());
  ref.Release();
  // Blocks the device gains behind the handle's back are cached normally.
  ASSERT_TRUE(f.dev.Grow(12).ok());
  ASSERT_TRUE(f.dev.Write(10, Pattern(kBs, 10).data()).ok());
  ASSERT_TRUE(f.file->PinBlock(10, &ref).ok());
  ASSERT_TRUE(f.file->PinBlock(10, &ref).ok());
  EXPECT_TRUE(Holds(ref, 10));
  EXPECT_EQ(f.stats.snapshot().TotalHits(), before.TotalHits() + 2);
  EXPECT_EQ(f.file->cached_blocks(), 2u);
}

TEST(BufferManager, WritePastDeviceEndFailsAndCachesNothing) {
  // Write-through fails at the device; write-back must fail too rather than
  // defer a write that can never land.
  for (const bool write_back : {false, true}) {
    BufferManager::Options options;
    options.write_back = write_back;
    BufferedFile f(4, options);
    const auto data = Pattern(kBs, 5);
    EXPECT_EQ(f.file->WriteBlock(8, data.data()).code(), Status::Code::kOutOfRange)
        << write_back;
    EXPECT_EQ(f.file->cached_blocks(), 0u) << write_back;
    EXPECT_EQ(f.stats.snapshot().TotalMisses(), 0u) << write_back;
    ASSERT_TRUE(f.file->Flush().ok());
    EXPECT_EQ(f.stats.snapshot().TotalWrites(), 0u) << write_back;
  }
}

// --- Policy equivalence against a reference model -------------------------

/// The bytes a test block carries: its write version and its address, so a
/// read can tell which write it returns.
std::vector<std::byte> Stamp(std::uint32_t version, int file, BlockId block) {
  std::vector<std::byte> data(kBs, std::byte{0});
  const std::uint32_t header[3] = {version, static_cast<std::uint32_t>(file), block};
  std::memcpy(data.data(), header, sizeof(header));
  return data;
}

std::uint32_t VersionOf(const std::byte* data) {
  std::uint32_t version;
  std::memcpy(&version, data, sizeof(version));
  return version;
}

/// A plain model of the buffer manager's frame bookkeeping: per-pool recency
/// in a std::list (lru/fifo) or a clock ring with the manager's tombstone and
/// compaction rule, frames in a std::map, and the expected IoStats counters.
/// One PageRef is modelled: `pinned` is the frame it holds, if any.
class RefManager {
 public:
  using FrameKey = std::pair<int, BlockId>;  // (file, block)

  RefManager(BufferPolicy policy, bool write_back, bool shared, std::size_t budget,
             std::vector<FileClass> classes, BlockId blocks)
      : policy_(policy), write_back_(write_back), shared_(shared), budget_(budget),
        classes_(std::move(classes)), device_(classes_.size(),
                                              std::vector<std::uint32_t>(blocks, 1)) {
    pools_.assign(shared_ ? 1 : classes_.size(), Pool(policy_));
  }

  IoStatsSnapshot expected;
  std::optional<FrameKey> pinned;

  std::size_t cached(int file) const {
    std::size_t n = 0;
    for (const auto& [key, frame] : frames_) n += key.first == file ? 1 : 0;
    return n;
  }
  std::size_t dirty(int file) const {
    std::size_t n = 0;
    for (const auto& [key, frame] : frames_) n += key.first == file && frame.dirty ? 1 : 0;
    return n;
  }
  std::size_t cached_frames() const { return frames_.size(); }
  std::uint32_t device_version(int file, BlockId id) const { return device_[file][id]; }

  /// ReadBlock (and, with `pin`, PinBlock): returns the version served.
  std::uint32_t Read(int file, BlockId id, bool pin) {
    if (pin) pinned.reset();  // PinBlock releases its ref before fetching
    const FrameKey key{file, id};
    std::uint32_t version;
    if (auto it = frames_.find(key); it != frames_.end()) {
      Count(&IoStatsSnapshot::buffer_hits, file);
      PoolOf(file).Touch(key);
      version = it->second.version;
    } else {
      Count(&IoStatsSnapshot::buffer_misses, file);
      Count(&IoStatsSnapshot::reads, file);
      version = device_[file][id];
      if (MakeRoom(file)) Insert(key, Frame{version, false});
    }
    if (pin && frames_.count(key) > 0) pinned = key;
    return version;
  }

  void Write(int file, BlockId id, std::uint32_t version) {
    const FrameKey key{file, id};
    if (!write_back_) {
      Count(&IoStatsSnapshot::writes, file);
      device_[file][id] = version;
    }
    if (auto it = frames_.find(key); it != frames_.end()) {
      Count(&IoStatsSnapshot::buffer_hits, file);
      PoolOf(file).Touch(key);
      it->second = Frame{version, write_back_};
      return;
    }
    Count(&IoStatsSnapshot::buffer_misses, file);
    if (MakeRoom(file)) {
      Insert(key, Frame{version, write_back_});
    } else if (write_back_) {  // every frame pinned: written back at once
      WriteBack(key, version);
    }
  }

  void Flush(int file) {
    for (auto& [key, frame] : frames_) {
      if (key.first != file || !frame.dirty) continue;
      WriteBack(key, frame.version);
      frame.dirty = false;
    }
  }

  void DropCaches(int file) {
    Flush(file);
    DropAll(file);
  }

  /// UnregisterFile plus a fresh registration of the same device.
  void Reregister(int file) {
    DropAll(file);  // dirty frames are discarded, not written back
    if (!shared_) pools_[file] = Pool(policy_);
  }

 private:
  struct Frame {
    std::uint32_t version;
    bool dirty;
  };

  struct Pool {
    explicit Pool(BufferPolicy p) : policy(p) {}

    BufferPolicy policy;
    std::list<FrameKey> order;  // lru/fifo, front = newest
    struct Entry {
      FrameKey key;
      bool live;
      bool ref;
    };
    std::vector<Entry> ring;  // clock
    std::size_t hand = 0;
    std::size_t live = 0;

    void Insert(const FrameKey& key) {
      if (policy == BufferPolicy::kClock) {
        ring.push_back({key, true, false});
        ++live;
      } else {
        order.push_front(key);
      }
    }
    void Touch(const FrameKey& key) {
      if (policy == BufferPolicy::kLru) {
        order.remove(key);
        order.push_front(key);
      } else if (policy == BufferPolicy::kClock) {
        Find(key).ref = true;
      }
    }
    void Erase(const FrameKey& key) {
      if (policy != BufferPolicy::kClock) {
        order.remove(key);
        return;
      }
      Find(key).live = false;
      --live;
      if (ring.size() > 2 * live + 8) {
        std::vector<Entry> packed;
        for (std::size_t i = 0; i < ring.size(); ++i) {
          const Entry& entry = ring[(hand + i) % ring.size()];
          if (entry.live) packed.push_back(entry);
        }
        ring = std::move(packed);
        hand = 0;
      }
    }
    std::optional<FrameKey> Victim(const std::optional<FrameKey>& pinned) {
      if (policy != BufferPolicy::kClock) {
        for (auto it = order.rbegin(); it != order.rend(); ++it) {
          if (*it != pinned) return *it;
        }
        return std::nullopt;
      }
      for (std::size_t step = 0; step < 2 * ring.size(); ++step) {
        if (hand >= ring.size()) hand = 0;
        Entry& entry = ring[hand];
        if (!entry.live || entry.key == pinned) {
          ++hand;
        } else if (entry.ref) {
          entry.ref = false;
          ++hand;
        } else {
          return entry.key;
        }
      }
      return std::nullopt;
    }
    Entry& Find(const FrameKey& key) {
      for (Entry& entry : ring) {
        if (entry.live && entry.key == key) return entry;
      }
      ADD_FAILURE() << "frame missing from the clock ring";
      return ring.front();
    }
  };

  Pool& PoolOf(int file) { return pools_[shared_ ? 0 : file]; }
  std::size_t FramesIn(int file) const {
    if (!shared_) return cached(file);
    return frames_.size();
  }

  void Count(std::array<std::uint64_t, kNumFileClasses> IoStatsSnapshot::* field, int file) {
    ++(expected.*field)[static_cast<int>(classes_[file])];
  }
  void WriteBack(const FrameKey& key, std::uint32_t version) {
    Count(&IoStatsSnapshot::writes, key.first);
    Count(&IoStatsSnapshot::buffer_writebacks, key.first);
    device_[key.first][key.second] = version;
  }
  void Insert(const FrameKey& key, Frame frame) {
    frames_[key] = frame;
    PoolOf(key.first).Insert(key);
  }
  void Drop(const FrameKey& key) {
    PoolOf(key.first).Erase(key);
    frames_.erase(key);
  }
  /// Evicts until `file`'s pool has room; false when every frame is pinned.
  bool MakeRoom(int file) {
    while (FramesIn(file) >= budget_) {
      const std::optional<FrameKey> victim = PoolOf(file).Victim(pinned);
      if (!victim) return false;
      const Frame frame = frames_.at(*victim);
      if (frame.dirty) WriteBack(*victim, frame.version);
      Count(&IoStatsSnapshot::buffer_evictions, victim->first);
      Drop(*victim);
    }
    return true;
  }
  void DropAll(int file) {
    std::vector<FrameKey> keys;  // block order: the map's order
    for (const auto& [key, frame] : frames_) {
      if (key.first == file) keys.push_back(key);
    }
    for (const FrameKey& key : keys) Drop(key);
  }

  BufferPolicy policy_;
  bool write_back_;
  bool shared_;
  std::size_t budget_;
  std::vector<FileClass> classes_;
  std::vector<std::vector<std::uint32_t>> device_;  // version on the device
  std::map<FrameKey, Frame> frames_;
  std::vector<Pool> pools_;
};

TEST(BufferManager, MatchesReferenceModelOverRandomOps) {
  // Seeded random PinBlock/ReadBlock/ReadBlocks/WriteBlock/Flush/DropCaches
  // and unregister/re-register sequences over 3 files. File 0 sits on a
  // batching FileBlockDevice, so its ReadBlocks take the batch path; the
  // others are in memory. After every step every IoStats counter, each
  // file's cached and dirty counts, the pool size and the bytes served must
  // equal the model's.
  constexpr int kFiles = 3;
  constexpr BlockId kBlocks = 24;
  const std::vector<FileClass> classes = {FileClass::kLeaf, FileClass::kInner,
                                          FileClass::kOther};
  const std::string path = ::testing::TempDir() + "/liod_policy_equivalence.bin";
  std::uint64_t seed = 1;
  for (const BufferPolicy policy :
       {BufferPolicy::kLru, BufferPolicy::kFifo, BufferPolicy::kClock}) {
    for (const bool write_back : {false, true}) {
      for (const bool shared : {false, true}) {
        for (const std::size_t budget : {1u, 2u, 7u, 64u}) {
          SCOPED_TRACE(std::string(BufferPolicyName(policy)) +
                       (write_back ? " write-back" : " write-through") +
                       (shared ? " shared" : " per-file") + " budget=" +
                       std::to_string(budget));
          std::vector<std::unique_ptr<BlockDevice>> devices;
          devices.push_back(std::make_unique<FileBlockDevice>(path, kBs));
          for (int i = 1; i < kFiles; ++i) {
            devices.push_back(std::make_unique<MemoryBlockDevice>(kBs));
          }
          ASSERT_TRUE(devices[0]->SupportsBatch());
          for (int i = 0; i < kFiles; ++i) {
            ASSERT_TRUE(devices[i]->Grow(kBlocks).ok());
            for (BlockId id = 0; id < kBlocks; ++id) {
              ASSERT_TRUE(devices[i]->Write(id, Stamp(1, i, id).data()).ok());
            }
          }
          BufferManager::Options options;
          options.policy = policy;
          options.write_back = write_back;
          options.shared_budget_frames = shared ? budget : 0;
          BufferManager manager(options);
          IoStats stats;
          std::vector<FileHandle*> files;
          for (int i = 0; i < kFiles; ++i) {
            files.push_back(manager.RegisterFile(devices[i].get(), &stats, classes[i], budget));
          }
          RefManager model(policy, write_back, shared, budget, classes, kBlocks);
          PageRef ref;
          int ref_file = -1;
          BlockId ref_block = 0;
          const auto release = [&] {
            ref.Release();
            model.pinned.reset();
          };
          Rng rng(seed++);
          std::uint32_t next_version = 2;
          std::vector<std::byte> out(kBs);
          for (int step = 0; step < 1500; ++step) {
            const int file = static_cast<int>(rng.NextBounded(kFiles));
            // Half the ids come from a hot set so that every budget sees hits.
            const BlockId id = static_cast<BlockId>(
                rng.NextBounded(2) == 0 ? rng.NextBounded(6) : rng.NextBounded(kBlocks));
            const std::uint64_t op = rng.NextBounded(100);
            std::string what;
            if (op < 30) {
              what = "pin";
              ASSERT_TRUE(files[file]->PinBlock(id, &ref).ok());
              const std::uint32_t want = model.Read(file, id, /*pin=*/true);
              ASSERT_EQ(VersionOf(ref.data()), want) << what;
              ref_file = file;
              ref_block = id;
            } else if (op < 55) {
              what = "read";
              ASSERT_TRUE(files[file]->ReadBlock(id, out.data()).ok());
              ASSERT_EQ(VersionOf(out.data()), model.Read(file, id, false)) << what;
            } else if (op < 65) {
              what = "read batch";
              const BlockId first = std::min<BlockId>(id, kBlocks - 2);
              const BlockId count = static_cast<BlockId>(
                  2 + rng.NextBounded(std::min<BlockId>(5, kBlocks - first - 1)));
              std::vector<BlockId> ids;
              for (BlockId b = first; b < first + count; ++b) ids.push_back(b);
              std::vector<std::vector<std::byte>> bufs(ids.size(), std::vector<std::byte>(kBs));
              std::vector<std::byte*> outs;
              for (auto& buf : bufs) outs.push_back(buf.data());
              ASSERT_TRUE(files[file]->ReadBlocks(ids, outs).ok());
              for (std::size_t i = 0; i < ids.size(); ++i) {
                ASSERT_EQ(VersionOf(outs[i]), model.Read(file, ids[i], false)) << what;
              }
            } else if (op < 85) {
              what = "write";
              // Writing a pinned frame is a caller error: release it first.
              if (ref_file == file && ref_block == id) release();
              const std::uint32_t version = next_version++;
              ASSERT_TRUE(files[file]->WriteBlock(id, Stamp(version, file, id).data()).ok());
              model.Write(file, id, version);
            } else if (op < 92) {
              what = "flush";
              ASSERT_TRUE(files[file]->Flush().ok());
              model.Flush(file);
            } else if (op < 97) {
              what = "drop caches";
              if (ref_file == file) release();
              ASSERT_TRUE(files[file]->DropCaches().ok());
              model.DropCaches(file);
            } else {
              what = "re-register";
              if (ref_file == file) release();
              manager.UnregisterFile(files[file]);
              files[file] =
                  manager.RegisterFile(devices[file].get(), &stats, classes[file], budget);
              model.Reregister(file);
            }
            if (!model.pinned) ref_file = -1;
            const IoStatsSnapshot got = stats.snapshot();
            ASSERT_TRUE(got == model.expected)
                << "step " << step << " (" << what << " file " << file << " block " << id
                << ")\n got " << got.ToString() << "\nwant " << model.expected.ToString();
            for (int i = 0; i < kFiles; ++i) {
              ASSERT_EQ(files[i]->cached_blocks(), model.cached(i)) << "step " << step;
              ASSERT_EQ(files[i]->dirty_blocks(), model.dirty(i)) << "step " << step;
            }
            ASSERT_EQ(manager.cached_frames(), model.cached_frames()) << "step " << step;
          }
          release();
          // After a flush the devices hold exactly the model's versions.
          ASSERT_TRUE(manager.FlushAll().ok());
          for (int i = 0; i < kFiles; ++i) {
            model.Flush(i);
            for (BlockId b = 0; b < kBlocks; ++b) {
              ASSERT_TRUE(devices[i]->Read(b, out.data()).ok());
              ASSERT_EQ(VersionOf(out.data()), model.device_version(i, b))
                  << "file " << i << " block " << b;
            }
          }
          for (FileHandle* handle : files) manager.UnregisterFile(handle);
        }
      }
    }
  }
  std::remove(path.c_str());
}

// --- PagedFile ----------------------------------------------------------

PagedFile MakeMemFile(IoStats* stats, PagedFileOptions options = {}) {
  return PagedFile(std::make_unique<MemoryBlockDevice>(kBs), stats, FileClass::kLeaf, options);
}

TEST(PagedFile, AllocateIsSequential) {
  IoStats stats;
  auto file = MakeMemFile(&stats);
  EXPECT_EQ(file.Allocate(), 0u);
  EXPECT_EQ(file.Allocate(), 1u);
  EXPECT_EQ(file.AllocateRun(3), 2u);
  EXPECT_EQ(file.Allocate(), 5u);
  EXPECT_EQ(file.allocated_blocks(), 6u);
}

TEST(PagedFile, FreedSpaceNotReusedByDefault) {
  // Paper behaviour (Section 6.3): freed blocks are invalid space.
  IoStats stats;
  auto file = MakeMemFile(&stats);
  const BlockId a = file.Allocate();
  file.Free(a);
  EXPECT_EQ(file.Allocate(), a + 1);
  EXPECT_EQ(file.freed_blocks(), 1u);
  EXPECT_EQ(file.live_blocks(), 1u);
  EXPECT_EQ(file.allocated_blocks(), 2u);
}

TEST(PagedFile, FreedSpaceReusedWhenEnabled) {
  IoStats stats;
  PagedFileOptions opt;
  opt.reuse_freed_space = true;
  auto file = MakeMemFile(&stats, opt);
  const BlockId a = file.Allocate();
  (void)file.Allocate();
  file.Free(a);
  EXPECT_EQ(file.Allocate(), a);  // recycled
  EXPECT_EQ(file.freed_blocks(), 0u);
}

TEST(PagedFile, RunReuseBestFit) {
  IoStats stats;
  PagedFileOptions opt;
  opt.reuse_freed_space = true;
  auto file = MakeMemFile(&stats, opt);
  const BlockId run = file.AllocateRun(8);
  (void)file.Allocate();
  file.Free(run, 8);
  // A 5-block request carves the 8-block hole; remainder stays free.
  EXPECT_EQ(file.AllocateRun(5), run);
  EXPECT_EQ(file.AllocateRun(3), run + 5);
  EXPECT_EQ(file.freed_blocks(), 0u);
}

TEST(PagedFile, ByteRangeAcrossBlocks) {
  IoStats stats;
  auto file = MakeMemFile(&stats);
  (void)file.AllocateRun(3);
  // Write 6000 bytes starting inside block 0, spilling into block 1.
  std::vector<std::byte> data(6000);
  for (std::size_t i = 0; i < data.size(); ++i) data[i] = static_cast<std::byte>(i & 0xFF);
  ASSERT_TRUE(file.WriteBytes(1000, data.size(), data.data()).ok());
  std::vector<std::byte> out(6000);
  ASSERT_TRUE(file.ReadBytes(1000, out.size(), out.data()).ok());
  EXPECT_EQ(data, out);
}

TEST(PagedFile, PartialBlockWriteIsReadModifyWrite) {
  IoStats stats;
  auto file = MakeMemFile(&stats);
  (void)file.Allocate();
  std::vector<std::byte> small(10, std::byte{0xAB});
  stats.Reset();
  ASSERT_TRUE(file.WriteBytes(100, small.size(), small.data()).ok());
  EXPECT_EQ(stats.snapshot().TotalReads(), 1u);   // fetched for merge
  EXPECT_EQ(stats.snapshot().TotalWrites(), 1u);
}

TEST(PagedFile, FullBlockWriteSkipsRead) {
  IoStats stats;
  auto file = MakeMemFile(&stats);
  (void)file.Allocate();
  std::vector<std::byte> block(kBs, std::byte{0x11});
  stats.Reset();
  ASSERT_TRUE(file.WriteBytes(0, kBs, block.data()).ok());
  EXPECT_EQ(stats.snapshot().TotalReads(), 0u);
  EXPECT_EQ(stats.snapshot().TotalWrites(), 1u);
}

TEST(PagedFile, RunReuseExactFitAndFallbackGrowth) {
  IoStats stats;
  PagedFileOptions opt;
  opt.reuse_freed_space = true;
  auto file = MakeMemFile(&stats, opt);
  const BlockId run_a = file.AllocateRun(4);
  const BlockId run_b = file.AllocateRun(6);
  (void)file.Allocate();  // guard so freed runs are interior
  file.Free(run_a, 4);
  file.Free(run_b, 6);
  EXPECT_EQ(file.freed_blocks(), 10u);
  // Best-fit: a 6-block request takes the 6-run exactly, not the 4-run.
  EXPECT_EQ(file.AllocateRun(6), run_b);
  EXPECT_EQ(file.freed_blocks(), 4u);
  // Larger than any remaining hole: grows the high-water mark instead.
  const BlockId grown = file.AllocateRun(5);
  EXPECT_EQ(grown, 11u);
  EXPECT_EQ(file.allocated_blocks(), 16u);
  // The 4-run is still available for an exact fit.
  EXPECT_EQ(file.AllocateRun(4), run_a);
  EXPECT_EQ(file.freed_blocks(), 0u);
}

TEST(PagedFile, SingleBlockFreesDoNotSatisfyRunRequests) {
  // Free(1) goes to the single-block list; AllocateRun(n>1) must not stitch
  // singles together (contiguity is unknown) and grows instead.
  IoStats stats;
  PagedFileOptions opt;
  opt.reuse_freed_space = true;
  auto file = MakeMemFile(&stats, opt);
  const BlockId a = file.Allocate();
  const BlockId b = file.Allocate();
  file.Free(a);
  file.Free(b);
  EXPECT_EQ(file.AllocateRun(2), 2u);  // grew past the singles
  // But single allocations recycle them (LIFO).
  EXPECT_EQ(file.Allocate(), b);
  EXPECT_EQ(file.Allocate(), a);
  EXPECT_EQ(file.freed_blocks(), 0u);
}

TEST(PagedFile, RunRecyclingIgnoredWithoutReuseOption) {
  IoStats stats;
  auto file = MakeMemFile(&stats);  // paper default: no reuse
  const BlockId run = file.AllocateRun(8);
  file.Free(run, 8);
  EXPECT_EQ(file.AllocateRun(8), 8u);  // fresh space, hole stays invalid
  EXPECT_EQ(file.freed_blocks(), 8u);
  EXPECT_EQ(file.allocated_blocks(), 16u);
  EXPECT_EQ(file.live_blocks(), 8u);
}

TEST(PagedFile, ByteRangeSpanningPartialHeadAndTail) {
  // Write covering [100, 2*kBs+100): partial head block 0, full block 1,
  // partial tail block 2. Head and tail need read-modify-write; the full
  // middle block must skip the read. Reading it back costs exactly one block
  // access per touched block.
  for (std::size_t budget : {1u, 3u}) {
    IoStats stats;
    PagedFileOptions options;
    options.buffer_pool_blocks = budget;
    auto file = MakeMemFile(&stats, options);
    (void)file.AllocateRun(3);
    std::vector<std::byte> data(2 * kBs);
    for (std::size_t i = 0; i < data.size(); ++i) {
      data[i] = static_cast<std::byte>((i * 13 + 1) & 0xFF);
    }
    stats.Reset();
    ASSERT_TRUE(file.WriteBytes(100, data.size(), data.data()).ok());
    EXPECT_EQ(stats.snapshot().TotalReads(), 2u);   // head + tail RMW fetches
    EXPECT_EQ(stats.snapshot().TotalWrites(), 3u);  // all three touched blocks

    stats.Reset();
    std::vector<std::byte> out(data.size());
    ASSERT_TRUE(file.ReadBytes(100, out.size(), out.data()).ok());
    EXPECT_EQ(data, out);
    const IoStatsSnapshot io = stats.snapshot();
    EXPECT_EQ(io.TotalHits() + io.TotalMisses(), 3u) << "budget=" << budget;
    // Budget 1 holds only the last written block (2), which the head fetch
    // evicts; budget 3 holds all three.
    EXPECT_EQ(io.TotalReads(), budget == 1 ? 3u : 0u) << "budget=" << budget;
    EXPECT_EQ(io.TotalEvictions(), budget == 1 ? 3u : 0u) << "budget=" << budget;
    EXPECT_EQ(io.TotalWrites(), 0u);

    // A range inside one block is one access.
    stats.Reset();
    std::vector<std::byte> small(10);
    ASSERT_TRUE(file.ReadBytes(kBs + 7, small.size(), small.data()).ok());
    EXPECT_EQ(0, std::memcmp(small.data(), data.data() + kBs + 7 - 100, small.size()));
    EXPECT_EQ(stats.snapshot().TotalHits() + stats.snapshot().TotalMisses(), 1u);

    // Bytes outside the written range stayed zero (Grow zero-fills).
    std::vector<std::byte> head(100);
    ASSERT_TRUE(file.ReadBytes(0, head.size(), head.data()).ok());
    for (std::byte b : head) EXPECT_EQ(b, std::byte{0});
    std::vector<std::byte> tail(kBs - 100);
    ASSERT_TRUE(file.ReadBytes(2 * kBs + 100, tail.size(), tail.data()).ok());
    for (std::byte b : tail) EXPECT_EQ(b, std::byte{0});
  }
}

TEST(PagedFile, ReopenedDevicePinsOldThenNewBlocks) {
  // A file registered over a device that already holds blocks serves them,
  // and the blocks it allocates afterwards, through the same frame table.
  const std::string path = ::testing::TempDir() + "/liod_paged_reopen.bin";
  {
    IoStats stats;
    PagedFile file(std::make_unique<FileBlockDevice>(path, kBs), &stats, FileClass::kLeaf,
                   PagedFileOptions{});
    const BlockId first = file.AllocateRun(3);
    for (BlockId id = first; id < first + 3; ++id) {
      ASSERT_TRUE(file.WriteBlock(id, Pattern(kBs, static_cast<unsigned char>(id)).data()).ok());
    }
  }
  IoStats stats;
  PagedFileOptions options;
  options.buffer_pool_blocks = 8;
  PagedFile file(std::make_unique<FileBlockDevice>(path, kBs, /*truncate=*/false), &stats,
                 FileClass::kLeaf, options);
  ASSERT_EQ(file.allocated_blocks(), 3u);
  PageRef ref;
  for (int pass = 0; pass < 2; ++pass) {  // misses, then hits
    for (BlockId id = 0; id < 3; ++id) {
      ASSERT_TRUE(file.PinBlock(id, &ref).ok());
      EXPECT_TRUE(Holds(ref, id));
    }
  }
  EXPECT_EQ(stats.snapshot().TotalMisses(), 3u);
  EXPECT_EQ(stats.snapshot().TotalHits(), 3u);
  ref.Release();
  const BlockId fresh = file.Allocate();
  ASSERT_EQ(fresh, 3u);
  ASSERT_TRUE(file.WriteBlock(fresh, Pattern(kBs, 3).data()).ok());
  ASSERT_TRUE(file.PinBlock(fresh, &ref).ok());  // write-allocated: a hit
  EXPECT_TRUE(Holds(ref, fresh));
  EXPECT_EQ(stats.snapshot().TotalHits(), 4u);
  EXPECT_EQ(stats.snapshot().TotalReads(), 3u);
  EXPECT_EQ(file.buffer().cached_blocks(), 4u);
  ref.Release();
  std::remove(path.c_str());
}

TEST(PagedFile, ReadBytesAlignedSpanSkipsRmw) {
  IoStats stats;
  auto file = MakeMemFile(&stats);
  (void)file.AllocateRun(4);
  std::vector<std::byte> data(4 * kBs, std::byte{0x5A});
  stats.Reset();
  // Fully aligned multi-block write: no RMW reads at all.
  ASSERT_TRUE(file.WriteBytes(0, data.size(), data.data()).ok());
  EXPECT_EQ(stats.snapshot().TotalReads(), 0u);
  EXPECT_EQ(stats.snapshot().TotalWrites(), 4u);
}

TEST(PagedFile, WriteBytesThroughWriteBackManagerDefersDeviceWrites) {
  // The façade composes with a write-back manager: byte-range writes dirty
  // frames and the device write is paid once per block at flush.
  BufferManager::Options options;
  options.write_back = true;
  BufferManager manager(options);
  IoStats stats;
  PagedFileOptions file_options;
  file_options.buffer_pool_blocks = 8;
  PagedFile file(std::make_unique<MemoryBlockDevice>(kBs), &manager, &stats,
                 FileClass::kLeaf, file_options);
  (void)file.AllocateRun(2);
  std::vector<std::byte> data(kBs / 2, std::byte{0x42});
  for (int i = 0; i < 4; ++i) {
    ASSERT_TRUE(file.WriteBytes(i * data.size(), data.size(), data.data()).ok());
  }
  EXPECT_EQ(stats.snapshot().TotalWrites(), 0u);  // all deferred
  ASSERT_TRUE(file.Flush().ok());
  EXPECT_EQ(stats.snapshot().TotalWrites(), 2u);  // one per dirty block
  EXPECT_EQ(stats.snapshot().WritebacksFor(FileClass::kLeaf), 2u);
}

// --- FaultInjectionDevice ------------------------------------------------

TEST(FaultInjection, FailAfterCountsDown) {
  auto base = std::make_unique<MemoryBlockDevice>(kBs);
  ASSERT_TRUE(base->Grow(4).ok());
  FaultInjectionDevice dev(std::move(base));
  dev.FailAfter(2);
  std::vector<std::byte> buf(kBs);
  EXPECT_TRUE(dev.Read(0, buf.data()).ok());
  EXPECT_TRUE(dev.Write(1, buf.data()).ok());
  EXPECT_EQ(dev.Read(2, buf.data()).code(), Status::Code::kIoError);
  EXPECT_EQ(dev.injected_failures(), 1u);
}

TEST(FaultInjection, PoisonedBlock) {
  auto base = std::make_unique<MemoryBlockDevice>(kBs);
  ASSERT_TRUE(base->Grow(4).ok());
  FaultInjectionDevice dev(std::move(base));
  dev.FailBlock(3);
  std::vector<std::byte> buf(kBs);
  EXPECT_TRUE(dev.Read(0, buf.data()).ok());
  EXPECT_EQ(dev.Write(3, buf.data()).code(), Status::Code::kIoError);
  dev.ClearFailBlock();
  EXPECT_TRUE(dev.Write(3, buf.data()).ok());
}

TEST(FaultInjection, ManagerPropagatesErrorsWithoutCaching) {
  auto base = std::make_unique<MemoryBlockDevice>(kBs);
  ASSERT_TRUE(base->Grow(2).ok());
  auto* raw = new FaultInjectionDevice(
      std::unique_ptr<BlockDevice>(std::move(base)));
  std::unique_ptr<BlockDevice> owned(raw);
  IoStats stats;
  BufferManager manager{BufferManager::Options{}};
  FileHandle* file = manager.RegisterFile(owned.get(), &stats, FileClass::kLeaf, 2);
  raw->FailBlock(1);
  std::vector<std::byte> buf(kBs);
  EXPECT_FALSE(file->ReadBlock(1, buf.data()).ok());
  raw->ClearFailBlock();
  // After the failure clears, the block must be readable (not a stale frame).
  EXPECT_TRUE(file->ReadBlock(1, buf.data()).ok());
}

TEST(FaultInjection, FailedPinCachesNothing) {
  // PinBlock keeps ReadBlock's read-before-evict rule: a failed device read
  // caches nothing, costs no victim (here a dirty frame in a 1-frame pool)
  // and leaves the ref empty, even if it held a pin before the call.
  auto base = std::make_unique<MemoryBlockDevice>(kBs);
  ASSERT_TRUE(base->Grow(4).ok());
  auto* raw = new FaultInjectionDevice(
      std::unique_ptr<BlockDevice>(std::move(base)));
  std::unique_ptr<BlockDevice> owned(raw);
  IoStats stats;
  BufferManager::Options options;
  options.write_back = true;
  BufferManager manager(options);
  FileHandle* file = manager.RegisterFile(owned.get(), &stats, FileClass::kLeaf, 1);
  const auto data = Pattern(kBs, 33);
  ASSERT_TRUE(file->WriteBlock(0, data.data()).ok());  // dirty, deferred
  PageRef ref;
  ASSERT_TRUE(file->PinBlock(0, &ref).ok());
  raw->FailBlock(1);
  EXPECT_FALSE(file->PinBlock(1, &ref).ok());
  EXPECT_TRUE(ref.empty());
  EXPECT_EQ(file->cached_blocks(), 1u);  // victim survived
  EXPECT_EQ(file->dirty_blocks(), 1u);
  EXPECT_EQ(stats.snapshot().TotalWrites(), 0u);
  EXPECT_EQ(stats.snapshot().EvictionsFor(FileClass::kLeaf), 0u);
  raw->ClearFailBlock();
  // After the failure clears, the block is read from the device, not a
  // stale frame, and the dirty victim is written back to make room.
  const auto fresh = Pattern(kBs, 44);
  ASSERT_TRUE(raw->Write(1, fresh.data()).ok());
  ASSERT_TRUE(file->PinBlock(1, &ref).ok());
  EXPECT_EQ(0, std::memcmp(ref.data(), fresh.data(), kBs));
  EXPECT_EQ(stats.snapshot().TotalWrites(), 1u);
  ref.Release();
}

TEST(FaultInjection, FailedReadLeavesVictimCachedAndDirty) {
  // A miss must fetch BEFORE evicting: if the device read fails, the would-be
  // victim (here a dirty frame in a 1-frame pool) keeps its slot, its dirty
  // data, and no eviction/write-back is counted for a read that never
  // happened.
  auto base = std::make_unique<MemoryBlockDevice>(kBs);
  ASSERT_TRUE(base->Grow(4).ok());
  auto* raw = new FaultInjectionDevice(
      std::unique_ptr<BlockDevice>(std::move(base)));
  std::unique_ptr<BlockDevice> owned(raw);
  IoStats stats;
  BufferManager::Options options;
  options.write_back = true;
  BufferManager manager(options);
  FileHandle* file = manager.RegisterFile(owned.get(), &stats, FileClass::kLeaf, 1);
  const auto data = Pattern(kBs, 21);
  ASSERT_TRUE(file->WriteBlock(0, data.data()).ok());  // dirty, deferred
  raw->FailBlock(1);
  std::vector<std::byte> buf(kBs);
  EXPECT_FALSE(file->ReadBlock(1, buf.data()).ok());
  EXPECT_EQ(file->cached_blocks(), 1u);  // victim survived
  EXPECT_EQ(file->dirty_blocks(), 1u);
  EXPECT_EQ(stats.snapshot().TotalWrites(), 0u);  // no write-back paid
  EXPECT_EQ(stats.snapshot().EvictionsFor(FileClass::kLeaf), 0u);
  // Block 0 is still served from the cache, not the device.
  ASSERT_TRUE(file->ReadBlock(0, buf.data()).ok());
  EXPECT_EQ(stats.snapshot().TotalReads(), 0u);
  EXPECT_EQ(0, std::memcmp(data.data(), buf.data(), kBs));
}

TEST(FaultInjection, FailedWritebackKeepsFrameDirty) {
  auto base = std::make_unique<MemoryBlockDevice>(kBs);
  ASSERT_TRUE(base->Grow(4).ok());
  auto* raw = new FaultInjectionDevice(
      std::unique_ptr<BlockDevice>(std::move(base)));
  std::unique_ptr<BlockDevice> owned(raw);
  IoStats stats;
  BufferManager::Options options;
  options.write_back = true;
  BufferManager manager(options);
  FileHandle* file = manager.RegisterFile(owned.get(), &stats, FileClass::kLeaf, 1);
  const auto data = Pattern(kBs, 77);
  ASSERT_TRUE(file->WriteBlock(0, data.data()).ok());  // deferred
  raw->FailBlock(0);
  std::vector<std::byte> buf(kBs);
  // Reading another block must evict-and-write-back block 0, which fails; the
  // dirty frame survives so no data is lost.
  EXPECT_FALSE(file->ReadBlock(1, buf.data()).ok());
  EXPECT_EQ(file->dirty_blocks(), 1u);
  EXPECT_EQ(stats.snapshot().TotalWrites(), 0u);
  raw->ClearFailBlock();
  EXPECT_TRUE(file->ReadBlock(1, buf.data()).ok());  // write-back now succeeds
  EXPECT_EQ(stats.snapshot().TotalWrites(), 1u);
  std::vector<std::byte> direct(kBs);
  ASSERT_TRUE(raw->Read(0, direct.data()).ok());
  EXPECT_EQ(0, std::memcmp(data.data(), direct.data(), kBs));
}

// --- DiskModel ----------------------------------------------------------

TEST(DiskModel, ChargesReadsAndWrites) {
  IoStatsSnapshot io;
  io.reads[static_cast<int>(FileClass::kLeaf)] = 10;
  io.writes[static_cast<int>(FileClass::kLeaf)] = 5;
  const DiskModel hdd = DiskModel::Hdd();
  EXPECT_DOUBLE_EQ(hdd.IoMicros(io), 10 * hdd.read_latency_us + 5 * hdd.write_latency_us);
  const DiskModel none = DiskModel::None();
  EXPECT_DOUBLE_EQ(none.IoMicros(io), 0.0);
}

TEST(DiskModel, SsdFasterThanHdd) {
  IoStatsSnapshot io;
  io.reads[0] = 100;
  EXPECT_LT(DiskModel::Ssd().IoMicros(io), DiskModel::Hdd().IoMicros(io));
}

TEST(IoStatsSnapshotTest, DeltaArithmetic) {
  IoStats stats;
  stats.CountRead(FileClass::kInner);
  const IoStatsSnapshot before = stats.snapshot();
  stats.CountRead(FileClass::kInner);
  stats.CountWrite(FileClass::kLeaf);
  stats.CountLeafNodeVisit();
  const IoStatsSnapshot delta = stats.snapshot() - before;
  EXPECT_EQ(delta.ReadsFor(FileClass::kInner), 1u);
  EXPECT_EQ(delta.WritesFor(FileClass::kLeaf), 1u);
  EXPECT_EQ(delta.leaf_nodes_visited, 1u);
  EXPECT_EQ(delta.TotalIo(), 2u);
}

}  // namespace
}  // namespace liod
