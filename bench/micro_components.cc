// Component microbenchmarks (google-benchmark): the CPU-side primitives the
// on-disk indexes are built from. These complement the table/figure benches,
// which measure block I/O.

#include <benchmark/benchmark.h>

#include <algorithm>

#include "btree/btree_index.h"
#include "common/linear_model.h"
#include "common/random.h"
#include "common/search.h"
#include "core/op_breakdown.h"
#include "pgm/static_pgm.h"
#include "segmentation/fmcd.h"
#include "segmentation/greedy_segmentation.h"
#include "segmentation/piecewise_linear.h"
#include "storage/block_device.h"
#include "storage/buffer_manager.h"
#include "storage/paged_file.h"
#include "workload/datasets.h"

namespace liod {
namespace {

std::vector<Key> BenchKeys(std::size_t n) { return MakeDataset("fb", n, 7); }

void BM_LinearModelPredict(benchmark::State& state) {
  const auto keys = BenchKeys(1024);
  const LinearModel model = LinearModel::LeastSquares(keys.begin(), 1024);
  std::size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(model.PredictClamped(keys[i++ & 1023], 4096));
  }
}
BENCHMARK(BM_LinearModelPredict);

void BM_OptimalPla(benchmark::State& state) {
  const auto keys = BenchKeys(static_cast<std::size_t>(state.range(0)));
  for (auto _ : state) {
    benchmark::DoNotOptimize(BuildOptimalPla(keys, 64));
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_OptimalPla)->Arg(10'000)->Arg(100'000);

void BM_GreedySegmentation(benchmark::State& state) {
  const auto keys = BenchKeys(static_cast<std::size_t>(state.range(0)));
  for (auto _ : state) {
    benchmark::DoNotOptimize(BuildGreedySegments(keys, 64));
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_GreedySegmentation)->Arg(10'000)->Arg(100'000);

void BM_Fmcd(benchmark::State& state) {
  const auto keys = BenchKeys(static_cast<std::size_t>(state.range(0)));
  for (auto _ : state) {
    benchmark::DoNotOptimize(BuildFmcd(keys, static_cast<std::int64_t>(keys.size()) * 2));
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_Fmcd)->Arg(10'000)->Arg(100'000);

void BM_BufferManagerHit(benchmark::State& state) {
  MemoryBlockDevice dev(4096);
  (void)dev.Grow(16);
  IoStats stats;
  BufferManager manager(BufferManager::Options{});
  FileHandle* file = manager.RegisterFile(&dev, &stats, FileClass::kLeaf, 16);
  std::vector<std::byte> out(4096);
  (void)file->ReadBlock(3, out.data());
  for (auto _ : state) {
    benchmark::DoNotOptimize(file->ReadBlock(3, out.data()));
  }
}
BENCHMARK(BM_BufferManagerHit);

/// Random pins across a fully cached 16384-frame shared LRU pool: every pin
/// is a hit on a different frame, so the frame lookup and the policy update
/// dominate (BM_BufferManagerHit re-reads one block and cannot see them).
void BM_BufferManagerPinHit(benchmark::State& state) {
  constexpr BlockId kFrames = 16384;
  MemoryBlockDevice dev(4096);
  (void)dev.Grow(kFrames);
  IoStats stats;
  BufferManager::Options options;
  options.shared_budget_frames = kFrames;
  BufferManager manager(options);
  FileHandle* file = manager.RegisterFile(&dev, &stats, FileClass::kLeaf, kFrames);
  PageRef ref;
  for (BlockId id = 0; id < kFrames; ++id) (void)file->PinBlock(id, &ref);
  std::vector<BlockId> ids(1 << 16);
  Rng rng(11);
  for (BlockId& id : ids) id = static_cast<BlockId>(rng.NextBounded(kFrames));
  std::size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(file->PinBlock(ids[i], &ref));
    i = (i + 1) & (ids.size() - 1);
  }
}
BENCHMARK(BM_BufferManagerPinHit);

void BM_BufferManagerMissChurn(benchmark::State& state) {
  MemoryBlockDevice dev(4096);
  (void)dev.Grow(64);
  IoStats stats;
  BufferManager manager(BufferManager::Options{});
  // Paper default: 1 frame -> every rotation misses and evicts.
  FileHandle* file = manager.RegisterFile(&dev, &stats, FileClass::kLeaf, 1);
  std::vector<std::byte> out(4096);
  BlockId id = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(file->ReadBlock(id, out.data()));
    id = (id + 1) & 63;
  }
}
BENCHMARK(BM_BufferManagerMissChurn);

void BM_BTreeDiskLookup(benchmark::State& state) {
  IndexOptions options;
  BTreeIndex index(options);
  const auto keys = BenchKeys(100'000);
  std::vector<Record> records(keys.size());
  for (std::size_t i = 0; i < keys.size(); ++i) records[i] = {keys[i], keys[i] + 1};
  CheckOk(index.Bulkload(records), "bulkload");
  Rng rng(3);
  for (auto _ : state) {
    Payload p;
    bool found;
    benchmark::DoNotOptimize(index.Lookup(keys[rng.NextBounded(keys.size())], &p, &found));
  }
}
BENCHMARK(BM_BTreeDiskLookup);

/// Lookups of random present keys in a fully cached StaticPgm over 1M fb
/// keys at the default error bounds (64 data, 16 inner): the learned-index
/// search plus its pool hits, with no device reads.
void BM_StaticPgmLookup(benchmark::State& state) {
  const auto keys = BenchKeys(1'000'000);
  std::vector<Record> records(keys.size());
  for (std::size_t i = 0; i < keys.size(); ++i) records[i] = {keys[i], keys[i] + 1};
  IoStats stats;
  BufferManager manager(BufferManager::Options{});
  PagedFileOptions options;
  options.buffer_pool_blocks = BufferManager::kUnbounded;
  PagedFile inner(std::make_unique<MemoryBlockDevice>(4096), &manager, &stats,
                  FileClass::kInner, options);
  PagedFile leaf(std::make_unique<MemoryBlockDevice>(4096), &manager, &stats,
                 FileClass::kLeaf, options);
  StaticPgm pgm(&inner, &leaf, &stats, 64, 16);
  CheckOk(pgm.Build(records), "build");
  Rng rng(5);
  for (const Key key : keys) {  // warm every block
    Payload p;
    bool found;
    CheckOk(pgm.Lookup(key, &p, &found), "warm-up");
  }
  for (auto _ : state) {
    Payload p;
    bool found;
    benchmark::DoNotOptimize(pgm.Lookup(keys[rng.NextBounded(keys.size())], &p, &found));
  }
}
BENCHMARK(BM_StaticPgmLookup);

/// Searches of a fully cached B+-tree's worth of nodes: 4.9k 4 KiB blocks of
/// 255 sorted fb keys each (a 1.25M-key tree), Zipf(0.99)-chosen with the hot
/// blocks scattered, each probe a key of its block. The std and kernel
/// variants run the identical probe sequence, so their difference is the
/// search alone.
struct NodeSearchFixture {
  static constexpr std::size_t kBlocks = 4900;
  static constexpr std::size_t kKeysPerNode = 255;
  static constexpr std::size_t kBlockKeys = 4096 / sizeof(Key);
  static constexpr std::size_t kProbes = 1 << 16;

  NodeSearchFixture() : blocks(kBlocks * kBlockKeys), node(kProbes), key(kProbes) {
    const auto keys = BenchKeys(kBlocks * kKeysPerNode);
    for (std::size_t b = 0; b < kBlocks; ++b) {
      std::copy_n(keys.begin() + static_cast<std::ptrdiff_t>(b * kKeysPerNode), kKeysPerNode,
                  blocks.begin() + static_cast<std::ptrdiff_t>(b * kBlockKeys));
    }
    std::vector<std::size_t> scatter(kBlocks);
    for (std::size_t b = 0; b < kBlocks; ++b) scatter[b] = b;
    Rng rng(13);
    Shuffle(scatter, rng);
    ZipfGenerator zipf(kBlocks, 0.99, 17);
    for (std::size_t i = 0; i < kProbes; ++i) {
      node[i] = blocks.data() + scatter[zipf.Next()] * kBlockKeys;
      key[i] = node[i][rng.NextBounded(kKeysPerNode)];
    }
  }

  std::vector<Key> blocks;
  std::vector<const Key*> node;
  std::vector<Key> key;
};

void BM_NodeSearchStd(benchmark::State& state) {
  const NodeSearchFixture f;
  std::size_t i = 0;
  for (auto _ : state) {
    const Key* keys = f.node[i];
    benchmark::DoNotOptimize(std::upper_bound(keys, keys + f.kKeysPerNode, f.key[i]));
    i = (i + 1) & (f.kProbes - 1);
  }
}
BENCHMARK(BM_NodeSearchStd);

void BM_NodeSearchKernel(benchmark::State& state) {
  const NodeSearchFixture f;
  std::size_t i = 0;
  for (auto _ : state) {
    const Key* keys = f.node[i];
    benchmark::DoNotOptimize(UpperBound(keys, keys + f.kKeysPerNode, f.key[i]));
    i = (i + 1) & (f.kProbes - 1);
  }
}
BENCHMARK(BM_NodeSearchKernel);

/// One PhaseScope per iteration, as every index op opens: without a sink
/// (the default) and with one.
void BM_PhaseScopeOff(benchmark::State& state) {
  IoStats stats;
  for (auto _ : state) {
    PhaseScope scope(nullptr, &stats, OpPhase::kSearch);
    benchmark::DoNotOptimize(&scope);
  }
}
BENCHMARK(BM_PhaseScopeOff);

void BM_PhaseScopeOn(benchmark::State& state) {
  IoStats stats;
  OpBreakdown sink;
  for (auto _ : state) {
    PhaseScope scope(&sink, &stats, OpPhase::kSearch);
    benchmark::DoNotOptimize(&scope);
  }
}
BENCHMARK(BM_PhaseScopeOn);

}  // namespace
}  // namespace liod

BENCHMARK_MAIN();
