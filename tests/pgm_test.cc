#include <algorithm>
#include <map>
#include <memory>
#include <tuple>
#include <vector>

#include <gtest/gtest.h>

#include "common/random.h"
#include "pgm/dynamic_pgm_index.h"
#include "pgm/static_pgm.h"
#include "storage/block_device.h"
#include "test_util.h"
#include "workload/datasets.h"

namespace liod {
namespace {

using testing_util::ClusteredKeys;
using testing_util::HeavyTailKeys;
using testing_util::SequentialKeys;
using testing_util::ToRecords;
using testing_util::UniformKeys;

// --- StaticPgm ----------------------------------------------------------

struct StaticPgmFixture {
  explicit StaticPgmFixture(std::size_t block_size = 4096, std::uint32_t eps = 64,
                            std::uint32_t eps_inner = 16)
      : inner(std::make_unique<MemoryBlockDevice>(block_size), &stats, FileClass::kInner,
              PagedFileOptions{}),
        leaf(std::make_unique<MemoryBlockDevice>(block_size), &stats, FileClass::kLeaf,
             PagedFileOptions{}),
        pgm(&inner, &leaf, &stats, eps, eps_inner) {}

  IoStats stats;
  PagedFile inner;
  PagedFile leaf;
  StaticPgm pgm;
};

TEST(StaticPgm, EmptyBuild) {
  StaticPgmFixture f;
  ASSERT_TRUE(f.pgm.Build({}).ok());
  Payload p;
  bool found = true;
  ASSERT_TRUE(f.pgm.Lookup(1, &p, &found).ok());
  EXPECT_FALSE(found);
}

TEST(StaticPgm, LookupAllKeys) {
  StaticPgmFixture f;
  const auto keys = HeavyTailKeys(30000, 1);
  ASSERT_TRUE(f.pgm.Build(ToRecords(keys)).ok());
  for (std::size_t i = 0; i < keys.size(); i += 31) {
    Payload p = 0;
    bool found = false;
    ASSERT_TRUE(f.pgm.Lookup(keys[i], &p, &found).ok());
    ASSERT_TRUE(found) << "i=" << i;
    EXPECT_EQ(p, PayloadFor(keys[i]));
  }
}

TEST(StaticPgm, LookupAbsentKeys) {
  StaticPgmFixture f;
  const auto keys = ClusteredKeys(10000, 2);
  ASSERT_TRUE(f.pgm.Build(ToRecords(keys)).ok());
  std::set<Key> present(keys.begin(), keys.end());
  Rng rng(3);
  for (int i = 0; i < 500; ++i) {
    const Key probe = 1 + rng.NextBounded(1ULL << 62);
    if (present.count(probe)) continue;
    Payload p;
    bool found = true;
    ASSERT_TRUE(f.pgm.Lookup(probe, &p, &found).ok());
    EXPECT_FALSE(found) << probe;
  }
}

TEST(StaticPgm, LowerBoundMatchesReference) {
  StaticPgmFixture f;
  const auto keys = UniformKeys(20000, 4);
  ASSERT_TRUE(f.pgm.Build(ToRecords(keys)).ok());
  Rng rng(5);
  for (int i = 0; i < 1000; ++i) {
    const Key probe = 1 + rng.NextBounded(1ULL << 62);
    std::uint64_t pos = 0;
    ASSERT_TRUE(f.pgm.LowerBound(probe, &pos).ok());
    const auto it = std::lower_bound(keys.begin(), keys.end(), probe);
    ASSERT_EQ(pos, static_cast<std::uint64_t>(it - keys.begin())) << "probe=" << probe;
  }
  // Exact keys too.
  for (std::size_t i = 0; i < keys.size(); i += 131) {
    std::uint64_t pos = 0;
    ASSERT_TRUE(f.pgm.LowerBound(keys[i], &pos).ok());
    EXPECT_EQ(pos, i);
  }
}

TEST(StaticPgm, MultiLevelStructure) {
  StaticPgmFixture f(4096, 16, 4);  // small bounds => more levels
  const auto keys = ClusteredKeys(50000, 6);
  ASSERT_TRUE(f.pgm.Build(ToRecords(keys)).ok());
  EXPECT_GE(f.pgm.num_levels(), 2u);
  EXPECT_GT(f.pgm.segment_count(), 100u);
}

TEST(StaticPgm, LookupIoWithinBound) {
  // Table 2: PGM lookup ~= one window per level + data window.
  StaticPgmFixture f;
  const auto keys = HeavyTailKeys(50000, 7);
  ASSERT_TRUE(f.pgm.Build(ToRecords(keys)).ok());
  ASSERT_TRUE(f.inner.DropCaches().ok());
  ASSERT_TRUE(f.leaf.DropCaches().ok());
  f.stats.Reset();
  const int n = 300;
  Rng rng(8);
  for (int i = 0; i < n; ++i) {
    Payload p;
    bool found;
    ASSERT_TRUE(f.pgm.Lookup(keys[rng.NextBounded(keys.size())], &p, &found).ok());
    ASSERT_TRUE(found);
  }
  const double per_op = static_cast<double>(f.stats.snapshot().TotalReads()) / n;
  // levels + data, each window spanning 1-2 blocks.
  EXPECT_LE(per_op, 2.0 * static_cast<double>(f.pgm.num_levels() + 1));
}

TEST(StaticPgm, ReadRecordsSequential) {
  StaticPgmFixture f;
  const auto keys = SequentialKeys(5000);
  ASSERT_TRUE(f.pgm.Build(ToRecords(keys)).ok());
  std::vector<Record> out;
  ASSERT_TRUE(f.pgm.ReadRecords(1234, 100, &out).ok());
  ASSERT_EQ(out.size(), 100u);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(out[i].key, keys[1234 + i]);
  // Past-the-end truncates.
  ASSERT_TRUE(f.pgm.ReadRecords(4990, 100, &out).ok());
  EXPECT_EQ(out.size(), 10u);
}

class StaticPgmPropertyTest
    : public ::testing::TestWithParam<std::tuple<int, std::uint32_t>> {
 protected:
  std::vector<Key> SweepKeys() const {
    const int dist = std::get<0>(GetParam());
    switch (dist) {
      case 0: return UniformKeys(8000, 40 + dist);
      case 1: return ClusteredKeys(8000, 40 + dist);
      default: return HeavyTailKeys(8000, 40 + dist);
    }
  }
};

TEST_P(StaticPgmPropertyTest, EveryKeyReachable) {
  const auto [dist, eps] = GetParam();
  const std::vector<Key> keys = SweepKeys();
  StaticPgmFixture f(4096, eps, std::max<std::uint32_t>(4, eps / 4));
  ASSERT_TRUE(f.pgm.Build(ToRecords(keys)).ok());
  for (std::size_t i = 0; i < keys.size(); ++i) {
    Payload p = 0;
    bool found = false;
    ASSERT_TRUE(f.pgm.Lookup(keys[i], &p, &found).ok());
    ASSERT_TRUE(found) << "dist=" << dist << " eps=" << eps << " i=" << i;
    ASSERT_EQ(p, PayloadFor(keys[i]));
  }
}

TEST_P(StaticPgmPropertyTest, LowerBoundAndAbsentKeysMatchStdLowerBound) {
  const auto [dist, eps] = GetParam();
  const std::vector<Key> keys = SweepKeys();
  StaticPgmFixture f(4096, eps, std::max<std::uint32_t>(4, eps / 4));
  ASSERT_TRUE(f.pgm.Build(ToRecords(keys)).ok());
  // Every key, its neighbours on both sides, and both ends of the key space:
  // the neighbours are absent unless they collide with an adjacent key.
  std::vector<Key> probes = {kMinKey, kMaxKey};
  for (const Key key : keys) {
    probes.push_back(key - 1);
    probes.push_back(key);
    probes.push_back(key + 1);
  }
  for (const Key probe : probes) {
    const auto it = std::lower_bound(keys.begin(), keys.end(), probe);
    const bool present = it != keys.end() && *it == probe;
    std::uint64_t pos = 0;
    ASSERT_TRUE(f.pgm.LowerBound(probe, &pos).ok());
    ASSERT_EQ(pos, static_cast<std::uint64_t>(it - keys.begin()))
        << "dist=" << dist << " eps=" << eps << " probe=" << probe;
    Payload p = 0;
    bool found = !present;
    ASSERT_TRUE(f.pgm.Lookup(probe, &p, &found).ok());
    ASSERT_EQ(found, present) << "dist=" << dist << " eps=" << eps << " probe=" << probe;
    if (present) {
      ASSERT_EQ(p, PayloadFor(probe));
    }
  }
}

// eps = 1024 windows (2053 records) outgrow the inline search window, so the
// lookups of that column run on the heap fallback.
INSTANTIATE_TEST_SUITE_P(Sweep, StaticPgmPropertyTest,
                         ::testing::Combine(::testing::Values(0, 1, 2),
                                            ::testing::Values(8u, 64u, 256u, 1024u)));

TEST(StaticPgm, WideEntryWindowsStraddleBlocks) {
  // Runs of 2100 consecutive keys separated by huge jumps: no eps = 1024
  // segment can span two runs, so the entry level holds one entry per run.
  // With 190 runs it spans two 4 KiB blocks, entry 170 straddles the block
  // boundary, and every inner window (2053 entries at eps_inner = 1024) is
  // read on the heap fallback.
  constexpr std::size_t kRuns = 190;
  constexpr std::size_t kRunKeys = 2100;
  std::vector<Key> keys;
  Key key = 1000;
  for (std::size_t run = 0; run < kRuns; ++run) {
    for (std::size_t i = 0; i < kRunKeys; ++i) keys.push_back(key++);
    key += Key{1} << 36;
  }
  StaticPgmFixture f(4096, 1024, 1024);
  ASSERT_TRUE(f.pgm.Build(ToRecords(keys)).ok());
  ASSERT_EQ(f.pgm.num_levels(), 1u);
  ASSERT_GT(f.pgm.segment_count() * 24, 4096u);
  for (std::size_t i = 0; i < keys.size(); ++i) {
    Payload p = 0;
    bool found = false;
    ASSERT_TRUE(f.pgm.Lookup(keys[i], &p, &found).ok());
    ASSERT_TRUE(found) << "i=" << i;
    ASSERT_EQ(p, PayloadFor(keys[i]));
  }
  for (std::size_t run = 0; run + 1 < kRuns; ++run) {
    // A key inside each jump: absent, and its lower bound is the next run.
    const Key gap = keys[(run + 1) * kRunKeys - 1] + 1;
    std::uint64_t pos = 0;
    ASSERT_TRUE(f.pgm.LowerBound(gap, &pos).ok());
    ASSERT_EQ(pos, (run + 1) * kRunKeys) << "run=" << run;
    Payload p = 0;
    bool found = true;
    ASSERT_TRUE(f.pgm.Lookup(gap, &p, &found).ok());
    ASSERT_FALSE(found) << "run=" << run;
  }
}

TEST(StaticPgm, FindsKeysUnderParallelExtremeLineSegment) {
  // The fb keys of OptimalPla.ParallelExtremeLinesStayWithinBound: the keys
  // at these positions sit in the segment whose extreme lines are parallel.
  StaticPgmFixture f;
  const auto keys = MakeDataset("fb", 2'000'000, 105);
  ASSERT_TRUE(f.pgm.Build(ToRecords(keys)).ok());
  for (std::size_t i = 220838; i <= 220965; ++i) {
    Payload p = 0;
    bool found = false;
    ASSERT_TRUE(f.pgm.Lookup(keys[i], &p, &found).ok());
    ASSERT_TRUE(found) << "i=" << i;
    EXPECT_EQ(p, PayloadFor(keys[i]));
  }
}

// --- DynamicPgmIndex ----------------------------------------------------

IndexOptions PgmOpts(std::uint32_t buffer = 128) {
  IndexOptions o;
  o.pgm_insert_buffer_records = buffer;
  return o;
}

TEST(DynamicPgm, BulkloadAndLookup) {
  const auto keys = UniformKeys(20000, 9);
  DynamicPgmIndex index(PgmOpts());
  ASSERT_TRUE(index.Bulkload(ToRecords(keys)).ok());
  for (std::size_t i = 0; i < keys.size(); i += 77) {
    Payload p = 0;
    bool found = false;
    ASSERT_TRUE(index.Lookup(keys[i], &p, &found).ok());
    ASSERT_TRUE(found);
    EXPECT_EQ(p, PayloadFor(keys[i]));
  }
}

TEST(DynamicPgm, InsertsGoToBufferThenMerge) {
  DynamicPgmIndex index(PgmOpts(64));
  ASSERT_TRUE(index.Bulkload(ToRecords(UniformKeys(1000, 10))).ok());
  EXPECT_EQ(index.live_level_count(), 1u);
  Rng rng(11);
  for (int i = 0; i < 1000; ++i) {
    ASSERT_TRUE(index.Insert(1 + rng.NextBounded(1ULL << 61), 7).ok());
  }
  EXPECT_GT(index.merge_count(), 0u);
  std::vector<Record> all;
  ASSERT_TRUE(index.CollectAll(&all).ok());
  EXPECT_EQ(all.size(), index.GetIndexStats().num_records);
  for (std::size_t i = 1; i < all.size(); ++i) {
    ASSERT_GT(all[i].key, all[i - 1].key);
  }
}

TEST(DynamicPgm, MergedLevelFilesAreDeleted) {
  // Section 6.3: PGM reclaims merged files; footprint stays near data size.
  DynamicPgmIndex index(PgmOpts(32));
  ASSERT_TRUE(index.Bulkload(ToRecords(UniformKeys(2000, 12))).ok());
  Rng rng(13);
  for (int i = 0; i < 5000; ++i) {
    ASSERT_TRUE(index.Insert(1 + rng.NextBounded(1ULL << 61), 7).ok());
  }
  const auto stats = index.GetIndexStats();
  // Footprint bounded by a small multiple of live data (no unreclaimed runs).
  EXPECT_LT(stats.disk_bytes, 8 * stats.num_records * sizeof(Record) + (1 << 16));
}

TEST(DynamicPgm, SharedPoolRecyclesSlotsUnderMergeChurn) {
  // Every merge deletes level files and registers new ones; in a 16-frame
  // shared pool their frames must come and go through recycled slots while
  // the index keeps answering every key.
  IndexOptions options = PgmOpts(32);
  options.shared_buffer_budget_blocks = 16;
  DynamicPgmIndex index(options);
  const auto keys = UniformKeys(3000, 21);
  ASSERT_TRUE(index.Bulkload(ToRecords(keys)).ok());
  std::map<Key, Payload> model;
  for (const Key key : keys) model[key] = PayloadFor(key);
  Rng rng(22);
  for (int i = 0; i < 3000; ++i) {
    const Key key = 1 + rng.NextBounded(1ULL << 61);
    ASSERT_TRUE(index.Insert(key, key ^ 5).ok());
    model[key] = key ^ 5;
    ASSERT_LE(index.buffer_manager().cached_frames(), 16u) << "insert " << i;
  }
  EXPECT_GT(index.merge_count(), 10u);
  for (const auto& [key, payload] : model) {
    Payload p = 0;
    bool found = false;
    ASSERT_TRUE(index.Lookup(key, &p, &found).ok());
    ASSERT_TRUE(found) << key;
    ASSERT_EQ(p, payload) << key;
  }
  EXPECT_LE(index.buffer_manager().cached_frames(), 16u);
}

TEST(DynamicPgm, UpsertShadowsOlderVersion) {
  DynamicPgmIndex index(PgmOpts(16));
  const auto keys = UniformKeys(500, 14);
  ASSERT_TRUE(index.Bulkload(ToRecords(keys)).ok());
  // Upsert an old (bulkloaded) key: shadow lives in the buffer.
  ASSERT_TRUE(index.Insert(keys[250], 999).ok());
  Payload p;
  bool found;
  ASSERT_TRUE(index.Lookup(keys[250], &p, &found).ok());
  EXPECT_TRUE(found);
  EXPECT_EQ(p, 999u);
  // Force merges; the shadow must win in the merged level too.
  Rng rng(15);
  for (int i = 0; i < 200; ++i) {
    ASSERT_TRUE(index.Insert(1 + rng.NextBounded(1ULL << 61), 1).ok());
  }
  ASSERT_TRUE(index.Lookup(keys[250], &p, &found).ok());
  EXPECT_TRUE(found);
  EXPECT_EQ(p, 999u);
  std::vector<Record> all;
  ASSERT_TRUE(index.CollectAll(&all).ok());
  // LSM counting: a shadowed upsert may be double-counted until some merge
  // consolidates the levels containing both versions.
  EXPECT_GE(index.GetIndexStats().num_records, all.size());
  EXPECT_LE(index.GetIndexStats().num_records, all.size() + 1);
}

TEST(DynamicPgm, ScanMergesBufferAndLevels) {
  DynamicPgmIndex index(PgmOpts(64));
  const auto keys = SequentialKeys(5000, 1000, 10);
  ASSERT_TRUE(index.Bulkload(ToRecords(keys)).ok());
  for (int i = 0; i < 30; ++i) {
    ASSERT_TRUE(index.Insert(keys[2000 + i] + 5, 42).ok());
  }
  std::vector<Record> out;
  ASSERT_TRUE(index.Scan(keys[2000], 60, &out).ok());
  ASSERT_EQ(out.size(), 60u);
  for (std::size_t i = 1; i < out.size(); ++i) {
    ASSERT_GT(out[i].key, out[i - 1].key);
  }
  EXPECT_EQ(out[0].key, keys[2000]);
  EXPECT_EQ(out[1].key, keys[2000] + 5);  // buffered key interleaved
}

TEST(DynamicPgm, EmptyBulkloadThenGrow) {
  DynamicPgmIndex index(PgmOpts(32));
  ASSERT_TRUE(index.Bulkload({}).ok());
  for (Key k = 1; k <= 500; ++k) {
    ASSERT_TRUE(index.Insert(k * 3, k).ok());
  }
  Payload p;
  bool found;
  ASSERT_TRUE(index.Lookup(3 * 123, &p, &found).ok());
  EXPECT_TRUE(found);
  EXPECT_EQ(p, 123u);
}

class DynamicPgmPropertyTest : public ::testing::TestWithParam<std::uint32_t> {};

TEST_P(DynamicPgmPropertyTest, MatchesReferenceModel) {
  const std::uint32_t buffer = GetParam();
  DynamicPgmIndex index(PgmOpts(buffer));
  const auto initial = UniformKeys(1500, 70);
  ASSERT_TRUE(index.Bulkload(ToRecords(initial)).ok());
  std::map<Key, Payload> reference;
  for (Key k : initial) reference[k] = PayloadFor(k);

  Rng rng(71);
  for (int op = 0; op < 3000; ++op) {
    const std::uint64_t dice = rng.NextBounded(100);
    const Key key = 1 + rng.NextBounded(1ULL << 52);
    if (dice < 55) {
      ASSERT_TRUE(index.Insert(key, key ^ 0xBEEF).ok());
      reference[key] = key ^ 0xBEEF;
    } else if (dice < 85) {
      Payload p = 0;
      bool found = false;
      ASSERT_TRUE(index.Lookup(key, &p, &found).ok());
      const auto it = reference.find(key);
      ASSERT_EQ(found, it != reference.end()) << "op=" << op;
      if (found) {
        ASSERT_EQ(p, it->second);
      }
    } else {
      std::vector<Record> out;
      ASSERT_TRUE(index.Scan(key, 20, &out).ok());
      auto it = reference.lower_bound(key);
      for (const auto& r : out) {
        ASSERT_NE(it, reference.end());
        ASSERT_EQ(r.key, it->first) << "op=" << op;
        ASSERT_EQ(r.payload, it->second);
        ++it;
      }
      if (out.size() < 20) {
        ASSERT_EQ(it, reference.end());
      }
    }
  }
  std::vector<Record> all;
  ASSERT_TRUE(index.CollectAll(&all).ok());
  ASSERT_EQ(all.size(), reference.size());
  auto ref_it = reference.begin();
  for (const auto& r : all) {
    ASSERT_EQ(r.key, ref_it->first);
    ASSERT_EQ(r.payload, ref_it->second);
    ++ref_it;
  }
}

INSTANTIATE_TEST_SUITE_P(Sweep, DynamicPgmPropertyTest, ::testing::Values(16u, 128u, 585u));

TEST(DynamicPgm, WriteIoIsSmall) {
  // O6: most PGM inserts touch only the small buffer.
  DynamicPgmIndex index(PgmOpts(585));
  ASSERT_TRUE(index.Bulkload(ToRecords(UniformKeys(50000, 80))).ok());
  index.DropCaches();
  index.io_stats().Reset();
  Rng rng(81);
  const int n = 400;  // fewer than the buffer capacity: no merges
  for (int i = 0; i < n; ++i) {
    ASSERT_TRUE(index.Insert(1 + rng.NextBounded(1ULL << 61), 1).ok());
  }
  const auto io = index.io_stats().snapshot();
  const double per_op = static_cast<double>(io.TotalIo()) / n;
  EXPECT_LE(per_op, 8.0);  // a few buffer blocks, no tree traversal
}

}  // namespace
}  // namespace liod
