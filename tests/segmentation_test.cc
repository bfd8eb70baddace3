#include <algorithm>
#include <cmath>
#include <tuple>
#include <vector>

#include <gtest/gtest.h>

#include "segmentation/fmcd.h"
#include "segmentation/greedy_segmentation.h"
#include "segmentation/piecewise_linear.h"
#include "test_util.h"
#include "workload/datasets.h"

namespace liod {
namespace {

using testing_util::ClusteredKeys;
using testing_util::HeavyTailKeys;
using testing_util::SequentialKeys;
using testing_util::UniformKeys;

// --- Optimal PLA --------------------------------------------------------

TEST(OptimalPla, LinearDataYieldsOneSegment) {
  const auto keys = SequentialKeys(10000);
  const auto segments = BuildOptimalPla(keys, 4);
  ASSERT_EQ(segments.size(), 1u);
  EXPECT_EQ(segments[0].count, keys.size());
  EXPECT_TRUE(ValidatePlaSegment(segments[0], keys, 4));
}

TEST(OptimalPla, SingleKey) {
  const std::vector<Key> keys{12345};
  const auto segments = BuildOptimalPla(keys, 16);
  ASSERT_EQ(segments.size(), 1u);
  EXPECT_EQ(segments[0].count, 1u);
  EXPECT_EQ(segments[0].first_key, 12345u);
  EXPECT_TRUE(ValidatePlaSegment(segments[0], keys, 16));
}

TEST(OptimalPla, TwoKeys) {
  const std::vector<Key> keys{10, 1000000};
  const auto segments = BuildOptimalPla(keys, 1);
  ASSERT_EQ(segments.size(), 1u);
  EXPECT_TRUE(ValidatePlaSegment(segments[0], keys, 1));
}

TEST(OptimalPla, SegmentsPartitionTheInput) {
  const auto keys = ClusteredKeys(20000);
  const auto segments = BuildOptimalPla(keys, 32);
  std::uint64_t covered = 0;
  Key prev_last = 0;
  for (std::size_t i = 0; i < segments.size(); ++i) {
    const auto& seg = segments[i];
    EXPECT_EQ(seg.first_pos, covered);
    EXPECT_EQ(seg.first_key, keys[seg.first_pos]);
    EXPECT_EQ(seg.last_key, keys[seg.first_pos + seg.count - 1]);
    if (i > 0) {
      EXPECT_GT(seg.first_key, prev_last);
    }
    prev_last = seg.last_key;
    covered += seg.count;
  }
  EXPECT_EQ(covered, keys.size());
}

TEST(OptimalPla, ZeroEpsilonStillCovers) {
  const auto keys = UniformKeys(2000, 7);
  const auto segments = BuildOptimalPla(keys, 0);
  std::uint64_t covered = 0;
  for (const auto& seg : segments) {
    EXPECT_TRUE(ValidatePlaSegment(seg, keys, 0)) << "segment at pos " << seg.first_pos;
    covered += seg.count;
  }
  EXPECT_EQ(covered, keys.size());
}

TEST(OptimalPla, ParallelExtremeLinesStayWithinBound) {
  // fb at this size and seed closes a segment whose two extreme lines are
  // parallel (the segment near position 220609); the model must keep every
  // covered key within epsilon there too.
  const auto keys = MakeDataset("fb", 2'000'000, 105);
  for (const auto& seg : BuildOptimalPla(keys, 64)) {
    ASSERT_TRUE(ValidatePlaSegment(seg, keys, 64)) << "segment at pos " << seg.first_pos;
  }
}

TEST(OptimalPla, MoreErrorFewerSegments) {
  const auto keys = HeavyTailKeys(30000);
  std::size_t prev = static_cast<std::size_t>(-1);
  for (std::uint32_t eps : {16u, 64u, 256u, 1024u}) {
    const std::size_t n = CountOptimalPlaSegments(keys, eps);
    EXPECT_LE(n, prev) << "eps=" << eps;
    prev = n;
  }
}

// Property sweep: every produced segment respects the error bound, across
// distributions and epsilons.
class PlaPropertyTest
    : public ::testing::TestWithParam<std::tuple<int /*dist*/, std::uint32_t /*eps*/>> {};

std::vector<Key> MakeKeys(int dist, std::size_t n, std::uint64_t seed) {
  switch (dist) {
    case 0: return UniformKeys(n, seed);
    case 1: return ClusteredKeys(n, seed);
    case 2: return HeavyTailKeys(n, seed);
    default: return SequentialKeys(n);
  }
}

TEST_P(PlaPropertyTest, ErrorBoundHolds) {
  const auto [dist, eps] = GetParam();
  const auto keys = MakeKeys(dist, 8000, 1234 + dist);
  const auto segments = BuildOptimalPla(keys, eps);
  std::uint64_t covered = 0;
  for (const auto& seg : segments) {
    ASSERT_TRUE(ValidatePlaSegment(seg, keys, eps))
        << "dist=" << dist << " eps=" << eps << " seg first_pos=" << seg.first_pos;
    covered += seg.count;
  }
  EXPECT_EQ(covered, keys.size());
}

TEST_P(PlaPropertyTest, GreedyErrorBoundHolds) {
  const auto [dist, eps] = GetParam();
  if (eps == 0) GTEST_SKIP() << "greedy cone needs eps >= 1";
  const auto keys = MakeKeys(dist, 8000, 99 + dist);
  const auto segments = BuildGreedySegments(keys, eps);
  std::uint64_t covered = 0;
  for (const auto& seg : segments) {
    ASSERT_TRUE(ValidatePlaSegment(seg, keys, eps))
        << "dist=" << dist << " eps=" << eps << " seg first_pos=" << seg.first_pos;
    covered += seg.count;
  }
  EXPECT_EQ(covered, keys.size());
}

TEST_P(PlaPropertyTest, OptimalNeverWorseThanGreedy) {
  const auto [dist, eps] = GetParam();
  if (eps == 0) GTEST_SKIP();
  const auto keys = MakeKeys(dist, 8000, 777 + dist);
  EXPECT_LE(CountOptimalPlaSegments(keys, eps), CountGreedySegments(keys, eps))
      << "dist=" << dist << " eps=" << eps;
}

std::string PlaParamName(const ::testing::TestParamInfo<PlaPropertyTest::ParamType>& param) {
  static const char* kDistNames[] = {"uniform", "clustered", "heavytail", "sequential"};
  return std::string(kDistNames[std::get<0>(param.param)]) + "_eps" +
         std::to_string(std::get<1>(param.param));
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, PlaPropertyTest,
    ::testing::Combine(::testing::Values(0, 1, 2, 3),
                       ::testing::Values(0u, 1u, 4u, 16u, 64u, 256u)),
    PlaParamName);

// --- FMCD ---------------------------------------------------------------

TEST(Fmcd, ModelMapsKeysIntoRange) {
  const auto keys = UniformKeys(5000);
  const std::int64_t slots = static_cast<std::int64_t>(keys.size()) * 2;
  const FmcdResult r = BuildFmcd(keys, slots);
  for (Key k : keys) {
    const std::int64_t slot = r.model.PredictClamped(k, slots);
    EXPECT_GE(slot, 0);
    EXPECT_LT(slot, slots);
  }
}

TEST(Fmcd, ModelIsMonotone) {
  const auto keys = ClusteredKeys(5000);
  const FmcdResult r = BuildFmcd(keys, static_cast<std::int64_t>(keys.size()) * 2);
  EXPECT_GT(r.model.slope, 0.0);
}

TEST(Fmcd, ConflictDegreeMatchesReportedModel) {
  const auto keys = HeavyTailKeys(4000);
  const std::int64_t slots = static_cast<std::int64_t>(keys.size()) * 2;
  const FmcdResult r = BuildFmcd(keys, slots);
  EXPECT_EQ(r.conflict_degree, ComputeConflictDegree(keys, r.model, slots));
  EXPECT_GE(r.conflict_degree, 1);
}

TEST(Fmcd, UniformDataLowConflict) {
  const auto keys = SequentialKeys(10000);
  const FmcdResult r = BuildFmcd(keys, static_cast<std::int64_t>(keys.size()) * 2);
  EXPECT_LE(r.conflict_degree, 2);
  EXPECT_FALSE(r.used_fallback);
}

TEST(Fmcd, HarderDataHigherConflict) {
  // Mirrors Table 3's profiling premise: clustered >> sequential conflicts.
  const auto easy = SequentialKeys(8000);
  const auto hard = ClusteredKeys(8000);
  const auto r_easy = BuildFmcd(easy, 16000);
  const auto r_hard = BuildFmcd(hard, 16000);
  EXPECT_GE(r_hard.conflict_degree, r_easy.conflict_degree);
}

TEST(Fmcd, SingleAndTwoKeys) {
  const std::vector<Key> one{42};
  const auto r1 = BuildFmcd(one, 8);
  EXPECT_EQ(r1.conflict_degree, 1);
  const std::vector<Key> two{42, 99};
  const auto r2 = BuildFmcd(two, 8);
  EXPECT_LE(r2.conflict_degree, 2);
  const auto s0 = r2.model.PredictClamped(42, 8);
  const auto s1 = r2.model.PredictClamped(99, 8);
  EXPECT_LE(s0, s1);
}

TEST(Fmcd, DegenerateDuplicateRangeUsesFallbackSafely) {
  // Nearly-identical keys with one outlier: a pathological distribution.
  std::vector<Key> keys;
  for (Key k = 1000; k < 1100; ++k) keys.push_back(k);
  keys.push_back(1ULL << 60);
  const auto r = BuildFmcd(keys, static_cast<std::int64_t>(keys.size()) * 5);
  for (Key k : keys) {
    const auto slot = r.model.PredictClamped(k, static_cast<std::int64_t>(keys.size()) * 5);
    EXPECT_GE(slot, 0);
  }
}

class FmcdPropertyTest
    : public ::testing::TestWithParam<std::tuple<int /*dist*/, int /*multiplier*/>> {};

TEST_P(FmcdPropertyTest, ConflictDegreeReasonable) {
  const auto [dist, mult] = GetParam();
  const auto keys = MakeKeys(dist, 4000, 31 * dist + mult);
  const std::int64_t slots = static_cast<std::int64_t>(keys.size()) * mult;
  const FmcdResult r = BuildFmcd(keys, slots);
  // FMCD guarantees success only when conflict degree <= n/3; the fallback
  // must still produce a usable (finite, monotone) model.
  EXPECT_TRUE(std::isfinite(r.model.slope));
  EXPECT_TRUE(std::isfinite(r.model.intercept));
  EXPECT_GE(r.model.slope, 0.0);
  EXPECT_LE(r.conflict_degree, static_cast<std::int64_t>(keys.size()));
}

INSTANTIATE_TEST_SUITE_P(Sweep, FmcdPropertyTest,
                         ::testing::Combine(::testing::Values(0, 1, 2, 3),
                                            ::testing::Values(1, 2, 5)));

// --- LinearModel --------------------------------------------------------

TEST(LinearModel, PredictClampedStaysInRange) {
  LinearModel m{0.001, -5.0};
  EXPECT_EQ(m.PredictClamped(0, 100), 0);
  EXPECT_EQ(m.PredictClamped(1ULL << 40, 100), 99);
}

TEST(LinearModel, FromPointsInterpolates) {
  const auto m = LinearModel::FromPoints(100, 0.0, 200, 10.0);
  EXPECT_DOUBLE_EQ(m.PredictRaw(150), 5.0);
}

TEST(LinearModel, LeastSquaresRecoversExactLine) {
  std::vector<Key> keys;
  for (int i = 0; i < 100; ++i) keys.push_back(1000 + 3 * i);
  const auto m = LinearModel::LeastSquares(keys.begin(), 100);
  for (int i = 0; i < 100; ++i) {
    EXPECT_NEAR(m.PredictRaw(keys[i]), i, 1e-6);
  }
}

TEST(LinearModel, LeastSquaresDegenerate) {
  std::vector<Key> keys{7, 7, 7};
  const auto m = LinearModel::LeastSquares(keys.begin(), 3);
  EXPECT_TRUE(std::isfinite(m.slope));
  EXPECT_TRUE(std::isfinite(m.intercept));
}

}  // namespace
}  // namespace liod
