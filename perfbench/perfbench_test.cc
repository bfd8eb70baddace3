// Tests of the benchmark's own code: the percentile helper, the name
// vocabulary, and the answer oracle.
#include <gtest/gtest.h>

#include <set>
#include <string>
#include <vector>

#include "names.h"
#include "oracle.h"
#include "stats.h"

namespace perfbench {
namespace {

using liod::Key;
using liod::PayloadFor;
using liod::Record;

TEST(Percentile, NearestRankPicksTheRankedValue) {
  std::vector<double> samples;
  for (int i = 100; i >= 1; --i) samples.push_back(i);  // 1..100, reversed
  const Latency l = Summarize(samples);
  EXPECT_EQ(l.samples, 100u);
  EXPECT_DOUBLE_EQ(l.p50, 50.0);
  EXPECT_DOUBLE_EQ(l.p90, 90.0);
  EXPECT_DOUBLE_EQ(l.p99, 99.0);
  EXPECT_DOUBLE_EQ(NearestRank(samples, 1.0), 100.0);
  EXPECT_DOUBLE_EQ(NearestRank(samples, 0.001), 1.0);
}

TEST(Percentile, SmallAndEmptySampleSets) {
  std::vector<double> one = {7.5};
  const Latency l = Summarize(one);
  EXPECT_EQ(l.samples, 1u);
  EXPECT_DOUBLE_EQ(l.p50, 7.5);
  EXPECT_DOUBLE_EQ(l.p90, 7.5);
  EXPECT_DOUBLE_EQ(l.p99, 7.5);
  std::vector<double> none;
  EXPECT_EQ(Summarize(none).samples, 0u);
  EXPECT_DOUBLE_EQ(Summarize(none).p99, 0.0);
  EXPECT_DOUBLE_EQ(Median({3.0, 1.0, 2.0}), 2.0);
  EXPECT_DOUBLE_EQ(Median({4.0, 1.0, 3.0, 2.0}), 2.0);  // lower middle
}

TEST(Names, EveryNameIsValidAndUnique) {
  std::set<std::string_view> seen;
  for (std::string_view name : kWorkloadNames) {
    EXPECT_TRUE(IsValidName(name)) << name;
    EXPECT_TRUE(seen.insert(name).second) << name;
  }
  seen.clear();
  for (const MetricSpec& m : kEndToEndMetrics) {
    EXPECT_TRUE(IsValidName(m.name)) << m.name;
    EXPECT_TRUE(seen.insert(m.name).second) << m.name;
    EXPECT_FALSE(m.unit.empty());
  }
  seen.clear();
  for (const MetricSpec& m : kPerLayerMetrics) {
    EXPECT_TRUE(IsValidName(m.name)) << m.name;
    EXPECT_TRUE(seen.insert(m.name).second) << m.name;
    EXPECT_FALSE(m.unit.empty());
  }
}

TEST(Names, ValidatorRejectsOutsideTheVocabulary) {
  EXPECT_TRUE(IsValidName("storage.hit_rate.leaf"));
  EXPECT_TRUE(IsValidName("9lives"));
  EXPECT_FALSE(IsValidName(""));
  EXPECT_FALSE(IsValidName("_leading"));
  EXPECT_FALSE(IsValidName("has space"));
  EXPECT_FALSE(IsValidName("slash/name"));
  EXPECT_FALSE(IsValidName(std::string(65, 'a')));
}

class OracleTest : public ::testing::Test {
 protected:
  // Universe 10, 20, ..., 100; positions 0..3 and 5 loaded (key 60 is live,
  // key 50 is not).
  std::vector<Key> keys = {10, 20, 30, 40, 50, 60, 70, 80, 90, 100};
  std::vector<std::uint32_t> loaded = {0, 1, 2, 3, 5};
  Oracle oracle{keys, loaded};

  static liod::kv::Response Hit(liod::Payload p) {
    liod::kv::Response r;
    r.found = true;
    r.payload = p;
    return r;
  }
};

TEST_F(OracleTest, LookupFlagsAWrongPayload) {
  EXPECT_TRUE(oracle.CheckLookup(1, Hit(PayloadFor(20))));
  EXPECT_FALSE(oracle.CheckLookup(1, Hit(PayloadFor(20) + 1)));
  oracle.Acknowledge(1, 777);
  EXPECT_FALSE(oracle.CheckLookup(1, Hit(PayloadFor(20))));  // stale value
  EXPECT_TRUE(oracle.CheckLookup(1, Hit(777)));
  liod::kv::Response miss;
  miss.code = liod::Status::Code::kNotFound;
  EXPECT_FALSE(oracle.CheckLookup(0, miss));
  EXPECT_FALSE(oracle.CheckLookup(4, Hit(PayloadFor(50))));  // never written
}

TEST_F(OracleTest, ScanFlagsShortWrongAndUnorderedResults) {
  const std::vector<Record> full = {{30, 31}, {40, 41}, {60, 61}};
  EXPECT_TRUE(oracle.CheckScan(2, 3, full));
  EXPECT_FALSE(oracle.CheckScan(2, 3, std::vector<Record>(full.begin(), full.begin() + 2)));
  EXPECT_FALSE(oracle.CheckScan(2, 3, std::vector<Record>{{30, 31}, {40, 41}, {60, 62}}));
  EXPECT_FALSE(oracle.CheckScan(2, 3, std::vector<Record>{{30, 31}, {40, 41}, {50, 51}}));
  EXPECT_FALSE(oracle.CheckScan(2, 3, std::vector<Record>{{40, 41}, {30, 31}, {60, 61}}));
  EXPECT_FALSE(oracle.CheckScan(2, 2, full));  // more than asked for
  // Near the end of the data a scan legitimately returns fewer records.
  EXPECT_TRUE(oracle.CheckScan(5, 100, std::vector<Record>{{60, 61}}));
  oracle.Acknowledge(9, 5);
  EXPECT_FALSE(oracle.CheckScan(5, 100, std::vector<Record>{{60, 61}}));
  EXPECT_TRUE(oracle.CheckScan(5, 100, std::vector<Record>{{60, 61}, {100, 5}}));
  EXPECT_EQ(oracle.live_count(), 6u);
  EXPECT_EQ(oracle.IndexOf(60), 5u);
  EXPECT_EQ(oracle.IndexOf(65), oracle.size());
}

}  // namespace
}  // namespace perfbench
