// Opt-in phase accounting (IndexOptions::breakdown): a PhaseScope without an
// injected sink leaves the caller's own I/O tally exact, one with a sink
// charges its phase, and injecting a sink changes neither an index's answers
// nor its counted I/O -- for every factory index and for the out-of-place
// update decorator.

#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/options.h"
#include "common/random.h"
#include "common/status.h"
#include "common/types.h"
#include "core/index_factory.h"
#include "core/op_breakdown.h"
#include "storage/io_stats.h"
#include "test_util.h"

namespace liod {
namespace {

using testing_util::ToRecords;
using testing_util::UniformKeys;

constexpr std::size_t kBulkKeys = 4000;
constexpr std::size_t kOps = 3000;

/// What one tape run observed: every answer in order, the final counted I/O,
/// and how many read ops (lookups + scans) it issued.
struct TapeResult {
  std::vector<std::uint64_t> answers;
  IoStatsSnapshot io;
  std::uint64_t read_ops = 0;
};

/// Bulkloads half of a fixed key set, then runs a fixed mix of lookups
/// (present and absent keys), inserts of the other half, upserts and short
/// scans. The tape depends only on the seed, never on the options. The
/// search-only hybrids answer the first write kUnimplemented; the tape then
/// issues no more writes.
TapeResult RunTape(const std::string& name, const IndexOptions& options) {
  TapeResult result;
  const std::vector<Key> keys = UniformKeys(2 * kBulkKeys, 17);
  std::vector<Key> bulk, pool;
  for (std::size_t i = 0; i < keys.size(); ++i) (i % 2 == 0 ? bulk : pool).push_back(keys[i]);
  std::unique_ptr<DiskIndex> index = MakeIndex(name, options);
  EXPECT_NE(index, nullptr) << name;
  if (index == nullptr) return result;
  EXPECT_TRUE(index->Bulkload(ToRecords(bulk)).ok()) << name;

  Rng rng(29);
  bool writable = true;
  const auto write = [&](Key key, Payload payload) {
    if (!writable) return;
    const Status status = index->Insert(key, payload);
    if (status.code() == Status::Code::kUnimplemented) {
      writable = false;
      return;
    }
    EXPECT_TRUE(status.ok()) << name << ": " << status.ToString();
  };
  std::size_t next_insert = 0;
  std::vector<Record> scanned;
  for (std::size_t op = 0; op < kOps; ++op) {
    const std::uint64_t dice = rng.NextBounded(10);
    const Key key = keys[rng.NextBounded(keys.size())];
    if (dice < 5) {
      Payload payload = 0;
      bool found = false;
      EXPECT_TRUE(index->Lookup(key, &payload, &found).ok()) << name;
      result.answers.push_back(found ? payload : ~0ULL);
      ++result.read_ops;
    } else if (dice < 8 && next_insert < pool.size()) {
      write(pool[next_insert], PayloadFor(pool[next_insert]));
      ++next_insert;
    } else if (dice < 9) {
      write(key, op);  // upsert or new key
    } else {
      EXPECT_TRUE(index->Scan(key, 1 + rng.NextBounded(40), &scanned).ok()) << name;
      result.answers.push_back(scanned.size());
      for (const Record& record : scanned) {
        result.answers.push_back(record.key);
        result.answers.push_back(record.payload);
      }
      ++result.read_ops;
    }
  }
  result.io = index->io_stats().snapshot();
  return result;
}

std::uint64_t TotalEvents(const OpBreakdown& breakdown) {
  std::uint64_t events = 0;
  for (int p = 0; p < kNumOpPhases; ++p) {
    events += breakdown.totals(static_cast<OpPhase>(p)).events;
  }
  return events;
}

class PhaseAccounting : public ::testing::TestWithParam<std::string> {};

TEST_P(PhaseAccounting, SinkLeavesAnswersAndIoBitIdentical) {
  const std::string& name = GetParam();
  const TapeResult without = RunTape(name, IndexOptions{});

  OpBreakdown sink;
  IndexOptions with_sink_options;
  with_sink_options.breakdown = &sink;
  const TapeResult with = RunTape(name, with_sink_options);

  EXPECT_EQ(without.answers, with.answers);
  EXPECT_EQ(without.io, with.io);
  EXPECT_GT(with.io.TotalReads(), 0u);

  // With a sink, every read op charged at least one search phase.
  EXPECT_GE(sink.totals(OpPhase::kSearch).events, with.read_ops);
  EXPECT_GT(sink.totals(OpPhase::kSearch).io.TotalReads(), 0u);
}

INSTANTIATE_TEST_SUITE_P(AllFactoryIndexes, PhaseAccounting,
                         ::testing::Values("btree", "fiting", "pgm", "alex", "alex-l1", "lipp",
                                           "hybrid-fiting", "hybrid-pgm", "hybrid-alex",
                                           "hybrid-lipp"),
                         [](const ::testing::TestParamInfo<std::string>& info) {
                           std::string name = info.param;
                           for (char& c : name) {
                             if (c == '-') c = '_';
                           }
                           return name;
                         });

TEST(PhaseAccountingDecorator, BufferedIndexChargesTheInjectedSink) {
  // The update decorator builds its base from the same options, so lookups
  // that fall through to the base charge the caller's sink.
  IndexOptions options;
  options.update_buffer_blocks = 4;
  const TapeResult without = RunTape("btree", options);
  OpBreakdown sink;
  options.breakdown = &sink;
  const TapeResult with = RunTape("btree", options);
  EXPECT_EQ(without.answers, with.answers);
  EXPECT_EQ(without.io, with.io);
  EXPECT_GT(sink.totals(OpPhase::kSearch).events, 0u);
}

TEST(PhaseAccountingScope, NullSinkScopeLeavesOuterTallyExact) {
  // An inert scope must not disturb the caller's own thread-exact tally.
  IoStats stats;
  IoStatsSnapshot outer;
  IoStats::ThreadTally tally(&stats, &outer);
  {
    PhaseScope scope(nullptr, &stats, OpPhase::kSearch);
    stats.CountRead(FileClass::kLeaf);
    stats.CountInnerNodeVisit();
  }
  EXPECT_EQ(outer.reads[static_cast<int>(FileClass::kLeaf)], 1u);
  EXPECT_EQ(outer.inner_nodes_visited, 1u);
}

TEST(PhaseAccountingScope, SinkScopeChargesItsPhaseOnly) {
  IoStats stats;
  OpBreakdown sink;
  {
    PhaseScope scope(&sink, &stats, OpPhase::kInsert);
    stats.CountRead(FileClass::kLeaf);
    stats.CountWrite(FileClass::kLeaf);
  }
  stats.CountRead(FileClass::kLeaf);  // outside any scope: not charged
  const OpBreakdown::PhaseTotals insert = sink.totals(OpPhase::kInsert);
  EXPECT_EQ(insert.events, 1u);
  EXPECT_EQ(insert.io.reads[static_cast<int>(FileClass::kLeaf)], 1u);
  EXPECT_EQ(insert.io.writes[static_cast<int>(FileClass::kLeaf)], 1u);
  EXPECT_GE(insert.cpu_us, 0.0);
  EXPECT_EQ(sink.totals(OpPhase::kSearch).events, 0u);
  EXPECT_EQ(TotalEvents(sink), 1u);
}

}  // namespace
}  // namespace liod
