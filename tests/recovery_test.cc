// Durability subsystem (src/recovery/): WAL record format and CRC, writer
// policies (sync-per-op / group-commit / async), torn-tail detection on
// replay, double-buffered checkpoint manifests, and full crash recovery --
// for each injected crash site (mid-WAL-append, mid-checkpoint,
// mid-background-merge) recovery must converge to the committed prefix:
// newest-wins lookup/scan answers bit-equal to an uncrashed reference that
// applied exactly the committed operations.

#include <algorithm>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "common/random.h"
#include "core/index_factory.h"
#include "engine/runner.h"
#include "engine/sharded_engine.h"
#include "recovery/checkpoint_manager.h"
#include "recovery/durable_store.h"
#include "recovery/recovery_manager.h"
#include "recovery/wal_format.h"
#include "recovery/wal_reader.h"
#include "recovery/wal_writer.h"
#include "storage/fault_injection_device.h"
#include "test_util.h"
#include "updates/buffered_index.h"
#include "workload/workloads.h"

namespace liod {
namespace {

using testing_util::ToRecords;
using testing_util::UniformKeys;

// --- WAL record format ------------------------------------------------------

TEST(WalFormatTest, Crc32cMatchesKnownVector) {
  // CRC-32C of "123456789" is the classic check value 0xE3069283.
  const char* data = "123456789";
  EXPECT_EQ(Crc32c(reinterpret_cast<const std::byte*>(data), 9), 0xE3069283u);
}

TEST(WalFormatTest, EncodeDecodeRoundtrip) {
  WalRecord record;
  record.lsn = 12345;
  record.type = WalRecordType::kTombstone;
  record.key = 0xDEADBEEFCAFE;
  record.payload = 77;
  std::byte raw[kWalRecordBytes];
  EncodeWalRecord(record, raw);
  WalRecord decoded;
  ASSERT_EQ(DecodeWalRecord(raw, &decoded), WalDecode::kValid);
  EXPECT_EQ(decoded, record);
}

TEST(WalFormatTest, AnyFlippedByteIsDetected) {
  WalRecord record;
  record.lsn = 9;
  record.key = 42;
  record.payload = 43;
  std::byte raw[kWalRecordBytes];
  EncodeWalRecord(record, raw);
  for (std::size_t i = 0; i < kWalRecordBytes - 4; ++i) {  // trailing pad excluded
    std::byte corrupted[kWalRecordBytes];
    std::copy(raw, raw + kWalRecordBytes, corrupted);
    corrupted[i] ^= std::byte{0x40};
    WalRecord decoded;
    EXPECT_NE(DecodeWalRecord(corrupted, &decoded), WalDecode::kValid) << "byte " << i;
  }
}

TEST(WalFormatTest, AllZeroSlotIsEmptyNotCorrupt) {
  std::byte raw[kWalRecordBytes] = {};
  WalRecord decoded;
  EXPECT_EQ(DecodeWalRecord(raw, &decoded), WalDecode::kEmpty);
}

// --- WAL writer x reader ----------------------------------------------------

/// A durable slot whose devices are fault-injectable, plus standalone paged
/// files over them -- the unit-test rig for writer/reader/checkpoint.
struct WalRig {
  IoStats stats;
  FaultInjectionDevice* wal_device;   // owned by slot
  FaultInjectionDevice* ckpt_device;  // owned by slot
  DurableSlot slot;

  explicit WalRig(std::size_t block_size = 4096)
      : slot(MakeInjected(block_size, &wal_device), MakeInjected(block_size, &ckpt_device)) {}

  static std::unique_ptr<BlockDevice> MakeInjected(std::size_t block_size,
                                                   FaultInjectionDevice** out) {
    auto device = std::make_unique<FaultInjectionDevice>(
        std::make_unique<MemoryBlockDevice>(block_size));
    *out = device.get();
    return device;
  }

  std::unique_ptr<PagedFile> OpenWal() {
    return std::make_unique<PagedFile>(std::make_unique<BorrowedBlockDevice>(wal_device),
                                       &stats, FileClass::kWal, PagedFileOptions{});
  }
  std::unique_ptr<PagedFile> OpenCheckpoint() {
    return std::make_unique<PagedFile>(std::make_unique<BorrowedBlockDevice>(ckpt_device),
                                       &stats, FileClass::kWal, PagedFileOptions{});
  }
};

TEST(WalWriterTest, SyncPerOpIsDurableRecordByRecord) {
  WalRig rig;
  const std::size_t per_block = WalRecordsPerBlock(4096);
  const std::size_t n = per_block + 10;  // spans two blocks
  {
    auto file = rig.OpenWal();
    WalWriter writer(file.get(), DurabilityPolicy::kSyncPerOp, nullptr);
    for (std::size_t i = 0; i < n; ++i) {
      ASSERT_TRUE(writer.Append(WalRecordType::kUpsert, 100 + i, 200 + i).ok());
    }
    EXPECT_EQ(writer.last_lsn(), n);
  }  // no shutdown sync: sync-per-op already forced every record
  auto file = rig.OpenWal();
  WalReplay replay;
  ASSERT_TRUE(WalReader::Scan(file.get(), 0, 0, &replay).ok());
  ASSERT_EQ(replay.records.size(), n);
  EXPECT_FALSE(replay.torn_tail);
  EXPECT_EQ(replay.max_lsn, n);
  for (std::size_t i = 0; i < n; ++i) {
    EXPECT_EQ(replay.records[i].lsn, i + 1);
    EXPECT_EQ(replay.records[i].key, 100 + i);
    EXPECT_EQ(replay.records[i].payload, 200 + i);
  }
}

TEST(WalWriterTest, AsyncLosesTheUnforcedTail) {
  WalRig rig;
  {
    auto file = rig.OpenWal();
    WalWriter writer(file.get(), DurabilityPolicy::kAsync, nullptr);
    for (std::size_t i = 0; i < 10; ++i) {  // far below one block
      ASSERT_TRUE(writer.Append(WalRecordType::kUpsert, i, i).ok());
    }
  }  // crash: tail was never forced
  auto file = rig.OpenWal();
  WalReplay replay;
  ASSERT_TRUE(WalReader::Scan(file.get(), 0, 0, &replay).ok());
  EXPECT_TRUE(replay.records.empty());

  // The same appends followed by an explicit force ARE durable.
  {
    auto writer_file = rig.OpenWal();
    WalWriter writer(writer_file.get(), DurabilityPolicy::kAsync, nullptr);
    for (std::size_t i = 0; i < 10; ++i) {
      ASSERT_TRUE(writer.Append(WalRecordType::kUpsert, i, i).ok());
    }
    ASSERT_TRUE(writer.Sync().ok());
  }
  auto reread = rig.OpenWal();
  ASSERT_TRUE(WalReader::Scan(reread.get(), 0, 0, &replay).ok());
  EXPECT_EQ(replay.records.size(), 10u);
}

TEST(WalWriterTest, GroupCommitForcesEveryRegisteredWriterAtTheBoundary) {
  WalRig rig_a, rig_b;
  GroupCommitWindow window(4);
  auto file_a = rig_a.OpenWal();
  auto file_b = rig_b.OpenWal();
  WalWriter writer_a(file_a.get(), DurabilityPolicy::kGroupCommit, &window);
  WalWriter writer_b(file_b.get(), DurabilityPolicy::kGroupCommit, &window);
  ASSERT_TRUE(writer_a.Append(WalRecordType::kUpsert, 1, 1).ok());
  ASSERT_TRUE(writer_b.Append(WalRecordType::kUpsert, 2, 2).ok());
  ASSERT_TRUE(writer_a.Append(WalRecordType::kUpsert, 3, 3).ok());
  EXPECT_EQ(window.commits(), 0u);  // three ops: window of four not reached
  ASSERT_TRUE(writer_b.Append(WalRecordType::kUpsert, 4, 4).ok());
  EXPECT_EQ(window.commits(), 1u);  // boundary: both writers forced
  WalReplay replay_a, replay_b;
  auto read_a = rig_a.OpenWal();
  auto read_b = rig_b.OpenWal();
  ASSERT_TRUE(WalReader::Scan(read_a.get(), 0, 0, &replay_a).ok());
  ASSERT_TRUE(WalReader::Scan(read_b.get(), 0, 0, &replay_b).ok());
  EXPECT_EQ(replay_a.records.size(), 2u);
  EXPECT_EQ(replay_b.records.size(), 2u);
}

TEST(WalWriterTest, EpochTruncationFreesTheLogAndReplayResumesPastIt) {
  WalRig rig;
  auto file = rig.OpenWal();
  WalWriter writer(file.get(), DurabilityPolicy::kSyncPerOp, nullptr);
  for (std::size_t i = 0; i < 50; ++i) {
    ASSERT_TRUE(writer.Append(WalRecordType::kUpsert, i, i).ok());
  }
  const BlockId epoch = writer.NextEpochStart();
  ASSERT_TRUE(writer.BeginEpoch(epoch).ok());
  EXPECT_GT(file->freed_blocks(), 0u);
  ASSERT_TRUE(writer.Append(WalRecordType::kUpsert, 999, 999).ok());
  WalReplay replay;
  auto reread = rig.OpenWal();
  ASSERT_TRUE(WalReader::Scan(reread.get(), epoch, 0, &replay).ok());
  ASSERT_EQ(replay.records.size(), 1u);
  EXPECT_EQ(replay.records[0].key, 999u);
  EXPECT_EQ(replay.records[0].lsn, 51u);
}

TEST(WalReaderTest, TornTailYieldsExactlyTheCommittedPrefix) {
  WalRig rig;
  std::size_t acked = 0;
  {
    auto file = rig.OpenWal();
    WalWriter writer(file.get(), DurabilityPolicy::kSyncPerOp, nullptr);
    // The device dies after 20 successful writes. The dying (21st) write
    // differs from the stored image only in record slot 20 (bytes 960-1008:
    // appends never rewrite earlier slots), so tear it 980 bytes in: slot 20
    // gets the new record's magic but not its CRC -- a ripped record the
    // replay must flag and stop at.
    rig.wal_device->SetWriteFailureMode(FaultInjectionDevice::WriteFailureMode::kTorn, 980);
    rig.wal_device->FailAfter(20);
    for (std::size_t i = 0; i < 1000; ++i) {
      if (!writer.Append(WalRecordType::kUpsert, 1 + i, 1 + i).ok()) break;
      ++acked;
    }
  }
  ASSERT_EQ(acked, 20u);  // sync-per-op: one device write per acked op
  rig.wal_device->FailAfter(-1);  // recovery runs on a healthy disk
  auto file = rig.OpenWal();
  WalReplay replay;
  ASSERT_TRUE(WalReader::Scan(file.get(), 0, 0, &replay).ok());
  EXPECT_TRUE(replay.torn_tail);
  // Everything acked must be recovered; the torn block may additionally hold
  // a prefix of the unacked write that ripped (durable-but-unacked is legal).
  ASSERT_GE(replay.records.size(), acked);
  for (std::size_t i = 0; i < replay.records.size(); ++i) {
    EXPECT_EQ(replay.records[i].lsn, i + 1);
    EXPECT_EQ(replay.records[i].key, 1 + i);
  }
}

// --- checkpoints ------------------------------------------------------------

TEST(CheckpointTest, WriteThenLoadRoundtrips) {
  WalRig rig;
  {
    auto file = rig.OpenCheckpoint();
    CheckpointManager manager(file.get());
    manager.Note(StagedUpdate{5, 50, false});
    manager.Note(StagedUpdate{3, 30, false});
    manager.Note(StagedUpdate{9, 0, true});
    manager.Note(StagedUpdate{5, 55, false});  // newest wins
    ASSERT_TRUE(manager.Write(/*lsn=*/42, /*wal_start_block=*/7).ok());
  }
  auto file = rig.OpenCheckpoint();
  LoadedCheckpoint loaded;
  ASSERT_TRUE(CheckpointManager::Load(file.get(), &loaded).ok());
  ASSERT_TRUE(loaded.found);
  EXPECT_EQ(loaded.lsn, 42u);
  EXPECT_EQ(loaded.wal_start_block, 7u);
  const std::vector<StagedUpdate> expected = {
      {3, 30, false}, {5, 55, false}, {9, 0, true}};
  EXPECT_EQ(loaded.entries, expected);
}

TEST(CheckpointTest, EmptyDeviceHasNoCheckpoint) {
  WalRig rig;
  auto file = rig.OpenCheckpoint();
  LoadedCheckpoint loaded;
  ASSERT_TRUE(CheckpointManager::Load(file.get(), &loaded).ok());
  EXPECT_FALSE(loaded.found);
}

TEST(CheckpointTest, NewestValidManifestWins) {
  WalRig rig;
  auto file = rig.OpenCheckpoint();
  CheckpointManager manager(file.get());
  manager.Note(StagedUpdate{1, 10, false});
  ASSERT_TRUE(manager.Write(10, 3).ok());
  manager.Note(StagedUpdate{2, 20, false});
  ASSERT_TRUE(manager.Write(20, 9).ok());
  LoadedCheckpoint loaded;
  ASSERT_TRUE(CheckpointManager::Load(file.get(), &loaded).ok());
  ASSERT_TRUE(loaded.found);
  EXPECT_EQ(loaded.lsn, 20u);
  EXPECT_EQ(loaded.entries.size(), 2u);
}

TEST(CheckpointTest, CrashMidCheckpointKeepsThePreviousOne) {
  WalRig rig;
  auto file = rig.OpenCheckpoint();
  CheckpointManager manager(file.get());
  manager.Note(StagedUpdate{1, 10, false});
  ASSERT_TRUE(manager.Write(10, 3).ok());  // payload + manifest = 2 writes
  manager.Note(StagedUpdate{2, 20, false});
  // The next checkpoint's payload write succeeds but its manifest commit
  // tears: the previous manifest slot must stay authoritative.
  rig.ckpt_device->SetWriteFailureMode(FaultInjectionDevice::WriteFailureMode::kTorn, 13);
  rig.ckpt_device->FailAfter(1);
  ASSERT_FALSE(manager.Write(20, 9).ok());
  rig.ckpt_device->FailAfter(-1);
  auto reread = rig.OpenCheckpoint();
  LoadedCheckpoint loaded;
  ASSERT_TRUE(CheckpointManager::Load(reread.get(), &loaded).ok());
  ASSERT_TRUE(loaded.found);
  EXPECT_EQ(loaded.lsn, 10u);
  EXPECT_EQ(loaded.entries.size(), 1u);
  EXPECT_EQ(loaded.wal_start_block, 3u);
}

// --- full crash recovery ----------------------------------------------------

/// One deterministic mixed op (upsert existing / insert new / delete).
struct TapeOp {
  Key key = 0;
  Payload payload = 0;
  bool is_delete = false;
};

std::vector<TapeOp> MakeTape(const std::vector<Key>& bulk, std::size_t n,
                             std::uint64_t seed) {
  Rng rng(seed);
  std::vector<TapeOp> ops;
  ops.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    TapeOp op;
    const std::uint64_t kind = rng.NextBounded(10);
    if (kind < 2) {
      op.is_delete = true;
      op.key = bulk[rng.NextBounded(bulk.size())];
    } else if (kind < 7) {
      op.key = bulk[rng.NextBounded(bulk.size())];
      op.payload = 1'000'000 + i;
    } else {
      op.key = bulk.back() + 1 + rng.NextBounded(1ULL << 24);
      op.payload = 2'000'000 + i;
    }
    ops.push_back(op);
  }
  return ops;
}

Status ApplyOp(DiskIndex* index, const TapeOp& op) {
  return op.is_delete ? index->Delete(op.key) : index->Insert(op.key, op.payload);
}

/// Asserts the two indexes answer bit-equally: every key either misses in
/// both or hits in both with the same payload, and a full scan returns the
/// identical record sequence.
void ExpectAnswersEqual(DiskIndex* recovered, DiskIndex* reference,
                        const std::vector<Key>& bulk, const std::vector<TapeOp>& ops) {
  std::set<Key> keys(bulk.begin(), bulk.end());
  for (const TapeOp& op : ops) keys.insert(op.key);
  for (Key key : keys) {
    Payload got = 0, want = 0;
    bool got_found = false, want_found = false;
    ASSERT_TRUE(recovered->Lookup(key, &got, &got_found).ok());
    ASSERT_TRUE(reference->Lookup(key, &want, &want_found).ok());
    ASSERT_EQ(got_found, want_found) << "key " << key;
    if (want_found) {
      ASSERT_EQ(got, want) << "key " << key;
    }
  }
  std::vector<Record> got_scan, want_scan;
  ASSERT_TRUE(recovered->Scan(kMinKey, keys.size() + 16, &got_scan).ok());
  ASSERT_TRUE(reference->Scan(kMinKey, keys.size() + 16, &want_scan).ok());
  ASSERT_EQ(got_scan, want_scan);
}

IndexOptions DurableOptions(DurabilityPolicy policy, DurableSlot* slot,
                            MergeMode merge_mode = MergeMode::kSync) {
  IndexOptions options;
  options.alex_max_data_node_slots = 4096;
  options.update_buffer_blocks = 1;  // ~170-record staging: frequent merges
  options.update_buffer_merge_mode = merge_mode;
  options.durability = policy;
  options.wal_group_window = 4;
  options.durable_slot = slot;
  return options;
}

/// Runs the crash scenario: applies the tape until the injected fault kills
/// an operation, recovers from the slot on a healed device, rebuilds the
/// committed-prefix reference, and compares full answer sets.
void RunCrashScenario(const std::string& index_name, const IndexOptions& options,
                      WalRig* rig, bool expect_all_acked_committed) {
  const std::vector<Key> bulk_keys = UniformKeys(3000, 17);
  const std::vector<Record> bulk = ToRecords(bulk_keys);
  // Long tape: background-merge failures surface on the first op AFTER the
  // drain thread loses its race with the foreground mutex, which can take a
  // while -- the tape must outlast it (the yield below hands the drain
  // thread the lock regularly).
  const std::vector<TapeOp> tape = MakeTape(bulk_keys, 20000, 18);

  std::size_t acked = 0;
  {
    auto index = MakeIndex(index_name, options);
    ASSERT_NE(index, nullptr);
    ASSERT_TRUE(index->Bulkload(bulk).ok());
    for (const TapeOp& op : tape) {
      if (!ApplyOp(index.get(), op).ok()) break;
      ++acked;
      if (acked % 128 == 0) std::this_thread::yield();
    }
    ASSERT_LT(acked, tape.size()) << "the injected crash never fired";
  }  // crash: the index dies with staging, overlay, and dirty frames

  // Recovery runs on a healed device (a fresh process with a working disk).
  rig->wal_device->FailAfter(-1);
  rig->ckpt_device->FailAfter(-1);
  RecoveryResult recovered;
  ASSERT_TRUE(
      RecoveryManager::Recover(&rig->slot, index_name, options, bulk, &recovered).ok());
  ASSERT_NE(recovered.index, nullptr);

  // Tape op i carries LSN i + 1, so max_lsn IS the committed prefix length.
  const std::size_t committed = static_cast<std::size_t>(recovered.max_lsn);
  ASSERT_LE(committed, tape.size());
  if (expect_all_acked_committed) {
    EXPECT_GE(committed, acked) << "an acknowledged sync-per-op operation was lost";
  }

  IndexOptions reference_options = options;
  reference_options.durability = DurabilityPolicy::kNone;
  reference_options.durable_slot = nullptr;
  reference_options.update_buffer_merge_mode = MergeMode::kSync;
  auto reference = MakeIndex(index_name, reference_options);
  ASSERT_NE(reference, nullptr);
  ASSERT_TRUE(reference->Bulkload(bulk).ok());
  for (std::size_t i = 0; i < committed; ++i) {
    ASSERT_TRUE(ApplyOp(reference.get(), tape[i]).ok());
  }
  ASSERT_TRUE(reference->FlushUpdates().ok());

  ExpectAnswersEqual(recovered.index.get(), reference.get(), bulk_keys, tape);
}

class CrashRecoveryTest : public ::testing::TestWithParam<const char*> {};

TEST_P(CrashRecoveryTest, MidWalAppend) {
  WalRig rig;
  // The WAL device dies (sticky) mid-append, after enough traffic for
  // merges and checkpoints to have happened.
  rig.wal_device->SetWriteFailureMode(FaultInjectionDevice::WriteFailureMode::kTorn, 100);
  rig.wal_device->FailAfter(400);
  RunCrashScenario(GetParam(), DurableOptions(DurabilityPolicy::kSyncPerOp, &rig.slot),
                   &rig, /*expect_all_acked_committed=*/true);
}

TEST_P(CrashRecoveryTest, MidCheckpoint) {
  WalRig rig;
  // The checkpoint device survives the first checkpoint (two writes:
  // payload + manifest), then dies tearing a later checkpoint's write:
  // recovery must fall back to the surviving checkpoint + a longer WAL tail.
  rig.ckpt_device->SetWriteFailureMode(FaultInjectionDevice::WriteFailureMode::kTorn, 13);
  rig.ckpt_device->FailAfter(3);
  RunCrashScenario(GetParam(), DurableOptions(DurabilityPolicy::kSyncPerOp, &rig.slot),
                   &rig, /*expect_all_acked_committed=*/true);
}

TEST_P(CrashRecoveryTest, MidBackgroundMerge) {
  WalRig rig;
  // Background drains checkpoint after merging; killing the checkpoint
  // device fails the drain on the merge thread. The sticky error must fail a
  // later foreground operation (the crash point), and recovery must still
  // converge to the committed prefix.
  rig.ckpt_device->FailAfter(0);
  RunCrashScenario(GetParam(),
                   DurableOptions(DurabilityPolicy::kSyncPerOp, &rig.slot,
                                  MergeMode::kBackground),
                   &rig, /*expect_all_acked_committed=*/false);
}

INSTANTIATE_TEST_SUITE_P(FactoryIndexes, CrashRecoveryTest,
                         ::testing::Values("btree", "alex", "pgm", "hybrid-pgm"),
                         [](const ::testing::TestParamInfo<const char*>& info) {
                           std::string name = info.param;
                           for (char& c : name) {
                             if (c == '-') c = '_';
                           }
                           return name;
                         });

// --- durability properties --------------------------------------------------

TEST(RecoveryPropertiesTest, DurabilityNoneConstructsNoWal) {
  IndexOptions options;
  options.alex_max_data_node_slots = 4096;
  options.update_buffer_blocks = 16;
  auto index = MakeIndex("btree", options);
  ASSERT_NE(index, nullptr);
  const auto bulk = ToRecords(UniformKeys(2000, 3));
  ASSERT_TRUE(index->Bulkload(bulk).ok());
  for (std::size_t i = 0; i < 500; ++i) {
    ASSERT_TRUE(index->Insert(bulk[i].key, i).ok());
  }
  ASSERT_TRUE(index->FlushUpdates().ok());
  const IoStatsSnapshot io = index->io_stats().snapshot();
  EXPECT_EQ(io.WritesFor(FileClass::kWal), 0u);
  EXPECT_EQ(io.ReadsFor(FileClass::kWal), 0u);
  auto* buffered = dynamic_cast<UpdateBufferedIndex*>(index.get());
  ASSERT_NE(buffered, nullptr);
  EXPECT_EQ(buffered->wal_last_lsn(), 0u);
  EXPECT_EQ(buffered->checkpoints_written(), 0u);
}

TEST(RecoveryPropertiesTest, GroupCommitStrictlyFewerWalWritesThanSyncPerOp) {
  const auto bulk = ToRecords(UniformKeys(3000, 5));
  auto run = [&](DurabilityPolicy policy) {
    DurableSlot slot(4096);
    IndexOptions options = DurableOptions(policy, &slot);
    options.update_buffer_blocks = 8;
    auto index = MakeIndex("btree", options);
    EXPECT_NE(index, nullptr);
    EXPECT_TRUE(index->Bulkload(bulk).ok());
    Rng rng(6);
    for (std::size_t i = 0; i < 1500; ++i) {
      EXPECT_TRUE(index->Insert(bulk[rng.NextBounded(bulk.size())].key, 10 + i).ok());
    }
    EXPECT_TRUE(index->FlushUpdates().ok());
    // Equal answers: both policies leave the identical fully-merged state.
    std::vector<Record> scan;
    EXPECT_TRUE(index->Scan(kMinKey, bulk.size() + 8, &scan).ok());
    return std::make_pair(index->io_stats().snapshot().WritesFor(FileClass::kWal), scan);
  };
  const auto [sync_writes, sync_scan] = run(DurabilityPolicy::kSyncPerOp);
  const auto [group_writes, group_scan] = run(DurabilityPolicy::kGroupCommit);
  EXPECT_EQ(sync_scan, group_scan);
  EXPECT_GT(group_writes, 0u);
  EXPECT_LT(group_writes, sync_writes);
}

TEST(RecoveryPropertiesTest, ReplayShrinksAsCheckpointCadenceTightens) {
  const auto bulk = ToRecords(UniformKeys(3000, 7));
  auto replayed_after_crash = [&](std::size_t checkpoint_every) {
    DurableSlot slot(4096);
    IndexOptions options = DurableOptions(DurabilityPolicy::kGroupCommit, &slot);
    options.update_buffer_blocks = 64;  // no merge-triggered checkpoints
    options.checkpoint_every_ops = checkpoint_every;
    {
      auto index = MakeIndex("btree", options);
      EXPECT_NE(index, nullptr);
      EXPECT_TRUE(index->Bulkload(bulk).ok());
      for (std::size_t i = 0; i < 1500; ++i) {
        EXPECT_TRUE(index->Insert(bulk[i].key, 20 + i).ok());
      }
    }  // crash without flush
    RecoveryResult recovered;
    EXPECT_TRUE(
        RecoveryManager::Recover(&slot, "btree", options, bulk, &recovered).ok());
    return recovered.replayed_records;
  };
  const std::uint64_t coarse = replayed_after_crash(8192);  // never checkpoints
  const std::uint64_t medium = replayed_after_crash(512);
  const std::uint64_t fine = replayed_after_crash(128);
  EXPECT_LT(fine, medium);
  EXPECT_LT(medium, coarse);
}

TEST(RecoveryPropertiesTest, BackgroundMergeErrorFailsTheNextWriteFast) {
  WalRig rig;
  IndexOptions options =
      DurableOptions(DurabilityPolicy::kSyncPerOp, &rig.slot, MergeMode::kBackground);
  auto index = MakeIndex("btree", options);
  ASSERT_NE(index, nullptr);
  const auto bulk = ToRecords(UniformKeys(2000, 9));
  ASSERT_TRUE(index->Bulkload(bulk).ok());
  rig.ckpt_device->FailAfter(0);  // the drain's checkpoint will fail
  Status first_failure;
  std::size_t i = 0;
  for (; i < 200000; ++i) {
    first_failure = index->Insert(bulk[i % bulk.size()].key, i);
    if (!first_failure.ok()) break;
    if (i % 128 == 0) std::this_thread::yield();
  }
  ASSERT_FALSE(first_failure.ok()) << "background failure never surfaced on an op";
  // Surfaced once; after the device heals, the retry path drains cleanly.
  // (A drain that was already in flight when the device healed may have
  // failed too -- each failure is reported exactly once, so retry briefly.)
  rig.ckpt_device->FailAfter(-1);
  Status flushed;
  for (int attempt = 0; attempt < 10; ++attempt) {
    flushed = index->FlushUpdates();
    if (flushed.ok()) break;
  }
  EXPECT_TRUE(flushed.ok()) << flushed.ToString();
  EXPECT_TRUE(index->Insert(bulk[0].key, 1).ok());
}

TEST(RecoveryPropertiesTest, LookupsRaceDurableBackgroundDrain) {
  // The decorator's shared read path under full durability: lookups run
  // while a writer stages WAL-logged inserts and the background scheduler
  // drains (WAL forces, checkpoints, and base merges all hold the latch
  // exclusively). Every lookup must see a pre- or post-insert answer --
  // never a torn one -- and the log must stay replayable afterwards.
  WalRig rig;
  const IndexOptions options =
      DurableOptions(DurabilityPolicy::kGroupCommit, &rig.slot, MergeMode::kBackground);
  auto index = MakeIndex("btree", options);
  ASSERT_NE(index, nullptr);
  const std::vector<Key> bulk_keys = UniformKeys(2000, 23);
  ASSERT_TRUE(index->Bulkload(ToRecords(bulk_keys)).ok());

  const Key inserted_base = 1;  // UniformKeys starts at 1 + rng, stride apart
  const std::size_t to_insert = 4000;
  testing_util::RacingThreads workers;
  workers.Start([&](const std::atomic<bool>& stop) -> Status {
    for (std::size_t i = 0; i < to_insert && !stop.load(); ++i) {
      const Key k = inserted_base + 2 * i;
      LIOD_RETURN_IF_ERROR(index->Insert(k, PayloadFor(k)));
    }
    return Status::Ok();
  });
  for (int round = 0; round < 400; ++round) {
    // Bulkloaded keys are never overwritten: always found, exact payload.
    const Key bulk_key = bulk_keys[static_cast<std::size_t>(round * 31) % bulk_keys.size()];
    Payload payload = 0;
    bool found = false;
    ASSERT_TRUE(index->Lookup(bulk_key, &payload, &found).ok());
    ASSERT_TRUE(found) << bulk_key;
    ASSERT_EQ(payload, PayloadFor(bulk_key));
    // Racing keys are pre-or-post: absent, or present with the exact payload.
    const Key racing = inserted_base + 2 * (static_cast<Key>(round) % to_insert);
    found = false;
    ASSERT_TRUE(index->Lookup(racing, &payload, &found).ok());
    if (found) {
      ASSERT_EQ(payload, PayloadFor(racing)) << racing;
    }
  }
  const Status worker_status = workers.JoinAll();
  ASSERT_TRUE(worker_status.ok()) << worker_status.ToString();
  ASSERT_TRUE(index->FlushUpdates().ok());
  EXPECT_GT(index->io_stats().snapshot().WritesFor(FileClass::kWal), 0u);
}

// --- engine integration -----------------------------------------------------

TEST(RecoveryEngineTest, PerShardWalsRecoverIndividually) {
  DurableStore store(4096);
  EngineOptions engine_options;
  engine_options.index_name = "btree";
  engine_options.num_shards = 2;
  engine_options.index = DurableOptions(DurabilityPolicy::kSyncPerOp, nullptr);
  engine_options.index.update_buffer_blocks = 8;
  engine_options.durable_store = &store;
  const std::vector<Key> keys = UniformKeys(4000, 11);
  const std::vector<Record> bulk = ToRecords(keys);
  std::map<Key, Payload> shadow;
  for (const Record& r : bulk) shadow[r.key] = r.payload;

  std::vector<Key> bounds;
  {
    ShardedEngine engine(engine_options);
    ASSERT_TRUE(engine.Bulkload(bulk).ok());
    Rng rng(12);
    for (std::size_t i = 0; i < 800; ++i) {
      const Key key = keys[rng.NextBounded(keys.size())];
      ASSERT_TRUE(engine.Insert(key, 5000 + i).ok());
      shadow[key] = 5000 + i;
    }
    ASSERT_TRUE(engine.FlushUpdates().ok());  // merge + checkpoint every shard
    // A post-flush unflushed tail exercises WAL replay, not just the
    // checkpoint: sync-per-op commits every acked record.
    for (std::size_t i = 0; i < 200; ++i) {
      const Key key = keys[i];
      ASSERT_TRUE(engine.Insert(key, 9000 + i).ok());
      shadow[key] = 9000 + i;
    }
    bounds = engine.shard_lower_bounds();
  }  // crash: the whole engine dies; the injected store survives

  ASSERT_EQ(bounds.size(), 2u);
  for (std::size_t s = 0; s < 2; ++s) {
    const Key lo = bounds[s];
    const bool last = s + 1 == bounds.size();
    // The shard's bulk slice: exactly the keys the engine routed to it.
    std::vector<Record> slice;
    for (const Record& r : bulk) {
      if (r.key >= lo && (last || r.key < bounds[s + 1])) slice.push_back(r);
    }
    RecoveryResult recovered;
    ASSERT_TRUE(RecoveryManager::Recover(store.slot(s), "btree", engine_options.index,
                                         slice, &recovered)
                    .ok());
    for (const Record& r : slice) {
      Payload payload = 0;
      bool found = false;
      ASSERT_TRUE(recovered.index->Lookup(r.key, &payload, &found).ok());
      ASSERT_TRUE(found) << "key " << r.key;
      ASSERT_EQ(payload, shadow[r.key]) << "key " << r.key;
    }
  }
}

TEST(RecoveryEngineTest, ConcurrentGroupCommitEngineStaysConsistent) {
  EngineOptions engine_options;
  engine_options.index_name = "btree";
  engine_options.num_shards = 2;
  engine_options.index = DurableOptions(DurabilityPolicy::kGroupCommit, nullptr,
                                        MergeMode::kBackground);
  engine_options.index.update_buffer_blocks = 4;
  ShardedEngine engine(engine_options);

  const std::vector<Key> keys = UniformKeys(6000, 13);
  WorkloadSpec spec;
  spec.type = WorkloadType::kYcsbA;
  spec.bulk_keys = 5000;
  spec.operations = 4000;
  spec.seed = 14;
  const Workload workload = BuildWorkload(keys, spec, 2);
  RunnerConfig config;
  config.check_lookups = true;
  RunResult result;
  ASSERT_TRUE(RunWorkload(&engine, workload, config, &result).ok());
  // Two threads logged through two per-shard WALs behind one shared
  // group-commit window; the WAL cost is real and counted.
  EXPECT_GT(result.io.WritesFor(FileClass::kWal), 0u);
  EXPECT_LT(result.io.WritesFor(FileClass::kWal), result.operations);
}

}  // namespace
}  // namespace liod
