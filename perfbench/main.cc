// liod_perfbench: the repository benchmark. One process runs one workload
// with one client thread making batch-size-1 closed-loop calls into
// ShardedEngine::Execute (one shard) on the O_DIRECT device, checks every
// answer against a shadow of the data, and prints one JSON result line.
//
//   liod_perfbench --workload NAME --seed N --seconds T --trace 0|1
//                  --dir WORK_DIR [--out OUT_DIR]
//
// --trace 0 prints the end-to-end metrics; --trace 1 runs the traced
// variant and prints the per-layer metrics (README.md lists both).

#include <sys/resource.h>
#include <fcntl.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <map>
#include <memory>
#include <numeric>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "common/random.h"
#include "core/index_factory.h"
#include "engine/sharded_engine.h"
#include "names.h"
#include "oracle.h"
#include "stats.h"
#include "storage/direct_device.h"
#include "storage/paged_file.h"
#include "telemetry/metric_registry.h"
#include "telemetry/trace_recorder.h"
#include "updates/buffered_index.h"
#include "workload/datasets.h"

namespace perfbench {
namespace {

using namespace liod;  // NOLINT(build/namespaces): this file drives the library
namespace fs = std::filesystem;
using Clock = std::chrono::steady_clock;

const Clock::time_point kOrigin = Clock::now();

double Seconds(Clock::duration d) { return std::chrono::duration<double>(d).count(); }
double Micros(Clock::duration d) { return std::chrono::duration<double, std::micro>(d).count(); }
std::uint64_t TraceUs(Clock::time_point t) {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::microseconds>(t - kOrigin).count());
}
double Ratio(double num, double den) { return den == 0.0 ? 0.0 : num / den; }

constexpr std::size_t kBlockSize = 4096;
constexpr std::uint32_t kScanLength = 100;
constexpr std::size_t kInsertsPerRound = 18;  // the paper's write-heavy pattern
constexpr std::size_t kRoundLength = 20;
constexpr std::size_t kStagingBlocks = 256;   // update-buffer staging area
constexpr std::size_t kGroupWindow = 8;       // WAL group-commit window
constexpr std::size_t kRecoveryPoolFrames = 16384;
constexpr std::size_t kVerifyChunk = 4096;
constexpr std::uint32_t kWarmScanRecords = 1 << 16;
constexpr int kSetups = 5;                    // set-ups per untraced run (median)
constexpr std::size_t kSlices = 10;           // window slices per latency median
constexpr std::size_t kOpSpanRing = 1 << 15;  // op spans kept per traced window

enum class Kind { kReadScan, kYcsbB, kWriteHeavy };

/// One workload. The tape holds seconds * ops_per_second operations, so a run
/// measures about --seconds on the reference VM while every count stays a
/// pure function of (seed, seconds).
struct Config {
  std::string_view name;
  Kind kind;
  const char* index;
  bool durable_replay;  ///< the traced run also replays the tape on the durable path
  std::size_t loaded_keys;  ///< keys bulkloaded from the fb dataset
  std::size_t pool_frames;  ///< one shared LRU pool for every index file
  bool write_back;
  bool warm_scan;           ///< warm-up first scans every loaded record
  std::size_t warm_stride;  ///< warm-up looks up every stride-th loaded key; 0 = none
  double ops_per_second;    ///< nominal rate on the reference VM

  /// Writes go through the update buffer and a direct-device WAL.
  bool durable() const { return kind == Kind::kWriteHeavy; }
};

// Sizes (README.md): pgm over 2M keys is ~7.9k blocks, so 16384 frames hold
// it all and 2048 about a quarter; btree over 1M keys is ~4.9k blocks, so
// 8192 frames hold it all and 1280 about a quarter.
constexpr std::array<Config, 4> kConfigs = {{
    {kWorkloadNames[0], Kind::kReadScan, "pgm", false, 2'000'000, 16384, false, true, 1024,
     270'000},
    {kWorkloadNames[1], Kind::kYcsbB, "btree", true, 1'000'000, 8192, true, false, 32,
     650'000},
    {kWorkloadNames[2], Kind::kReadScan, "pgm", false, 2'000'000, 2048, false, false, 1000,
     27'000},
    {kWorkloadNames[3], Kind::kWriteHeavy, "btree", false, 1'000'000, 1280, true, false, 0,
     25'000},
}};

// --- inputs -----------------------------------------------------------------

struct TapeOp {
  TapeOp(std::uint32_t key_index, kv::OpKind op_kind)
      : index(key_index), kind(static_cast<std::uint32_t>(op_kind)) {}
  kv::OpKind op() const { return static_cast<kv::OpKind>(kind); }

  std::uint32_t index : 29;  ///< key position in the universe
  std::uint32_t kind : 3;    ///< kv::OpKind
};
static_assert(sizeof(TapeOp) == 4, "a tape holds millions of ops");

/// Everything a run derives from its seed: the key universe, the bulkloaded
/// subset, and the operation tape.
struct Inputs {
  std::vector<Key> keys;              ///< sorted key universe
  std::vector<std::uint32_t> loaded;  ///< sorted positions of bulkloaded keys
  std::vector<TapeOp> tape;
  double dataset_s = 0.0;
  double tape_s = 0.0;

  std::vector<Record> LoadedRecords() const {
    std::vector<Record> out;
    out.reserve(loaded.size());
    for (std::uint32_t i : loaded) out.push_back(Record{keys[i], PayloadFor(keys[i])});
    return out;
  }
};

/// Payload of the write at tape position `pos`: distinct per write, so a lost
/// or misapplied update cannot hide behind an unchanged value.
Payload WritePayload(std::uint64_t seed, std::size_t pos) {
  return DeriveSeed(seed ^ 0x5bd1e995ULL, pos);
}

std::size_t InsertsIn(std::size_t ops) {
  return ops / kRoundLength * kInsertsPerRound + std::min(ops % kRoundLength, kInsertsPerRound);
}

class StageTimer {
 public:
  StageTimer(TraceRecorder* spans, const char* name)
      : spans_(spans), name_(name), start_(Clock::now()) {}
  double Stop() {
    const Clock::time_point end = Clock::now();
    if (spans_ != nullptr) spans_->Record(name_, "stage", -1, TraceUs(start_), TraceUs(end));
    return Seconds(end - start_);
  }

 private:
  TraceRecorder* spans_;
  const char* name_;
  Clock::time_point start_;
};

Inputs MakeInputs(const Config& cfg, std::uint64_t seed, std::size_t ops, TraceRecorder* spans) {
  Inputs in;
  StageTimer dataset(spans, "dataset");
  const std::size_t universe =
      cfg.loaded_keys + (cfg.kind == Kind::kWriteHeavy ? InsertsIn(ops) : 0);
  in.keys = MakeDataset("fb", universe, seed);
  in.dataset_s = dataset.Stop();

  StageTimer tape(spans, "tape");
  Rng rng(DeriveSeed(seed, 1));
  const std::size_t n = in.keys.size();
  in.tape.reserve(ops);
  switch (cfg.kind) {
    case Kind::kReadScan: {  // uniform keys, 90% lookups / 10% scans
      in.loaded.resize(n);
      std::iota(in.loaded.begin(), in.loaded.end(), 0U);
      for (std::size_t i = 0; i < ops; ++i) {
        const auto index = static_cast<std::uint32_t>(rng.NextBounded(n));
        in.tape.emplace_back(index, rng.NextDouble() < 0.1 ? kv::OpKind::kScan
                                                           : kv::OpKind::kLookup);
      }
      break;
    }
    case Kind::kYcsbB: {  // YCSB-B: scrambled Zipf 0.99, 95% lookups / 5% updates
      in.loaded.resize(n);
      std::iota(in.loaded.begin(), in.loaded.end(), 0U);
      ZipfGenerator zipf(n, 0.99, DeriveSeed(seed, 2));
      for (std::size_t i = 0; i < ops; ++i) {
        const auto index = static_cast<std::uint32_t>(DeriveSeed(seed, 3 + zipf.Next()) % n);
        in.tape.emplace_back(index, rng.NextDouble() < 0.05 ? kv::OpKind::kInsert
                                                            : kv::OpKind::kLookup);
      }
      break;
    }
    case Kind::kWriteHeavy: {  // 18 new-key inserts + 2 live lookups per 20 ops
      std::vector<std::uint32_t> order(n);
      std::iota(order.begin(), order.end(), 0U);
      Shuffle(order, rng);
      in.loaded.assign(order.begin(), order.begin() + static_cast<std::ptrdiff_t>(cfg.loaded_keys));
      std::sort(in.loaded.begin(), in.loaded.end());
      std::vector<std::uint32_t> live = in.loaded;
      std::size_t next = cfg.loaded_keys;
      while (in.tape.size() < ops) {
        for (std::size_t i = 0; i < kInsertsPerRound && in.tape.size() < ops; ++i) {
          in.tape.emplace_back(order[next], kv::OpKind::kInsert);
          live.push_back(order[next++]);
        }
        for (std::size_t i = kInsertsPerRound; i < kRoundLength && in.tape.size() < ops; ++i) {
          in.tape.emplace_back(live[rng.NextBounded(live.size())], kv::OpKind::kLookup);
        }
      }
      break;
    }
  }
  in.tape_s = tape.Stop();
  return in;
}

// --- the system under test ----------------------------------------------------

/// How one loaded copy of a workload's system is built.
struct Variant {
  DeviceKind device = DeviceKind::kDirect;
  bool bare = false;      ///< a bare DiskIndex instead of the engine
  bool durable = false;   ///< update buffer + group-commit WAL on a DurableStore
  MetricRegistry* metrics = nullptr;
};

/// The options every index of a run shares; only the pool size and the
/// directory differ between the measured system and the recovery check.
IndexOptions MakeOptions(const Config& cfg, const Variant& variant, const std::string& dir,
                         std::size_t pool_frames) {
  const DeviceKind device = variant.device;
  IndexOptions o;
  o.block_size = kBlockSize;
  o.device = device;
  if (device != DeviceKind::kModeled) o.device_path = dir;
  o.shared_buffer_budget_blocks = pool_frames;
  o.buffer_policy = BufferPolicy::kLru;
  o.buffer_write_back = cfg.write_back;
  if (variant.durable) {
    o.update_buffer_blocks = kStagingBlocks;
    o.update_buffer_merge_mode = MergeMode::kSync;
    o.durability = DurabilityPolicy::kGroupCommit;
    o.wal_group_window = kGroupWindow;
  }
  o.metrics = variant.metrics;
  return o;
}

/// One loaded copy of the system: either the engine (every call goes through
/// Execute with a one-request batch) or a bare DiskIndex built with the same
/// options (calls go straight to the index), plus the files it lives in.
class System {
 public:
  System(const Config& cfg, const Variant& variant, std::string dir)
      : cfg_(cfg), variant_(variant), dir_(std::move(dir)) {
    batch_.requests.resize(1);
    batch_.responses.resize(1);
  }
  ~System() {
    engine_.reset();
    index_.reset();
    store_.reset();
    std::error_code ec;
    fs::remove_all(dir_, ec);
  }
  System(const System&) = delete;
  System& operator=(const System&) = delete;

  /// Bulkloads, drops the caches and warms the pool; times both stages.
  Status Load(const Inputs& in, TraceRecorder* spans) {
    fs::create_directories(dir_);
    if (variant_.durable) {
      store_ = std::make_unique<DurableStore>(kBlockSize);
      if (variant_.device == DeviceKind::kDirect) {
        DirectDeviceOptions dopt;
        dopt.metrics = variant_.metrics;
        auto wal = std::make_unique<DirectBlockDevice>(dir_ + "/wal.bin", kBlockSize, dopt);
        auto ckpt = std::make_unique<DirectBlockDevice>(dir_ + "/ckpt.bin", kBlockSize, dopt);
        if (!wal->ok() || !ckpt->ok()) return Status::IoError("cannot create WAL files");
        durable_devices_ = {wal.get(), ckpt.get()};
        store_->InstallSlot(0, std::make_unique<DurableSlot>(std::move(wal), std::move(ckpt)));
      }
    }
    const std::vector<Record> records = in.LoadedRecords();
    StageTimer bulkload(spans, "bulkload");
    IndexOptions options = MakeOptions(cfg_, variant_, dir_, cfg_.pool_frames);
    if (variant_.bare) {
      if (store_ != nullptr) options.durable_slot = store_->slot(0);
      index_ = MakeIndex(cfg_.index, options);
      LIOD_RETURN_IF_ERROR(index_->Bulkload(records));
    } else {
      EngineOptions eo;
      eo.index_name = cfg_.index;
      eo.num_shards = 1;
      eo.index = options;
      eo.durable_store = store_.get();
      engine_ = std::make_unique<ShardedEngine>(eo);
      LIOD_RETURN_IF_ERROR(engine_->Bulkload(records));
    }
    bulkload_s = bulkload.Stop();

    StageTimer warmup(spans, "warmup");
    LIOD_RETURN_IF_ERROR(engine_ ? engine_->DropCaches() : index_->DropCaches());
    if (cfg_.warm_scan) {
      // pgm scans read their leaf span with one batched device submission,
      // so this touches every leaf block far faster than lookups would; the
      // strided lookups below then touch every inner block.
      kv::Request scan{kv::OpKind::kScan, 0, 0, kWarmScanRecords};
      for (std::size_t j = 0; j < in.loaded.size(); j += kWarmScanRecords) {
        scan.key = in.keys[in.loaded[j]];
        LIOD_RETURN_IF_ERROR(Run(scan, nullptr));
      }
    }
    if (cfg_.warm_stride > 0) {
      kv::Request req;
      for (std::size_t j = 0; j < in.loaded.size(); j += cfg_.warm_stride) {
        req.key = in.keys[in.loaded[j]];
        LIOD_RETURN_IF_ERROR(Run(req, nullptr));
        if (!response().found) return Status::Corruption("warm-up lookup missed a loaded key");
      }
    }
    warmup_s = warmup.Stop();
    return Status::Ok();
  }

  Status Run(const kv::Request& req, IoStatsSnapshot* io) {
    if (engine_) {
      batch_.requests[0] = req;
      return engine_->Execute(batch_, io);
    }
    kv::Response& resp = batch_.responses[0];
    resp.Reset();
    Status st;
    switch (req.kind) {
      case kv::OpKind::kLookup:
        st = index_->Lookup(req.key, &resp.payload, &resp.found);
        if (st.ok() && !resp.found) resp.code = Status::Code::kNotFound;
        break;
      case kv::OpKind::kInsert:
        st = index_->Insert(req.key, req.payload);
        break;
      case kv::OpKind::kScan:
        st = index_->Scan(req.key, req.scan_count, &resp.records);
        break;
      default:
        st = Status::Unimplemented("op kind not used by the benchmark");
    }
    if (!st.ok()) resp.code = st.code();
    return st;
  }
  const kv::Response& response() const { return batch_.responses[0]; }

  Status FlushUpdates() { return engine_ ? engine_->FlushUpdates() : index_->FlushUpdates(); }
  Status FlushBuffers() { return engine_ ? engine_->FlushBuffers() : index_->FlushBuffers(); }
  IoStatsSnapshot Io() const {
    return engine_ ? engine_->MergedIo() : index_->io_stats().snapshot();
  }
  IndexStats Stats() const {
    return engine_ ? engine_->MergedStats() : index_->GetIndexStats();
  }
  /// The update-buffer decorator of the (only) index, or null.
  UpdateBufferedIndex* Buffered() {
    return dynamic_cast<UpdateBufferedIndex*>(engine_ ? engine_->shard(0) : index_.get());
  }

  /// Ends the system without any further flush, keeping its durable store.
  std::unique_ptr<DurableStore> Crash() {
    engine_.reset();
    index_.reset();
    return std::move(store_);
  }

  /// False when any device the benchmark opened itself reported a fallback.
  bool DurableDevicesClean() const {
    return std::all_of(durable_devices_.begin(), durable_devices_.end(),
                       [](const DirectBlockDevice* d) {
                         return d->using_o_direct() && d->telemetry().fallbacks() == 0;
                       });
  }
  const std::string& dir() const { return dir_; }

  double bulkload_s = 0.0;
  double warmup_s = 0.0;

 private:
  const Config& cfg_;
  Variant variant_;
  std::string dir_;
  std::unique_ptr<DurableStore> store_;  // outlives engine_/index_ (reset first)
  std::vector<const DirectBlockDevice*> durable_devices_;  // owned by store_
  std::unique_ptr<ShardedEngine> engine_;
  std::unique_ptr<DiskIndex> index_;
  kv::RequestBatch batch_;
};

// --- the measured window ----------------------------------------------------

/// Update-path counters of the update-buffer decorator (all 0 without one).
struct UpdateCounts {
  std::uint64_t merges = 0, forces = 0, spills = 0, checkpoints = 0;
  UpdateCounts operator-(const UpdateCounts& o) const {
    return {merges - o.merges, forces - o.forces, spills - o.spills,
            checkpoints - o.checkpoints};
  }
};

UpdateCounts CountsOf(const UpdateBufferedIndex* b) {
  if (b == nullptr) return {};
  return {b->merges_completed(), b->wal_forced_writes(), b->total_spills(),
          b->checkpoints_written()};
}

/// Traced-window extras; null in untraced windows.
struct Hooks {
  Hooks(TraceRecorder* spans, const char* span_category, bool with_op_io = false)
      : ops(spans), category(span_category), per_op_io(with_op_io) {}

  TraceRecorder* ops;  ///< one span per call; the tag is the tape position
  const char* category;
  bool per_op_io;      ///< node visits per lookup (engine windows)
  UpdateBufferedIndex* buffered = nullptr;  ///< split writes into stage/force/merge
  IoStatsSnapshot lookup_io;
  std::vector<double> stage_us, force_us, merge_us;
};

struct Window {
  double calls_s = 0.0;  ///< wall time inside the system's calls
  double flush_s = 0.0;  ///< end-of-window FlushUpdates + FlushBuffers
  bool flush_ok = true;
  std::uint64_t failed = 0;
  std::vector<float> op_us;  ///< per call, in tape order
  IoStatsSnapshot io;
  IndexStats before, after;
  UpdateCounts updates;  ///< update-buffer activity (traced windows)
  double seconds() const { return calls_s + flush_s; }
};

const char* SpanName(kv::OpKind kind) {
  switch (kind) {
    case kv::OpKind::kLookup: return "lookup";
    case kv::OpKind::kInsert: return "insert";
    case kv::OpKind::kScan: return "scan";
    default: return "op";
  }
}

/// One closed-loop replay of the tape on one system: one call at a time, every
/// answer checked against the run's own oracle outside the timed calls. Step
/// lets several replays take turns on slices of the tape, so they see the
/// same host conditions; Finish runs the end-of-window flushes.
class WindowRun {
 public:
  WindowRun(System& sys, const Inputs& in, std::uint64_t seed, Hooks* hooks)
      : sys_(sys), in_(in), seed_(seed), hooks_(hooks), oracle_(in.keys, in.loaded) {
    w_.op_us.reserve(in.tape.size());
    w_.before = sys.Stats();
    io_before_ = sys.Io();
    if (hooks_ != nullptr) hooks_->buffered = sys.Buffered();
    counts_before_ = CountsOf(buffered());
  }

  /// Runs tape positions [next, end).
  void Step(std::size_t end) {
    kv::Request req;
    IoStatsSnapshot op_io;
    IoStatsSnapshot* op_io_ptr = hooks_ != nullptr && hooks_->per_op_io ? &op_io : nullptr;
    for (; pos_ < end; ++pos_) {
      const TapeOp& op = in_.tape[pos_];
      req.kind = op.op();
      req.key = in_.keys[op.index];
      req.payload = req.kind == kv::OpKind::kInsert ? WritePayload(seed_, pos_) : 0;
      req.scan_count = req.kind == kv::OpKind::kScan ? kScanLength : 0;
      const UpdateCounts counts = CountsOf(buffered());
      op_io = IoStatsSnapshot{};

      const Clock::time_point t0 = Clock::now();
      const Status st = sys_.Run(req, op_io_ptr);
      const Clock::time_point t1 = Clock::now();

      const double us = Micros(t1 - t0);
      w_.calls_s += us * 1e-6;
      w_.op_us.push_back(static_cast<float>(us));
      if (!Check(req, op.index, st)) Fail(req, st);
      if (hooks_ == nullptr) continue;
      if (hooks_->ops != nullptr) {
        hooks_->ops->Record(SpanName(req.kind), hooks_->category, static_cast<int>(pos_),
                            TraceUs(t0), TraceUs(t1));
      }
      if (req.kind == kv::OpKind::kLookup) hooks_->lookup_io += op_io;
      if (buffered() != nullptr && req.kind == kv::OpKind::kInsert) {
        const UpdateCounts after = CountsOf(buffered());
        if (after.merges != counts.merges) {
          hooks_->merge_us.push_back(us);
        } else if (after.forces != counts.forces) {
          hooks_->force_us.push_back(us);
        } else {
          hooks_->stage_us.push_back(us);
        }
      }
    }
  }

  Window Finish() {
    const Clock::time_point f0 = Clock::now();
    const Status updates = sys_.FlushUpdates();
    const Status buffers = sys_.FlushBuffers();
    const Clock::time_point f1 = Clock::now();
    w_.flush_s = Seconds(f1 - f0);
    w_.flush_ok = updates.ok() && buffers.ok();
    if (!w_.flush_ok) {
      std::fprintf(stderr, "end-of-window flush failed: %s / %s\n", updates.ToString().c_str(),
                   buffers.ToString().c_str());
    }
    if (hooks_ != nullptr && hooks_->ops != nullptr) {
      hooks_->ops->Record("window_flush", hooks_->category, -1, TraceUs(f0), TraceUs(f1));
    }
    w_.io = sys_.Io() - io_before_;
    w_.after = sys_.Stats();
    w_.updates = CountsOf(buffered()) - counts_before_;
    return std::move(w_);
  }

  const Oracle& oracle() const { return oracle_; }

 private:
  const UpdateBufferedIndex* buffered() const {
    return hooks_ != nullptr ? hooks_->buffered : nullptr;
  }

  bool Check(const kv::Request& req, std::size_t index, const Status& st) {
    const kv::Response& resp = sys_.response();
    switch (req.kind) {
      case kv::OpKind::kLookup:
        return st.ok() && oracle_.CheckLookup(index, resp);
      case kv::OpKind::kScan:
        return st.ok() && resp.code == Status::Code::kOk &&
               oracle_.CheckScan(index, kScanLength, resp.records);
      default:
        if (!st.ok() || resp.code != Status::Code::kOk) return false;
        oracle_.Acknowledge(index, req.payload);
        return true;
    }
  }

  void Fail(const kv::Request& req, const Status& st) {
    if (w_.failed++ < 5) {
      std::fprintf(stderr, "wrong answer: %s key %llu at tape position %zu (%s)\n",
                   SpanName(req.kind), static_cast<unsigned long long>(req.key), pos_,
                   st.ToString().c_str());
    }
  }

  System& sys_;
  const Inputs& in_;
  std::uint64_t seed_;
  Hooks* hooks_;
  Oracle oracle_;
  Window w_;
  IoStatsSnapshot io_before_;
  UpdateCounts counts_before_;
  std::size_t pos_ = 0;
};

/// Call latencies of one op class (lookups, or everything else) over tape
/// positions [begin, end).
std::vector<double> Latencies(const Window& w, const Inputs& in, bool lookups,
                              std::size_t begin = 0, std::size_t end = SIZE_MAX) {
  std::vector<double> out;
  end = std::min(end, w.op_us.size());
  for (std::size_t pos = begin; pos < end; ++pos) {
    if ((in.tape[pos].op() == kv::OpKind::kLookup) == lookups) out.push_back(w.op_us[pos]);
  }
  return out;
}

/// Percentiles of one op class as the median, over kSlices equal slices of the
/// tape, of each slice's own percentiles: a device or CPU slowdown that covers
/// less than half of the window moves none of them.
Latency SlicedLatency(const Window& w, const Inputs& in, bool lookups) {
  std::vector<double> p50s, p90s, p99s;
  std::size_t samples = 0;
  const std::size_t n = in.tape.size();
  for (std::size_t slice = 0; slice < kSlices; ++slice) {
    std::vector<double> us = Latencies(w, in, lookups, n * slice / kSlices,
                                       n * (slice + 1) / kSlices);
    const Latency l = Summarize(us);
    p50s.push_back(l.p50);
    p90s.push_back(l.p90);
    p99s.push_back(l.p99);
    samples += l.samples;
  }
  return {Median(p50s), Median(p90s), Median(p99s), samples};
}

// --- guards and probes --------------------------------------------------------

/// True when every file descriptor open under `dir` carries O_DIRECT: the
/// devices the index opened did not fall back to the page cache.
bool DirectFdsOk(const std::string& dir) {
  const std::string root = fs::absolute(dir).lexically_normal().string();
  std::size_t seen = 0;
  std::error_code ec;
  for (const auto& entry : fs::directory_iterator("/proc/self/fd", ec)) {
    std::error_code link_ec;
    const std::string target = fs::read_symlink(entry.path(), link_ec).string();
    if (link_ec || target.rfind(root + "/", 0) != 0) continue;
    std::ifstream info("/proc/self/fdinfo/" + entry.path().filename().string());
    std::string field;
    std::string flags;
    while (info >> field) {
      if (field == "flags:") {
        info >> flags;
        break;
      }
    }
    if ((std::strtoul(flags.c_str(), nullptr, 8) & O_DIRECT) == 0) {
      std::fprintf(stderr, "device fell back to buffered I/O: %s\n", target.c_str());
      return false;
    }
    ++seen;
  }
  if (seen == 0) std::fprintf(stderr, "no direct-device files open under %s\n", root.c_str());
  return seen > 0;
}

/// Opens a DirectBlockDevice in `dir` and moves a block through it: fails
/// when O_DIRECT or io_uring is unavailable (any counted fallback).
bool DirectDeviceUsable(const std::string& dir) {
  fs::create_directories(dir);
  const std::string path = dir + "/device_probe.bin";
  bool ok = false;
  {
    DirectBlockDevice device(path, kBlockSize);
    std::vector<std::byte> block(kBlockSize, std::byte{0x5a});
    std::vector<std::byte> back(kBlockSize);
    ok = device.ok() && device.Grow(1).ok() && device.Write(0, block.data()).ok() &&
         device.Read(0, back.data()).ok() && block == back && device.using_o_direct() &&
         device.using_io_uring() && device.telemetry().fallbacks() == 0;
  }
  fs::remove(path);
  if (!ok) std::fprintf(stderr, "the direct device is unavailable or fell back in %s\n",
                        dir.c_str());
  return ok;
}

/// Bytes of every file under `dir`.
double FileBytes(const std::string& dir) {
  double bytes = 0.0;
  for (const auto& entry : fs::recursive_directory_iterator(dir)) {
    if (entry.is_regular_file()) bytes += static_cast<double>(entry.file_size());
  }
  return bytes;
}

double PeakRssMiB() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;
}

/// Median ns of one PagedFile::ReadBlock of a resident frame, on a pool with
/// the workload's policy over a direct-device file.
double HitProbeNs(const Config& cfg, const std::string& dir) {
  constexpr std::size_t kBlocks = 64;
  constexpr int kRounds = 400;
  BufferManager::Options mo;
  mo.policy = BufferPolicy::kLru;
  mo.write_back = cfg.write_back;
  mo.shared_budget_frames = kBlocks;
  BufferManager manager(mo);
  IoStats stats;
  PagedFile file(std::make_unique<DirectBlockDevice>(dir + "/hit_probe.bin", kBlockSize),
                 &manager, &stats, FileClass::kLeaf, PagedFileOptions{});
  std::vector<std::byte> block(kBlockSize, std::byte{1});
  for (std::size_t i = 0; i < kBlocks; ++i) {
    CheckOk(file.WriteBlock(file.Allocate(), block.data()), "hit probe write");
    CheckOk(file.ReadBlock(i, block.data()), "hit probe read");
  }
  const std::uint64_t misses = stats.snapshot().TotalMisses();
  std::vector<double> per_read_ns;
  for (int r = 0; r < kRounds; ++r) {
    const Clock::time_point t0 = Clock::now();
    for (std::size_t i = 0; i < kBlocks; ++i) {
      CheckOk(file.ReadBlock(i, block.data()), "hit probe read");
    }
    per_read_ns.push_back(Micros(Clock::now() - t0) * 1e3 / kBlocks);
  }
  if (stats.snapshot().TotalMisses() != misses) std::fprintf(stderr, "hit probe missed\n");
  return Median(per_read_ns);
}

/// Rebuilds the engine from `store` with RecoverFrom and reads every
/// acknowledged record back in key order.
bool RecoveredMatches(const Config& cfg, const Inputs& in, DurableStore* store,
                      const Oracle& oracle, const std::string& dir, TraceRecorder* spans) {
  fs::create_directories(dir);
  EngineOptions eo;
  eo.index_name = cfg.index;
  eo.num_shards = 1;
  eo.index = MakeOptions(cfg, Variant{.durable = true}, dir, kRecoveryPoolFrames);
  ShardedEngine engine(eo);
  StageTimer recover(spans, "recover_from");
  const Status st = engine.RecoverFrom(store, in.LoadedRecords());
  recover.Stop();
  if (!st.ok()) {
    std::fprintf(stderr, "RecoverFrom failed: %s\n", st.ToString().c_str());
    return false;
  }
  StageTimer verify(spans, "recovery_verify");
  std::vector<Record> got;
  for (std::size_t i = 0; i < oracle.size();) {
    got.clear();
    const Status scan = engine.Scan(oracle.key(i), kVerifyChunk, &got);
    if (!scan.ok() || !oracle.CheckScan(i, kVerifyChunk, got)) {
      std::fprintf(stderr, "recovered engine disagrees at key %llu\n",
                   static_cast<unsigned long long>(oracle.key(i)));
      return false;
    }
    if (got.size() < kVerifyChunk) break;
    i = oracle.IndexOf(got.back().key) + 1;
  }
  verify.Stop();
  std::fprintf(stderr, "recovery check passed: %zu live records read back\n",
               oracle.live_count());
  return true;
}

// --- output -------------------------------------------------------------------

using Values = std::map<std::string, double, std::less<>>;

template <std::size_t N>
bool PrintResult(bool correct, std::uint64_t attempted, std::uint64_t failed,
                 const std::array<MetricSpec, N>& specs, const Values& values) {
  std::string out = "{\"correct\": ";
  out += correct ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(attempted);
  out += ", \"failed\": " + std::to_string(failed) + ", \"metrics\": {";
  char buf[64];
  for (std::size_t i = 0; i < N; ++i) {
    const auto it = values.find(specs[i].name);
    if (it == values.end() || !std::isfinite(it->second)) {
      std::fprintf(stderr, "internal error: metric %s missing or not finite\n",
                   std::string(specs[i].name).c_str());
      return false;
    }
    std::snprintf(buf, sizeof(buf), "%.17g", it->second);
    if (i > 0) out += ", ";
    out.append("\"").append(specs[i].name).append("\": {\"value\": ").append(buf);
    out.append(", \"unit\": \"").append(specs[i].unit).append("\"}");
    std::fprintf(stderr, "  %-36s %14.6g %s\n", std::string(specs[i].name).c_str(),
                 it->second, std::string(specs[i].unit).c_str());
  }
  out += "}}";
  std::printf("%s\n", out.c_str());
  return true;
}

/// Appends s[begin, end) to `out` with every `from` replaced by `to`.
void AppendReplaced(std::string& out, const std::string& s, std::size_t begin, std::size_t end,
                    std::string_view from, std::string_view to) {
  for (std::size_t at = s.find(from, begin); at < end; at = s.find(from, begin)) {
    out.append(s, begin, at - begin).append(to);
    begin = at + from.size();
  }
  out.append(s, begin, end - begin);
}

/// One Chrome trace of every recorder's spans. TraceRecorder exports a span's
/// integer tag as args.shard; the benchmark's tag is the request id (tape
/// position), shared by a request and its replays.
std::string MergedTrace(std::initializer_list<const TraceRecorder*> recorders) {
  std::string out = "{\"traceEvents\":[";
  bool first = true;
  for (const TraceRecorder* recorder : recorders) {
    const std::string json = recorder->ToChromeTraceJson();
    const std::size_t begin = json.find('[') + 1;
    const std::size_t end = json.rfind(']');
    if (end <= begin) continue;
    if (!first) out += ',';
    AppendReplaced(out, json, begin, end, "\"args\":{\"shard\":", "\"args\":{\"id\":");
    first = false;
  }
  out += "],\"displayTimeUnit\":\"ms\"}";
  return out;
}

void WriteFile(const std::string& path, const std::string& text) {
  std::ofstream(path) << text;
  std::fprintf(stderr, "wrote %s\n", path.c_str());
}

// --- the two run kinds ----------------------------------------------------------

struct Args {
  const Config* cfg = nullptr;
  std::uint64_t seed = 1;
  int seconds = 10;
  bool trace = false;
  std::string dir;
  std::string out;
};

std::size_t TapeLength(const Args& a) {
  return static_cast<std::size_t>(a.seconds * a.cfg->ops_per_second);
}

void Report(const char* what, const Latency& l) {
  std::fprintf(stderr, "  %-10s p50 %.3f us  p90 %.3f us  p99 %.3f us  (%zu samples)\n", what,
               l.p50, l.p90, l.p99, l.samples);
}

int RunUntraced(const Args& a) {
  const Config& cfg = *a.cfg;
  bool correct = DirectDeviceUsable(a.dir);
  Inputs in;
  std::unique_ptr<System> sys;
  std::vector<double> setup_s;
  for (int k = 0; k < kSetups; ++k) {
    sys.reset();
    in = Inputs{};
    const Clock::time_point t0 = Clock::now();
    in = MakeInputs(cfg, a.seed, TapeLength(a), nullptr);
    sys = std::make_unique<System>(cfg, Variant{.durable = cfg.durable()}, a.dir + "/load");
    CheckOk(sys->Load(in, nullptr), "set-up");
    setup_s.push_back(Seconds(Clock::now() - t0));
  }

  WindowRun run(*sys, in, a.seed, nullptr);
  run.Step(in.tape.size());
  Window w = run.Finish();
  const double rss = PeakRssMiB();
  correct = correct && w.flush_ok && DirectFdsOk(sys->dir()) && sys->DurableDevicesClean();
  const double space_amp = FileBytes(sys->dir()) /
                           (static_cast<double>(run.oracle().live_count()) * sizeof(Record));
  if (cfg.durable()) {
    std::unique_ptr<DurableStore> store = sys->Crash();
    correct =
        RecoveredMatches(cfg, in, store.get(), run.oracle(), a.dir + "/recover", nullptr) &&
        correct;
  }
  sys.reset();

  const std::size_t ops = in.tape.size();
  const Latency lookup = SlicedLatency(w, in, true);
  const Latency other = SlicedLatency(w, in, false);
  Report("lookup", lookup);
  Report(cfg.kind == Kind::kReadScan ? "scan" : "write", other);
  std::fprintf(stderr, "  window %.3f s over %zu ops; setups:", w.seconds(), ops);
  for (double s : setup_s) std::fprintf(stderr, " %.3f", s);
  std::fprintf(stderr, " s\n  counted io: %s\n", w.io.ToString().c_str());

  Values v;
  v["setup_s"] = Median(setup_s);
  v["ops_per_s"] = static_cast<double>(ops) / w.seconds();
  v["lookup_p50_us"] = lookup.p50;
  v["lookup_p90_us"] = lookup.p90;
  v["write_or_scan_p50_us"] = other.p50;
  v["write_or_scan_p90_us"] = other.p90;
  v["block_accesses_per_op"] =
      static_cast<double>(w.io.TotalHits() + w.io.TotalMisses()) / static_cast<double>(ops);
  v["space_amp"] = space_amp;
  v["max_rss_mb"] = rss;
  correct = correct && w.failed == 0;
  return PrintResult(correct, ops, w.failed, kEndToEndMetrics, v) ? 0 : 1;
}

double Counter(const MetricsSnapshot& s, const char* name) {
  const auto it = s.counters.find(name);
  return it == s.counters.end() ? 0.0 : static_cast<double>(it->second);
}

int RunTraced(const Args& a) {
  const Config& cfg = *a.cfg;
  bool correct = DirectDeviceUsable(a.dir);
  TraceRecorder stages(256);
  // One span ring per replay, so every ring keeps the same tape positions.
  TraceRecorder engine_ops(kOpSpanRing), bare_ops(kOpSpanRing), modeled_ops(kOpSpanRing),
      durable_ops(kOpSpanRing);
  // A: the untraced engine, the baseline of every comparison. B: a bare
  // DiskIndex with the same options. C: the engine with a MetricRegistry and
  // per-call hooks. D: the engine on the in-RAM modeled device. E, for a
  // workload whose writes are in place: the engine on the durable path, so
  // the update and recovery layers are measured too.
  MetricRegistry registry;
  Hooks hooks_b(&bare_ops, "replay_bare"), hooks_c(&engine_ops, "execute", true),
      hooks_d(&modeled_ops, "replay_modeled"), hooks_e(&durable_ops, "replay_durable");
  struct Replay {
    const char* name;
    Variant variant;
    Hooks* hooks;
    std::unique_ptr<System> sys;
    std::unique_ptr<WindowRun> run;
    Window w;
  };
  std::vector<Replay> replays;
  replays.push_back({"a", Variant{.durable = cfg.durable()}, nullptr, {}, {}, {}});
  replays.push_back({"b", Variant{.bare = true, .durable = cfg.durable()}, &hooks_b, {}, {}, {}});
  replays.push_back(
      {"c", Variant{.durable = cfg.durable(), .metrics = &registry}, &hooks_c, {}, {}, {}});
  replays.push_back({"d", Variant{.device = DeviceKind::kModeled, .durable = cfg.durable()},
                     &hooks_d, {}, {}, {}});
  if (cfg.durable_replay) {
    replays.push_back({"e", Variant{.durable = true}, &hooks_e, {}, {}, {}});
  }
  // The replays share the run's --seconds: each replays that share of a tape.
  const Inputs in = MakeInputs(cfg, a.seed, TapeLength(a) / replays.size(), &stages);
  const std::size_t n = in.tape.size();
  const double ops = static_cast<double>(n);
  const double kops = ops / 1000.0;
  for (Replay& r : replays) {
    r.sys = std::make_unique<System>(cfg, r.variant, a.dir + "/" + r.name);
    CheckOk(r.sys->Load(in, &stages), "set-up");
  }

  // The replays take turns on each slice of the tape, so a slow or fast phase
  // of the host lands on all of them alike.
  const MetricsSnapshot reg_before = registry.Snapshot();
  for (Replay& r : replays) r.run = std::make_unique<WindowRun>(*r.sys, in, a.seed, r.hooks);
  StageTimer windows(&stages, "windows");
  for (std::size_t slice = 0; slice < kSlices; ++slice) {
    for (Replay& r : replays) r.run->Step(n * (slice + 1) / kSlices);
  }
  windows.Stop();
  std::uint64_t failed = 0;
  for (Replay& r : replays) {
    r.w = r.run->Finish();
    failed += r.w.failed;
    correct = correct && r.w.flush_ok;
    if (r.variant.device == DeviceKind::kDirect) {
      correct = correct && DirectFdsOk(r.sys->dir()) && r.sys->DurableDevicesClean();
    }
  }
  const MetricsSnapshot reg_after = registry.Snapshot();

  const Replay& durable = replays[cfg.durable_replay ? 4 : 2];
  if (durable.variant.durable) {
    std::unique_ptr<DurableStore> store = durable.sys->Crash();
    correct = RecoveredMatches(cfg, in, store.get(), durable.run->oracle(), a.dir + "/recover",
                               &stages) &&
              correct;
  }
  const Window& wa = replays[0].w;
  const Window& wb = replays[1].w;
  const Window& wc = replays[2].w;
  const Window& wd = replays[3].w;
  const Hooks& durable_hooks = *durable.hooks;
  const UpdateCounts& update_counts = durable.w.updates;
  const double bulkload_s = replays[0].sys->bulkload_s;
  const double warmup_s = replays[0].sys->warmup_s;
  for (Replay& r : replays) {
    r.run.reset();
    r.sys.reset();
  }

  StageTimer probe_span(&stages, "hit_probe");
  const double hit_ns = HitProbeNs(cfg, a.dir);
  probe_span.Stop();

  // Counted I/O must not depend on the device or on telemetry.
  if (!(wa.io == wc.io) || !(wa.io == wd.io)) {
    std::fprintf(stderr, "counted I/O differs between windows:\n  direct  %s\n  traced  %s\n"
                 "  modeled %s\n", wa.io.ToString().c_str(), wc.io.ToString().c_str(),
                 wd.io.ToString().c_str());
    correct = false;
  }
  const double fallbacks = Counter(reg_after, "device.fallbacks");
  if (fallbacks != 0.0) {
    std::fprintf(stderr, "device.fallbacks = %.0f\n", fallbacks);
    correct = false;
  }

  std::vector<double> engine_lookup_us = Latencies(wa, in, true);
  std::vector<double> bare_lookup_us = Latencies(wb, in, true);
  std::vector<double> bare_other_us = Latencies(wb, in, false);
  const Latency engine_lookup = Summarize(engine_lookup_us);
  const Latency bare_lookup = Summarize(bare_lookup_us);
  const Latency bare_other = Summarize(bare_other_us);
  std::vector<double> stage_us = durable_hooks.stage_us;
  std::vector<double> force_us = durable_hooks.force_us;
  std::vector<double> merge_us = durable_hooks.merge_us;
  const std::size_t writes = stage_us.size() + force_us.size() + merge_us.size();
  const Latency stage = Summarize(stage_us);
  const Latency force = Summarize(force_us);
  const Latency merge = Summarize(merge_us);
  Report("engine", engine_lookup);
  Report("bare", bare_lookup);
  Report("stage", stage);
  Report("force", force);
  Report("merge", merge);

  const IoStatsSnapshot& io = wa.io;
  const double lookups = static_cast<double>(engine_lookup.samples);
  const auto io_us = [](const MetricsSnapshot& s) {
    const auto it = s.histograms.find("device.io_us");
    return it == s.histograms.end() ? 0.0 : it->second.sum_us;
  };
  const double device_share = 1.0 - wd.seconds() / wa.seconds();
  const double device_io_share = (io_us(reg_after) - io_us(reg_before)) * 1e-6 / wc.seconds();
  if (std::abs(device_share - device_io_share) > 0.2) {
    std::fprintf(stderr, "note: device share %.3f (modeled replay) vs %.3f (device.io_us)\n",
                 device_share, device_io_share);
  }

  Values v;
  v["workload.dataset_s"] = in.dataset_s;
  v["workload.tape_s"] = in.tape_s;
  v["engine.bulkload_s"] = bulkload_s;
  v["engine.warmup_s"] = warmup_s;
  v["engine.window_flush_s"] = wa.flush_s;
  v["engine.dispatch_us"] = engine_lookup.p50 - bare_lookup.p50;
  v["core.lookup_us"] = bare_lookup.p50;
  v["core.write_us"] = cfg.kind == Kind::kReadScan ? 0.0 : bare_other.p50;
  v["core.inner_visits_per_lookup"] =
      Ratio(static_cast<double>(hooks_c.lookup_io.inner_nodes_visited), lookups);
  v["core.leaf_visits_per_lookup"] =
      Ratio(static_cast<double>(hooks_c.lookup_io.leaf_nodes_visited), lookups);
  v["core.height"] = static_cast<double>(wc.after.height);
  v["core.smo_per_kop"] =
      static_cast<double>(wc.after.smo_count - wc.before.smo_count) / kops;
  v["storage.hit_rate.inner"] = io.HitRateFor(FileClass::kInner);
  v["storage.hit_rate.leaf"] = io.HitRateFor(FileClass::kLeaf);
  v["storage.reads_per_op.inner"] = static_cast<double>(io.ReadsFor(FileClass::kInner)) / ops;
  v["storage.reads_per_op.leaf"] = static_cast<double>(io.ReadsFor(FileClass::kLeaf)) / ops;
  v["storage.evictions_per_op"] = static_cast<double>(io.TotalEvictions()) / ops;
  v["storage.hits_per_op"] = static_cast<double>(io.TotalHits()) / ops;
  v["storage.hit_ns"] = hit_ns;
  v["storage.device_share"] = device_share;
  v["storage.device_io_share"] = device_io_share;
  v["storage.device_submissions_per_op"] =
      (Counter(reg_after, "device.submissions") - Counter(reg_before, "device.submissions")) / ops;
  v["storage.coalesced_blocks_per_op"] = (Counter(reg_after, "device.coalesced_blocks") -
                                          Counter(reg_before, "device.coalesced_blocks")) / ops;
  v["storage.writes_per_op.leaf"] = static_cast<double>(io.WritesFor(FileClass::kLeaf)) / ops;
  v["storage.writes_per_op.inner"] = static_cast<double>(io.WritesFor(FileClass::kInner)) / ops;
  v["storage.writes_per_op.wal"] = static_cast<double>(io.WritesFor(FileClass::kWal)) / ops;
  v["storage.writebacks_per_op"] = static_cast<double>(io.TotalWritebacks()) / ops;
  v["updates.stage_us"] = stage.p50;
  v["updates.merges_per_kop"] = static_cast<double>(update_counts.merges) / kops;
  v["updates.merge_ms"] = merge.p50 * 1e-3;
  v["updates.spills_per_kop"] = static_cast<double>(update_counts.spills) / kops;
  v["recovery.forces_per_write"] =
      Ratio(static_cast<double>(update_counts.forces), static_cast<double>(writes));
  v["recovery.force_us"] = force.p50;
  v["recovery.checkpoints_per_kop"] = static_cast<double>(update_counts.checkpoints) / kops;
  v["telemetry.trace_overhead"] = wc.seconds() / wa.seconds() - 1.0;

  if (!a.out.empty()) {
    const std::string stem = a.out + "/" + std::string(cfg.name);
    WriteFile(stem + ".trace.json",
              MergedTrace({&stages, &bare_ops, &engine_ops, &modeled_ops, &durable_ops}));
    WriteFile(stem + ".metrics.json", reg_after.ToJson());
  }
  correct = correct && failed == 0;
  const std::uint64_t attempted = replays.size() * n;
  return PrintResult(correct, attempted, failed, kPerLayerMetrics, v) ? 0 : 1;
}

int Usage(const char* msg) {
  std::fprintf(stderr,
               "%s\nusage: liod_perfbench --workload NAME --seed N --seconds T --trace 0|1 "
               "--dir WORK_DIR [--out OUT_DIR]\n",
               msg);
  return 2;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  Args a;
  for (int i = 1; i < argc; ++i) {
    const std::string_view flag = argv[i];
    if (i + 1 >= argc) return Usage("missing flag value");
    const char* value = argv[++i];
    if (flag == "--workload") {
      for (const Config& cfg : kConfigs) {
        if (cfg.name == value) a.cfg = &cfg;
      }
      if (a.cfg == nullptr) return Usage("unknown workload");
    } else if (flag == "--seed") {
      a.seed = std::strtoull(value, nullptr, 10);
    } else if (flag == "--seconds") {
      a.seconds = std::atoi(value);
    } else if (flag == "--trace") {
      a.trace = std::string_view(value) == "1";
    } else if (flag == "--dir") {
      a.dir = value;
    } else if (flag == "--out") {
      a.out = value;
    } else {
      return Usage("unknown flag");
    }
  }
  if (a.cfg == nullptr || a.dir.empty() || a.seconds < 1 || a.seconds > 600) {
    return Usage("--workload, --dir and --seconds in [1, 600] are required");
  }
  const int rc = a.trace ? RunTraced(a) : RunUntraced(a);
  std::error_code ec;
  std::filesystem::remove_all(a.dir, ec);
  return rc;
}
