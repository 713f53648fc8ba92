// dspot_durable: crash durability. The suite covers the DurableFile
// primitives (partial-write continuation, bounded ENOSPC retry, fsync
// failure semantics, atomic replacement that never damages the
// destination), the WAL frame codec (round-trip, torn-tail truncation
// versus located mid-log corruption), the DurableEngine lifecycle
// (checkpoint rotation, pruning, corrupt-checkpoint fallback, WAL-tail
// replay), a randomized torn-write fuzz loop over recovery, and the
// crash-kill harness: a forked child is SIGKILLed at random operation
// boundaries and random I/O points, hundreds of times, and the recovered
// state must always be a valid prefix of the uninterrupted run — at one
// worker thread and at eight.

#include "durable/durable_engine.h"

#include <gtest/gtest.h>

#include <dirent.h>
#include <sys/stat.h>
#include <sys/types.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <bit>
#include <cmath>
#include <csignal>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "common/random.h"
#include "durable/durable_file.h"
#include "durable/wal.h"
#include "guard/fault_injector.h"
#include "snapshot/snapshot.h"
#include "stream/stream_engine.h"
#include "tensor/tensor_io.h"
#include "timeseries/series.h"

namespace dspot {
namespace {

std::string TempPath(const std::string& name) {
  return ::testing::TempDir() + "/" + name;
}

StatusOr<std::string> ReadFileBytes(const std::string& path) {
  std::ifstream is(path, std::ios::binary);
  if (!is) {
    return Status::IoError("cannot open for reading: " + path);
  }
  std::ostringstream buf;
  buf << is.rdbuf();
  return buf.str();
}

void WriteFileBytes(const std::string& path, const std::string& bytes) {
  std::ofstream os(path, std::ios::binary | std::ios::trunc);
  ASSERT_TRUE(os) << path;
  os.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  ASSERT_TRUE(os.good()) << path;
}

std::vector<std::string> ListDir(const std::string& dir) {
  std::vector<std::string> names;
  DIR* d = ::opendir(dir.c_str());
  if (d == nullptr) {
    return names;
  }
  while (struct dirent* ent = ::readdir(d)) {
    const std::string name = ent->d_name;
    if (name != "." && name != "..") {
      names.push_back(name);
    }
  }
  ::closedir(d);
  std::sort(names.begin(), names.end());
  return names;
}

size_t CountPrefixed(const std::vector<std::string>& names,
                     const std::string& prefix) {
  size_t n = 0;
  for (const std::string& name : names) {
    if (name.rfind(prefix, 0) == 0) {
      ++n;
    }
  }
  return n;
}

std::string FreshDir(const std::string& name) {
  const std::string dir = TempPath(name);
  std::string cmd = "rm -rf '" + dir + "'";
  if (std::system(cmd.c_str()) != 0) {
    ADD_FAILURE() << "cleanup failed for " << dir;
  }
  return dir;
}

void CopyDir(const std::string& from, const std::string& to) {
  ASSERT_EQ(::mkdir(to.c_str(), 0755), 0) << to << ": " << std::strerror(errno);
  for (const std::string& name : ListDir(from)) {
    auto bytes = ReadFileBytes(from + "/" + name);
    ASSERT_TRUE(bytes.ok()) << bytes.status().ToString();
    WriteFileBytes(to + "/" + name, *bytes);
  }
}

// ---------------------------------------------------------------------------
// DurableFile + AtomicWriteFile
// ---------------------------------------------------------------------------

TEST(DurableFile, AppendTracksSizeAcrossReopen) {
  const std::string path = TempPath("durable_append.bin");
  ::unlink(path.c_str());
  {
    auto file = DurableFile::OpenAppend(path, RetryPolicy());
    ASSERT_TRUE(file.ok()) << file.status().ToString();
    ASSERT_TRUE(file->WriteAll("hello", 5).ok());
    EXPECT_EQ(file->size(), 5u);
    ASSERT_TRUE(file->Sync().ok());
    ASSERT_TRUE(file->Close().ok());
    EXPECT_FALSE(file->is_open());
    EXPECT_TRUE(file->Close().ok());  // idempotent
  }
  auto file = DurableFile::OpenAppend(path, RetryPolicy());
  ASSERT_TRUE(file.ok()) << file.status().ToString();
  EXPECT_EQ(file->size(), 5u);  // fstat at open, not zero
  ASSERT_TRUE(file->WriteAll(" world", 6).ok());
  ASSERT_TRUE(file->Close().ok());
  auto bytes = ReadFileBytes(path);
  ASSERT_TRUE(bytes.ok());
  EXPECT_EQ(*bytes, "hello world");
}

TEST(DurableFile, ShortWriteContinuesWhereItStopped) {
  const std::string path = TempPath("durable_short.bin");
  ::unlink(path.c_str());
  auto file = DurableFile::OpenAppend(path, RetryPolicy());
  ASSERT_TRUE(file.ok()) << file.status().ToString();
  std::string payload(1024, '\0');
  for (size_t i = 0; i < payload.size(); ++i) {
    payload[i] = static_cast<char>(i % 251);
  }
  // Every write() call is halved: the continuation loop must still land
  // every byte, in order, exactly once.
  FaultInjector::Instance().ArmSite(FaultSite::kIoShortWrite, 0xd1ce, 1.0);
  const Status s = file->WriteAll(payload.data(), payload.size());
  FaultInjector::Instance().Disarm();
  ASSERT_TRUE(s.ok()) << s.ToString();
  ASSERT_TRUE(file->Close().ok());
  auto bytes = ReadFileBytes(path);
  ASSERT_TRUE(bytes.ok());
  EXPECT_EQ(*bytes, payload);
}

TEST(DurableFile, NoSpaceExhaustsBoundedRetries) {
  const std::string path = TempPath("durable_enospc.bin");
  ::unlink(path.c_str());
  RetryPolicy retry;
  retry.max_attempts = 3;
  retry.backoff_us = 0;  // keep the test instant
  auto file = DurableFile::OpenAppend(path, retry);
  ASSERT_TRUE(file.ok()) << file.status().ToString();
  FaultInjector::Instance().ArmSite(FaultSite::kIoNoSpace, 0xbeef, 1.0);
  const Status s = file->WriteAll("doomed", 6);
  FaultInjector::Instance().Disarm();
  EXPECT_EQ(s.code(), StatusCode::kIoError);
  EXPECT_NE(s.message().find("3 attempts"), std::string::npos)
      << s.ToString();
}

TEST(DurableFile, FsyncFailureIsNotRetried) {
  const std::string path = TempPath("durable_fsync.bin");
  ::unlink(path.c_str());
  auto file = DurableFile::OpenAppend(path, RetryPolicy());
  ASSERT_TRUE(file.ok()) << file.status().ToString();
  ASSERT_TRUE(file->WriteAll("x", 1).ok());
  FaultInjector::Instance().ArmExact(FaultSite::kIoFsyncFailure, 0);
  const Status s = file->Sync();
  // Exactly one fsync decision was drawn — no retry loop behind it.
  const uint64_t draws =
      FaultInjector::Instance().draws(FaultSite::kIoFsyncFailure);
  FaultInjector::Instance().Disarm();
  EXPECT_EQ(s.code(), StatusCode::kIoError);
  EXPECT_EQ(draws, 1u);
}

TEST(AtomicWrite, ReplacesDestinationAndCleansTemp) {
  const std::string path = TempPath("atomic_replace.bin");
  WriteFileBytes(path, "old contents");
  const std::string next = "new contents, longer than before";
  ASSERT_TRUE(AtomicWriteFile(path, next.data(), next.size()).ok());
  auto bytes = ReadFileBytes(path);
  ASSERT_TRUE(bytes.ok());
  EXPECT_EQ(*bytes, next);
  for (const std::string& name : ListDir(DirOf(path))) {
    EXPECT_EQ(name.find("atomic_replace.bin.tmp."), std::string::npos)
        << "stale temp file " << name;
  }
}

TEST(AtomicWrite, RenameFailureLeavesDestinationUntouched) {
  const std::string path = TempPath("atomic_rename_fail.bin");
  WriteFileBytes(path, "the good file");
  FaultInjector::Instance().ArmExact(FaultSite::kIoRenameFailure, 0);
  const Status s = AtomicWriteFile(path, "garbage", 7);
  FaultInjector::Instance().Disarm();
  EXPECT_EQ(s.code(), StatusCode::kIoError);
  auto bytes = ReadFileBytes(path);
  ASSERT_TRUE(bytes.ok());
  EXPECT_EQ(*bytes, "the good file");
  for (const std::string& name : ListDir(DirOf(path))) {
    EXPECT_EQ(name.find("atomic_rename_fail.bin.tmp."), std::string::npos)
        << "temp file not cleaned up: " << name;
  }
}

TEST(AtomicWrite, WriteFailureLeavesDestinationUntouched) {
  const std::string path = TempPath("atomic_write_fail.bin");
  WriteFileBytes(path, "the good file");
  RetryPolicy retry;
  retry.max_attempts = 2;
  retry.backoff_us = 0;
  FaultInjector::Instance().ArmSite(FaultSite::kIoNoSpace, 0xf00d, 1.0);
  const Status s = AtomicWriteFile(path, "garbage", 7, retry);
  FaultInjector::Instance().Disarm();
  EXPECT_EQ(s.code(), StatusCode::kIoError);
  auto bytes = ReadFileBytes(path);
  ASSERT_TRUE(bytes.ok());
  EXPECT_EQ(*bytes, "the good file");
}

// ---------------------------------------------------------------------------
// Retrofitted writers: a failed save never leaves a truncated destination
// ---------------------------------------------------------------------------

TEST(WriterRetrofit, StreamSaveStateFailureKeepsPreviousState) {
  StreamOptions options;
  options.ring_capacity = 64;
  options.min_fit_ticks = 16;
  StreamEngine engine(options);
  for (int64_t t = 0; t < 20; ++t) {
    ASSERT_TRUE(engine.Append("kw", "", t, 10.0 + t).ok());
  }
  ASSERT_TRUE(engine.Flush().ok());
  const std::string path = TempPath("retrofit_stream.state");
  ASSERT_TRUE(engine.SaveState(path).ok());
  const std::vector<uint8_t> before_state = engine.EncodeState();

  ASSERT_TRUE(engine.Append("kw", "", 20, 99.0).ok());
  FaultInjector::Instance().ArmExact(FaultSite::kIoRenameFailure, 0);
  const Status failed = engine.SaveState(path);
  FaultInjector::Instance().Disarm();
  EXPECT_EQ(failed.code(), StatusCode::kIoError);

  // The earlier save must still load, bit-for-bit.
  auto loaded = StreamEngine::LoadState(path, options);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_EQ((*loaded)->EncodeState(), before_state);
}

TEST(WriterRetrofit, SnapshotSaveFailureKeepsPreviousFile) {
  ModelSnapshot snapshot;
  snapshot.keywords = {"alpha"};
  snapshot.locations = {"x"};
  snapshot.global_rmse = {1.5};
  // The loader validates label/rmse counts against the param counts, so
  // even this throwaway snapshot must be shape-consistent to read back.
  snapshot.params.num_keywords = 1;
  snapshot.params.num_locations = 1;
  snapshot.params.global.resize(1);
  const std::string path = TempPath("retrofit_snapshot.dspot");
  ASSERT_TRUE(SaveSnapshot(snapshot, path, SnapshotFormat::kBinary).ok());
  auto before = ReadFileBytes(path);
  ASSERT_TRUE(before.ok());

  snapshot.keywords.push_back("beta");
  snapshot.global_rmse.push_back(2.5);
  snapshot.params.num_keywords = 2;
  snapshot.params.global.resize(2);
  FaultInjector::Instance().ArmExact(FaultSite::kIoRenameFailure, 0);
  const Status failed = SaveSnapshot(snapshot, path, SnapshotFormat::kBinary);
  FaultInjector::Instance().Disarm();
  EXPECT_EQ(failed.code(), StatusCode::kIoError);

  auto after = ReadFileBytes(path);
  ASSERT_TRUE(after.ok());
  EXPECT_EQ(*after, *before);
  auto loaded = LoadSnapshot(path);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  ASSERT_EQ(loaded->keywords.size(), 1u);
}

TEST(WriterRetrofit, SeriesCsvFailureKeepsPreviousFile) {
  const std::string path = TempPath("retrofit_series.csv");
  Series series(std::vector<double>{1.0, 2.0, 3.0});
  ASSERT_TRUE(SaveSeriesCsv(series, path).ok());
  auto before = ReadFileBytes(path);
  ASSERT_TRUE(before.ok());

  Series bigger(std::vector<double>{4.0, 5.0, 6.0, 7.0});
  FaultInjector::Instance().ArmExact(FaultSite::kIoRenameFailure, 0);
  const Status failed = SaveSeriesCsv(bigger, path);
  FaultInjector::Instance().Disarm();
  EXPECT_EQ(failed.code(), StatusCode::kIoError);

  auto after = ReadFileBytes(path);
  ASSERT_TRUE(after.ok());
  EXPECT_EQ(*after, *before);
}

// ---------------------------------------------------------------------------
// WAL codec
// ---------------------------------------------------------------------------

TEST(Wal, RoundTripAllRecordTypes) {
  const std::string path = TempPath("wal_roundtrip.log");
  ::unlink(path.c_str());
  {
    auto wal = WalWriter::Open(path, 1, RetryPolicy());
    ASSERT_TRUE(wal.ok()) << wal.status().ToString();
    uint64_t seq = 0;
    ASSERT_TRUE(
        wal->Append(WalRecordType::kCheckpointRef, 0, 0, 0, {}, &seq).ok());
    EXPECT_EQ(seq, 1u);
    ASSERT_TRUE(
        wal->Append(WalRecordType::kIntern, 7, 0, 0, "keyword-name").ok());
    // A name of exactly 8 bytes must survive the 8-byte zero padding.
    ASSERT_TRUE(
        wal->Append(WalRecordType::kIntern, 8, 0, 0, "12345678").ok());
    ASSERT_TRUE(wal->Append(WalRecordType::kAppend, 7,
                            static_cast<uint64_t>(int64_t{-12}),
                            std::bit_cast<uint64_t>(3.75), {}, &seq)
                    .ok());
    EXPECT_EQ(seq, 4u);
    ASSERT_TRUE(wal->Append(WalRecordType::kFlushMark, 0, 0, 0).ok());
    ASSERT_TRUE(wal->Sync().ok());
    EXPECT_EQ(wal->next_seq(), 6u);
  }
  auto scan = ReadWalSegment(path, 1, /*allow_torn_tail=*/true);
  ASSERT_TRUE(scan.ok()) << scan.status().ToString();
  EXPECT_EQ(scan->truncated_bytes, 0u);
  ASSERT_EQ(scan->records.size(), 5u);
  EXPECT_EQ(scan->records[0].type, WalRecordType::kCheckpointRef);
  EXPECT_EQ(scan->records[1].name, "keyword-name");
  EXPECT_EQ(scan->records[2].name, "12345678");
  EXPECT_EQ(scan->records[3].type, WalRecordType::kAppend);
  EXPECT_EQ(static_cast<int64_t>(scan->records[3].b), -12);
  EXPECT_EQ(std::bit_cast<double>(scan->records[3].c), 3.75);
  EXPECT_EQ(scan->records[4].seq, 5u);
}

TEST(Wal, RejectsNameOnNonInternRecords) {
  const std::string path = TempPath("wal_badname.log");
  ::unlink(path.c_str());
  auto wal = WalWriter::Open(path, 1, RetryPolicy());
  ASSERT_TRUE(wal.ok());
  EXPECT_EQ(
      wal->Append(WalRecordType::kAppend, 0, 0, 0, "nope").code(),
      StatusCode::kInternal);
}

TEST(Wal, EveryTruncationPointIsATornTail) {
  const std::string path = TempPath("wal_torn.log");
  ::unlink(path.c_str());
  std::vector<size_t> record_ends;
  {
    auto wal = WalWriter::Open(path, 1, RetryPolicy());
    ASSERT_TRUE(wal.ok());
    for (int i = 0; i < 8; ++i) {
      const std::string name = i % 3 == 0 ? "kw" + std::to_string(i) : "";
      ASSERT_TRUE(wal->Append(name.empty() ? WalRecordType::kAppend
                                           : WalRecordType::kIntern,
                              static_cast<uint64_t>(i), 0, 0, name)
                      .ok());
      record_ends.push_back(wal->size());
    }
  }
  auto full = ReadFileBytes(path);
  ASSERT_TRUE(full.ok());
  // Chop the file at every byte boundary: recovery must always see the
  // longest record prefix plus a torn tail, never an error, never a
  // record that was not fully written.
  for (size_t cut = 0; cut <= full->size(); ++cut) {
    const std::string torn_path = TempPath("wal_torn_cut.log");
    WriteFileBytes(torn_path, full->substr(0, cut));
    auto scan = ReadWalSegment(torn_path, 1, /*allow_torn_tail=*/true);
    ASSERT_TRUE(scan.ok()) << "cut=" << cut << ": "
                           << scan.status().ToString();
    size_t expect_records = 0;
    while (expect_records < record_ends.size() &&
           record_ends[expect_records] <= cut) {
      ++expect_records;
    }
    EXPECT_EQ(scan->records.size(), expect_records) << "cut=" << cut;
    const size_t whole = expect_records == 0 ? 0
                                             : record_ends[expect_records - 1];
    EXPECT_EQ(scan->valid_bytes, whole) << "cut=" << cut;
    EXPECT_EQ(scan->truncated_bytes, cut - whole) << "cut=" << cut;
  }
}

TEST(Wal, MidLogCorruptionIsLocatedDataLossNotATornTail) {
  const std::string path = TempPath("wal_midflip.log");
  ::unlink(path.c_str());
  {
    auto wal = WalWriter::Open(path, 1, RetryPolicy());
    ASSERT_TRUE(wal.ok());
    for (int i = 0; i < 6; ++i) {
      ASSERT_TRUE(wal->Append(WalRecordType::kAppend,
                              static_cast<uint64_t>(i), 0, 0)
                      .ok());
    }
  }
  auto bytes = ReadFileBytes(path);
  ASSERT_TRUE(bytes.ok());
  std::string flipped = *bytes;
  flipped[kWalFrameBytes + 10] ^= 0x40;  // inside record #2 of 6
  WriteFileBytes(path, flipped);
  auto scan = ReadWalSegment(path, 1, /*allow_torn_tail=*/true);
  ASSERT_FALSE(scan.ok());
  EXPECT_EQ(scan.status().code(), StatusCode::kDataLoss);
  EXPECT_NE(scan.status().message().find(path), std::string::npos)
      << scan.status().ToString();
  EXPECT_NE(scan.status().message().find("offset"), std::string::npos);
  // In a non-final segment even a genuine tail tear is an error.
  WriteFileBytes(path, bytes->substr(0, bytes->size() - 7));
  auto strict = ReadWalSegment(path, 1, /*allow_torn_tail=*/false);
  ASSERT_FALSE(strict.ok());
  EXPECT_EQ(strict.status().code(), StatusCode::kDataLoss);
}

TEST(Wal, SequenceGapIsDataLoss) {
  const std::string path = TempPath("wal_gap.log");
  ::unlink(path.c_str());
  {
    auto wal = WalWriter::Open(path, 5, RetryPolicy());
    ASSERT_TRUE(wal.ok());
    ASSERT_TRUE(wal->Append(WalRecordType::kAppend, 1, 0, 0).ok());
  }
  auto scan = ReadWalSegment(path, 1, /*allow_torn_tail=*/true);
  ASSERT_FALSE(scan.ok());
  EXPECT_EQ(scan.status().code(), StatusCode::kDataLoss);
  EXPECT_NE(scan.status().message().find("gap"), std::string::npos)
      << scan.status().ToString();
}

// A segment that cannot be read is an IoError, never an empty segment (or,
// in the final segment, a torn tail that recovery would truncate).
TEST(Wal, UnreadableSegmentIsIoError) {
  const std::string dir = TempPath("wal_segment_dir");
  std::filesystem::create_directories(dir);
  auto scan = ReadWalSegment(dir, 1, /*allow_torn_tail=*/true);
  ASSERT_FALSE(scan.ok());
  EXPECT_EQ(scan.status().code(), StatusCode::kIoError)
      << scan.status().ToString();
  EXPECT_NE(scan.status().message().find("read failed: " + dir),
            std::string::npos)
      << scan.status().ToString();
}

// ---------------------------------------------------------------------------
// DurableEngine lifecycle
// ---------------------------------------------------------------------------

/// One scripted operation against a durable (or reference) engine.
struct DurableOp {
  bool flush = false;
  std::string keyword;
  int64_t timestamp = 0;
  double count = 0.0;
};

/// The scripted workload shared by the lifecycle, fuzz, and crash tests:
/// two keywords appended in lockstep (so an intern can tear away from its
/// first append), a mid-stream burst, a flush every ten ticks.
std::vector<DurableOp> ScriptedOps(int64_t ticks) {
  std::vector<DurableOp> ops;
  for (int64_t t = 0; t < ticks; ++t) {
    const double base = 20.0 + static_cast<double>(t % 5) +
                        3.0 * std::sin(static_cast<double>(t) / 7.0);
    ops.push_back({false, "alpha", t, base + (t == 20 ? 80.0 : 0.0)});
    ops.push_back({false, "beta", t, base * 0.5});
    if ((t + 1) % 10 == 0) {
      ops.push_back({true, "", 0, 0.0});
    }
  }
  ops.push_back({true, "", 0, 0.0});
  return ops;
}

StreamOptions HarnessStreamOptions(size_t num_threads) {
  StreamOptions options;
  options.ring_capacity = 64;
  options.min_fit_ticks = 16;
  options.refit_interval = 8;
  options.forecast_horizon = 8;
  options.num_threads = num_threads;
  return options;
}

DurableOptions HarnessOptions(size_t num_threads,
                              FsyncPolicy policy = FsyncPolicy::kOnFlush) {
  DurableOptions options;
  options.fsync_policy = policy;
  options.fsync_every_n = 3;
  options.checkpoint_every_flushes = 2;
  options.retry.backoff_us = 0;
  options.stream = HarnessStreamOptions(num_threads);
  return options;
}

Status ApplyOp(DurableEngine* engine, const DurableOp& op) {
  if (op.flush) {
    return engine->Flush().status();
  }
  return engine->Append(op.keyword, "", op.timestamp, op.count);
}

/// Replays ops[0..k) into a fresh reference StreamEngine.
std::unique_ptr<StreamEngine> ReferencePrefix(
    const std::vector<DurableOp>& ops, size_t k, const StreamOptions& options) {
  auto engine = std::make_unique<StreamEngine>(options);
  for (size_t i = 0; i < k; ++i) {
    Status s = ops[i].flush ? engine->Flush().status()
                            : engine->Append(ops[i].keyword, "",
                                             ops[i].timestamp, ops[i].count);
    if (!s.ok()) {
      ADD_FAILURE() << "reference replay failed at op " << i << ": "
                    << s.ToString();
      return nullptr;
    }
  }
  return engine;
}

/// The prefix oracle: the recovered engine's monotonic counters identify
/// how many scripted ops survived; replaying exactly those ops into a
/// fresh engine must reproduce the recovered state bit-for-bit. The one
/// permitted divergence: a keyword whose intern record survived but whose
/// first append did not (the crash landed between the two WAL writes).
::testing::AssertionResult RecoveredIsValidPrefix(
    StreamEngine& recovered, const std::vector<DurableOp>& ops,
    const StreamOptions& options) {
  const StreamStats stats = recovered.stats();
  uint64_t appends = 0;
  uint64_t flushes = 0;
  size_t k = 0;
  while (k < ops.size() &&
         (appends < stats.appends || flushes < stats.flushes)) {
    if (ops[k].flush) {
      ++flushes;
    } else {
      ++appends;
    }
    ++k;
  }
  if (appends != stats.appends || flushes != stats.flushes) {
    return ::testing::AssertionFailure()
           << "recovered counters (appends=" << stats.appends
           << ", flushes=" << stats.flushes
           << ") do not match any prefix of the scripted ops";
  }
  std::unique_ptr<StreamEngine> reference = ReferencePrefix(ops, k, options);
  if (reference == nullptr) {
    return ::testing::AssertionFailure() << "reference replay failed";
  }
  if (recovered.num_keywords() == reference->num_keywords() + 1) {
    // Torn between intern and first append: op k must be the append that
    // would have interned the extra keyword.
    if (k >= ops.size() || ops[k].flush) {
      return ::testing::AssertionFailure()
             << "recovered engine has an extra keyword but op " << k
             << " could not have interned one";
    }
    auto id = reference->EnsureKeyword(ops[k].keyword);
    if (!id.ok()) {
      return ::testing::AssertionFailure() << id.status().ToString();
    }
  }
  if (recovered.EncodeState() != reference->EncodeState()) {
    return ::testing::AssertionFailure()
           << "recovered state is not the prefix state at k=" << k
           << " (appends=" << stats.appends << ", flushes=" << stats.flushes
           << ")";
  }
  return ::testing::AssertionSuccess();
}

TEST(DurableEngine, FreshOpenLaysDownCheckpointZeroAndFirstSegment) {
  const std::string dir = FreshDir("durable_fresh");
  auto engine = DurableEngine::Open(dir, HarnessOptions(1));
  ASSERT_TRUE(engine.ok()) << engine.status().ToString();
  EXPECT_TRUE((*engine)->recovery().fresh);
  EXPECT_EQ((*engine)->last_checkpoint_seq(), 0u);
  const std::vector<std::string> names = ListDir(dir);
  EXPECT_EQ(CountPrefixed(names, "checkpoint-"), 1u);
  EXPECT_EQ(CountPrefixed(names, "wal-"), 1u);
  // The options are durable before the first append: a reopen of the
  // empty directory is a recovery, not a fresh start.
  engine->reset();
  auto again = DurableEngine::Open(dir, HarnessOptions(1));
  ASSERT_TRUE(again.ok()) << again.status().ToString();
  EXPECT_FALSE((*again)->recovery().fresh);
  EXPECT_TRUE((*again)->recovery().used_checkpoint);
}

TEST(DurableEngine, CleanShutdownRecoversBitIdenticalState) {
  const std::string dir = FreshDir("durable_clean");
  const std::vector<DurableOp> ops = ScriptedOps(30);
  std::vector<uint8_t> final_state;
  {
    auto engine = DurableEngine::Open(dir, HarnessOptions(1));
    ASSERT_TRUE(engine.ok()) << engine.status().ToString();
    for (const DurableOp& op : ops) {
      ASSERT_TRUE(ApplyOp(engine->get(), op).ok());
    }
    final_state = (*engine)->engine().EncodeState();
  }
  auto recovered = DurableEngine::Open(dir, HarnessOptions(1));
  ASSERT_TRUE(recovered.ok()) << recovered.status().ToString();
  EXPECT_EQ((*recovered)->engine().EncodeState(), final_state);
  EXPECT_EQ((*recovered)->recovery().checkpoints_discarded, 0u);
  EXPECT_TRUE(
      RecoveredIsValidPrefix((*recovered)->engine(), ops,
                             HarnessStreamOptions(1)));
  // And the recovered engine keeps working: more ops, another recovery.
  ASSERT_TRUE((*recovered)->Append("alpha", "", 30, 25.0).ok());
  ASSERT_TRUE((*recovered)->Flush().ok());
  const std::vector<uint8_t> extended = (*recovered)->engine().EncodeState();
  recovered->reset();
  auto again = DurableEngine::Open(dir, HarnessOptions(1));
  ASSERT_TRUE(again.ok()) << again.status().ToString();
  EXPECT_EQ((*again)->engine().EncodeState(), extended);
}

TEST(DurableEngine, CheckpointRotationKeepsTwoAndPrunesTheRest) {
  const std::string dir = FreshDir("durable_rotate");
  auto engine = DurableEngine::Open(dir, HarnessOptions(1));
  ASSERT_TRUE(engine.ok()) << engine.status().ToString();
  for (const DurableOp& op : ScriptedOps(60)) {
    ASSERT_TRUE(ApplyOp(engine->get(), op).ok());
  }
  // checkpoint_every_flushes=2 over 7 flushes -> several rotations.
  const std::vector<std::string> names = ListDir(dir);
  EXPECT_LE(CountPrefixed(names, "checkpoint-"), 2u);
  EXPECT_GE(CountPrefixed(names, "checkpoint-"), 1u);
  EXPECT_LE(CountPrefixed(names, "wal-"), 3u);
  const std::vector<uint8_t> state = (*engine)->engine().EncodeState();
  engine->reset();
  auto recovered = DurableEngine::Open(dir, HarnessOptions(1));
  ASSERT_TRUE(recovered.ok()) << recovered.status().ToString();
  EXPECT_EQ((*recovered)->engine().EncodeState(), state);
}

TEST(DurableEngine, CorruptNewestCheckpointFallsBackToPrevious) {
  const std::string dir = FreshDir("durable_fallback");
  std::vector<uint8_t> state;
  {
    auto engine = DurableEngine::Open(dir, HarnessOptions(1));
    ASSERT_TRUE(engine.ok()) << engine.status().ToString();
    for (const DurableOp& op : ScriptedOps(40)) {
      ASSERT_TRUE(ApplyOp(engine->get(), op).ok());
    }
    state = (*engine)->engine().EncodeState();
  }
  // Flip one payload byte in the newest checkpoint: recovery must fall
  // back to the previous one and rebuild the tail from the WAL.
  std::string newest;
  for (const std::string& name : ListDir(dir)) {
    if (name.rfind("checkpoint-", 0) == 0) {
      newest = name;  // sorted ascending; the last wins
    }
  }
  ASSERT_FALSE(newest.empty());
  auto bytes = ReadFileBytes(dir + "/" + newest);
  ASSERT_TRUE(bytes.ok());
  std::string corrupt = *bytes;
  corrupt[corrupt.size() / 2] ^= 0x01;
  WriteFileBytes(dir + "/" + newest, corrupt);

  auto recovered = DurableEngine::Open(dir, HarnessOptions(1));
  ASSERT_TRUE(recovered.ok()) << recovered.status().ToString();
  EXPECT_EQ((*recovered)->recovery().checkpoints_discarded, 1u);
  EXPECT_EQ((*recovered)->engine().EncodeState(), state);
}

// A checkpoint cut short is discarded like any damaged one: for every
// prefix of the newest checkpoint, Open recovers the uninterrupted state
// through the older checkpoint and the WAL, or fails with a located
// DataLoss. Each prefix is a file of its own, so a read past its end is a
// sanitizer error. Twelve ticks stay below min_fit_ticks, so the replay
// behind each Open fits nothing and the loop stays fast.
TEST(DurableEngine, TruncatedNewestCheckpointFallsBackOrFailsLocated) {
  const std::string base = FreshDir("durable_ckpt_cut_base");
  std::vector<uint8_t> state;
  {
    auto engine = DurableEngine::Open(base, HarnessOptions(1));
    ASSERT_TRUE(engine.ok()) << engine.status().ToString();
    for (const DurableOp& op : ScriptedOps(12)) {
      ASSERT_TRUE(ApplyOp(engine->get(), op).ok());
    }
    state = (*engine)->engine().EncodeState();
  }
  std::string newest;
  for (const std::string& name : ListDir(base)) {
    if (name.rfind("checkpoint-", 0) == 0) {
      newest = name;  // sorted ascending; the last wins
    }
  }
  ASSERT_FALSE(newest.empty());
  auto bytes = ReadFileBytes(base + "/" + newest);
  ASSERT_TRUE(bytes.ok());

  for (size_t len = 0; len < bytes->size(); ++len) {
    SCOPED_TRACE("prefix " + std::to_string(len));
    const std::string dir = FreshDir("durable_ckpt_cut");
    CopyDir(base, dir);
    WriteFileBytes(dir + "/" + newest, bytes->substr(0, len));
    auto recovered = DurableEngine::Open(dir, HarnessOptions(1));
    if (recovered.ok()) {
      EXPECT_EQ((*recovered)->recovery().checkpoints_discarded, 1u);
      ASSERT_EQ((*recovered)->engine().EncodeState(), state);
    } else {
      ASSERT_EQ(recovered.status().code(), StatusCode::kDataLoss)
          << recovered.status().ToString();
      EXPECT_NE(recovered.status().message().find(dir), std::string::npos)
          << recovered.status().ToString();
    }
  }
}

TEST(DurableEngine, TornLiveSegmentTailIsTruncatedOnRecovery) {
  const std::string dir = FreshDir("durable_torn_tail");
  const std::vector<DurableOp> ops = ScriptedOps(25);
  {
    auto engine = DurableEngine::Open(dir, HarnessOptions(1));
    ASSERT_TRUE(engine.ok()) << engine.status().ToString();
    for (const DurableOp& op : ops) {
      ASSERT_TRUE(ApplyOp(engine->get(), op).ok());
    }
  }
  // Tear the live segment mid-record, as a crash inside write() would.
  std::string live;
  for (const std::string& name : ListDir(dir)) {
    if (name.rfind("wal-", 0) == 0) {
      live = name;
    }
  }
  ASSERT_FALSE(live.empty());
  const std::string path = dir + "/" + live;
  auto bytes = ReadFileBytes(path);
  ASSERT_TRUE(bytes.ok());
  ASSERT_GT(bytes->size(), kWalFrameBytes + 11);
  WriteFileBytes(path, bytes->substr(0, bytes->size() - 11));

  auto recovered = DurableEngine::Open(dir, HarnessOptions(1));
  ASSERT_TRUE(recovered.ok()) << recovered.status().ToString();
  EXPECT_GT((*recovered)->recovery().truncated_bytes, 0u);
  EXPECT_TRUE(RecoveredIsValidPrefix((*recovered)->engine(), ops,
                                     HarnessStreamOptions(1)));
}

TEST(DurableEngine, CheckpointFailureLeavesEngineRunning) {
  const std::string dir = FreshDir("durable_ckpt_fail");
  DurableOptions options = HarnessOptions(1);
  options.checkpoint_every_flushes = 1;  // checkpoint at every flush
  auto engine = DurableEngine::Open(dir, options);
  ASSERT_TRUE(engine.ok()) << engine.status().ToString();
  for (int64_t t = 0; t < 12; ++t) {
    ASSERT_TRUE((*engine)->Append("kw", "", t, 5.0 + t).ok());
  }
  // The auto-checkpoint's rename fails; the flush itself must succeed and
  // the engine must stay usable.
  FaultInjector::Instance().ArmExact(FaultSite::kIoRenameFailure, 0);
  auto report = (*engine)->Flush();
  FaultInjector::Instance().Disarm();
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  ASSERT_TRUE((*engine)->Append("kw", "", 12, 17.0).ok());
  ASSERT_TRUE((*engine)->Flush().ok());  // this checkpoint succeeds
  const std::vector<uint8_t> state = (*engine)->engine().EncodeState();
  engine->reset();
  auto recovered = DurableEngine::Open(dir, options);
  ASSERT_TRUE(recovered.ok()) << recovered.status().ToString();
  EXPECT_EQ((*recovered)->engine().EncodeState(), state);
}

// ---------------------------------------------------------------------------
// Torn-write fuzz loop (the PR 5 SnapshotRobustness recipe, aimed at the
// WAL): random truncations and bit flips must recover to a valid prefix
// or fail with located kDataLoss — never crash, never silently diverge.
// ---------------------------------------------------------------------------

TEST(DurableFuzz, RandomTearsAndFlipsRecoverPrefixOrFailLoudly) {
  const std::string base = FreshDir("durable_fuzz_base");
  // 25 ticks -> the last checkpoint lands at the second flush, leaving a
  // live segment with real appends and a flush mark to tear into.
  const std::vector<DurableOp> ops = ScriptedOps(25);
  {
    auto engine = DurableEngine::Open(base, HarnessOptions(1));
    ASSERT_TRUE(engine.ok()) << engine.status().ToString();
    for (const DurableOp& op : ops) {
      ASSERT_TRUE(ApplyOp(engine->get(), op).ok());
    }
  }
  std::string live;
  for (const std::string& name : ListDir(base)) {
    if (name.rfind("wal-", 0) == 0) {
      live = name;  // sorted: the last wal- entry is the live segment
    }
  }
  ASSERT_FALSE(live.empty());

  const int kTrials = 400;
  int recovered_ok = 0;
  int data_loss = 0;
  for (int trial = 0; trial < kTrials; ++trial) {
    SCOPED_TRACE("trial " + std::to_string(trial));
    Random rng(0xF0220000 + static_cast<uint64_t>(trial));
    const std::string dir = FreshDir("durable_fuzz_trial");
    CopyDir(base, dir);
    const std::string path = dir + "/" + live;
    auto bytes = ReadFileBytes(path);
    ASSERT_TRUE(bytes.ok());
    std::string mutated = *bytes;
    if (rng.Bernoulli(0.5)) {
      mutated.resize(static_cast<size_t>(
          rng.UniformInt(0, static_cast<int64_t>(mutated.size()))));
    } else {
      const int flips = static_cast<int>(rng.UniformInt(1, 3));
      for (int i = 0; i < flips && !mutated.empty(); ++i) {
        const size_t at = static_cast<size_t>(
            rng.UniformInt(0, static_cast<int64_t>(mutated.size()) - 1));
        mutated[at] ^= static_cast<char>(rng.UniformInt(1, 255));
      }
    }
    WriteFileBytes(path, mutated);

    auto recovered = DurableEngine::Open(dir, HarnessOptions(1));
    if (recovered.ok()) {
      ++recovered_ok;
      ASSERT_TRUE(RecoveredIsValidPrefix((*recovered)->engine(), ops,
                                         HarnessStreamOptions(1)));
    } else {
      ++data_loss;
      // Never a crash, never an unlocated shrug: corruption that cannot
      // be proven a torn tail must say what and where.
      ASSERT_EQ(recovered.status().code(), StatusCode::kDataLoss)
          << recovered.status().ToString();
      ASSERT_FALSE(recovered.status().message().empty());
    }
  }
  // The mutation mix must actually exercise both outcomes.
  EXPECT_GT(recovered_ok, kTrials / 10);
  EXPECT_GT(data_loss, kTrials / 10);
}

// ---------------------------------------------------------------------------
// Crash-kill harness
// ---------------------------------------------------------------------------

std::atomic<long> g_kill_countdown{-1};

void KillAtIoPoint(const char* /*point*/) {
  if (g_kill_countdown.fetch_sub(1, std::memory_order_relaxed) == 0) {
    ::kill(::getpid(), SIGKILL);
    for (;;) {
      ::pause();  // multi-threaded child: wait for the kill to land
    }
  }
}

/// What a forked child does. Never returns.
[[noreturn]] void RunCrashChild(const std::string& dir,
                                const std::vector<DurableOp>& ops,
                                const DurableOptions& options,
                                long kill_after_op, long kill_at_io,
                                uint64_t fault_seed) {
  if (kill_at_io >= 0) {
    g_kill_countdown.store(kill_at_io, std::memory_order_relaxed);
    SetDurableCrashHook(&KillAtIoPoint);
    // Genuinely torn frames: some write() calls move only half their
    // bytes, so an I/O-point kill can land mid-record.
    FaultInjector::Instance().ArmSite(FaultSite::kIoShortWrite, fault_seed,
                                      0.25);
  }
  auto engine = DurableEngine::Open(dir, options);
  if (!engine.ok()) {
    _exit(3);
  }
  for (size_t i = 0; i < ops.size(); ++i) {
    if (!ApplyOp(engine->get(), ops[i]).ok()) {
      _exit(4);
    }
    if (kill_after_op >= 0 && i == static_cast<size_t>(kill_after_op)) {
      ::kill(::getpid(), SIGKILL);
      for (;;) {
        ::pause();
      }
    }
  }
  _exit(0);
}

/// Recovery + prefix verification, also in a forked child so the parent
/// process never spawns engine threads (keeping every later fork safe).
/// Exits 0 on success; writes the failure detail next to the WAL dir.
[[noreturn]] void RunVerifyChild(const std::string& dir,
                                 const std::vector<DurableOp>& ops,
                                 const DurableOptions& options) {
  auto fail = [&dir](const std::string& why) {
    std::ofstream os(dir + "/verify_failure.txt");
    os << why << "\n";
    _exit(6);
  };
  auto recovered = DurableEngine::Open(dir, options);
  if (!recovered.ok()) {
    fail("recovery failed: " + recovered.status().ToString());
  }
  if ((*recovered)->recovery().checkpoints_discarded != 0) {
    fail("a crash left a corrupt checkpoint behind");
  }
  const ::testing::AssertionResult prefix = RecoveredIsValidPrefix(
      (*recovered)->engine(), ops, options.stream);
  if (!prefix) {
    fail(prefix.message());
  }
  _exit(0);
}

/// Waits for `pid`; returns its exit code, or -SIGNO if signaled.
int WaitChild(pid_t pid) {
  int wstatus = 0;
  if (::waitpid(pid, &wstatus, 0) != pid) {
    return -1000;
  }
  if (WIFSIGNALED(wstatus)) {
    return -WTERMSIG(wstatus);
  }
  if (WIFEXITED(wstatus)) {
    return WEXITSTATUS(wstatus);
  }
  return -1001;
}

void RunCrashKillHarness(size_t num_threads, int trials) {
  const std::vector<DurableOp> ops = ScriptedOps(30);
  const FsyncPolicy policies[] = {FsyncPolicy::kNever, FsyncPolicy::kOnFlush,
                                  FsyncPolicy::kEveryN};
  Random rng(0xC4A54000 + num_threads);
  for (int trial = 0; trial < trials; ++trial) {
    SCOPED_TRACE("trial " + std::to_string(trial) + " @" +
                 std::to_string(num_threads) + " threads");
    const std::string dir =
        FreshDir("durable_crash_" + std::to_string(num_threads));
    const DurableOptions options =
        HarnessOptions(num_threads, policies[trial % 3]);
    // Alternate kill strategies: an op boundary (clean record boundary)
    // or the n-th durable I/O point (mid-append, mid-checkpoint, between
    // rename and directory sync, ...), with short writes injected so the
    // kill can land inside a half-written frame.
    long kill_after_op = -1;
    long kill_at_io = -1;
    if (trial % 2 == 0) {
      kill_after_op = rng.UniformInt(0, static_cast<int64_t>(ops.size()) - 1);
    } else {
      kill_at_io = rng.UniformInt(0, 400);
    }
    const uint64_t fault_seed = 0x10DEAD + static_cast<uint64_t>(trial);

    const pid_t crash_pid = ::fork();
    ASSERT_GE(crash_pid, 0);
    if (crash_pid == 0) {
      RunCrashChild(dir, ops, options, kill_after_op, kill_at_io, fault_seed);
    }
    const int crash_rc = WaitChild(crash_pid);
    // Acceptable ends: SIGKILLed, ran to completion, or a clean
    // operational failure (an injected short write starving an append).
    ASSERT_TRUE(crash_rc == -SIGKILL || crash_rc == 0 || crash_rc == 4)
        << "crash child ended with " << crash_rc;

    const pid_t verify_pid = ::fork();
    ASSERT_GE(verify_pid, 0);
    if (verify_pid == 0) {
      RunVerifyChild(dir, ops, options);
    }
    const int verify_rc = WaitChild(verify_pid);
    if (verify_rc != 0) {
      auto why = ReadFileBytes(dir + "/verify_failure.txt");
      FAIL() << "verification failed (rc=" << verify_rc << "): "
             << (why.ok() ? *why : "<no detail written>");
    }
  }
}

TEST(DurableCrash, SigkillHarnessSingleThread) {
  RunCrashKillHarness(/*num_threads=*/1, /*trials=*/110);
}

TEST(DurableCrash, SigkillHarnessEightThreads) {
  RunCrashKillHarness(/*num_threads=*/8, /*trials=*/110);
}

}  // namespace
}  // namespace dspot
