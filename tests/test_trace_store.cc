// Tests for the columnar TraceStore and the v2 columnar binary format:
// dense user remapping, run/day indexes, AoS round-trips, selective column
// reads, corrupt-file handling, and the pinned trace and FullReport
// goldens every analysis entry point must reproduce.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <span>
#include <vector>

#include "core/pipeline.h"
#include "core/report.h"
#include "trace/log_io.h"
#include "trace/log_record.h"
#include "trace/record_columns.h"
#include "trace/trace_store.h"
#include "util/timeutil.h"
#include "workload/generator.h"

namespace mcloud {
namespace {

LogRecord MakeRecord(UnixSeconds ts, std::uint64_t user, Direction dir,
                     RequestType type = RequestType::kChunkRequest,
                     DeviceType dev = DeviceType::kAndroid) {
  LogRecord r;
  r.timestamp = ts;
  r.device_type = dev;
  r.device_id = user * 10;
  r.user_id = user;
  r.request_type = type;
  r.direction = dir;
  r.data_volume = type == RequestType::kChunkRequest ? kChunkSize : 0;
  r.processing_time = 1.25;
  r.server_time = 0.1;
  r.avg_rtt = 0.089238;
  r.proxied = false;
  return r;
}

std::filesystem::path TempPath(const char* name) {
  return std::filesystem::temp_directory_path() / name;
}

/// A small mixed trace: sparse out-of-order user ids, all three device
/// types, both request types, rows spanning three calendar days around
/// kTraceStart (including one before it).
std::vector<LogRecord> MixedTrace() {
  std::vector<LogRecord> t;
  t.push_back(MakeRecord(kTraceStart - kDay / 2, 900, Direction::kStore,
                         RequestType::kFileOperation, DeviceType::kPc));
  t.push_back(MakeRecord(kTraceStart + 10, 7, Direction::kStore,
                         RequestType::kFileOperation));
  t.push_back(MakeRecord(kTraceStart + 20, 900, Direction::kRetrieve));
  t.push_back(MakeRecord(kTraceStart + 30, 42, Direction::kRetrieve,
                         RequestType::kChunkRequest, DeviceType::kIos));
  t.push_back(MakeRecord(kTraceStart + 40, 7, Direction::kStore));
  t.push_back(MakeRecord(kTraceStart + kDay + 5, 7, Direction::kRetrieve,
                         RequestType::kFileOperation, DeviceType::kPc));
  t.push_back(MakeRecord(kTraceStart + kDay + 6, 42, Direction::kStore));
  return t;
}

TEST(TraceStore, DenseRemapIsAscendingOriginalOrder) {
  const auto records = MixedTrace();
  const auto store = TraceStore::FromRecords(records);

  ASSERT_EQ(store.rows(), records.size());
  ASSERT_EQ(store.users(), 3u);
  // Dense ids are assigned in ascending original-id order regardless of
  // first-appearance order (900 appears first).
  EXPECT_EQ(store.user_ids()[0], 7u);
  EXPECT_EQ(store.user_ids()[1], 42u);
  EXPECT_EQ(store.user_ids()[2], 900u);
  for (std::size_t row = 0; row < store.rows(); ++row) {
    EXPECT_EQ(store.user_ids()[store.user_index()[row]],
              records[row].user_id);
  }
}

TEST(TraceStore, DayPartitionsTileTheTraceByCalendarDay) {
  const auto records = MixedTrace();
  const auto store = TraceStore::FromRecords(records);

  const auto parts = store.day_partitions();
  ASSERT_FALSE(parts.empty());
  std::uint32_t next = 0;
  for (const auto& p : parts) {
    EXPECT_EQ(p.begin, next);  // contiguous, in row order
    EXPECT_LT(p.begin, p.end);
    for (std::uint32_t row = p.begin; row < p.end; ++row) {
      const auto day = static_cast<std::int64_t>(
          std::floor(static_cast<double>(store.timestamps()[row] -
                                         store.day_base()) /
                     kDay));
      EXPECT_EQ(day, p.day);
    }
    next = p.end;
  }
  EXPECT_EQ(next, store.rows());
  EXPECT_LT(parts.front().day, 0);  // the pre-epoch row lands in day -1
}

TEST(TraceStore, ToRecordsRoundTripsTheAosTrace) {
  const auto records = MixedTrace();
  EXPECT_EQ(TraceStore::FromRecords(records).ToRecords(), records);
}

TEST(ColumnarIo, RoundTripAllColumns) {
  const auto records = MixedTrace();
  const auto path = TempPath("trace_store_roundtrip.v2");
  WriteColumnarTrace(path, TraceStore::FromRecords(records));

  const auto store = ReadColumnarTrace(path);
  EXPECT_EQ(store.columns_present(), kAllColumns);
  const auto back = store.ToRecords();
  ASSERT_EQ(back.size(), records.size());
  for (std::size_t i = 0; i < back.size(); ++i) {
    EXPECT_EQ(back[i].timestamp, records[i].timestamp);
    EXPECT_EQ(back[i].user_id, records[i].user_id);
    EXPECT_EQ(back[i].device_id, records[i].device_id);
    EXPECT_EQ(back[i].device_type, records[i].device_type);
    EXPECT_EQ(back[i].request_type, records[i].request_type);
    EXPECT_EQ(back[i].direction, records[i].direction);
    EXPECT_EQ(back[i].data_volume, records[i].data_volume);
    EXPECT_EQ(back[i].proxied, records[i].proxied);
    // Times travel as integer microseconds, like the v1 format.
    EXPECT_DOUBLE_EQ(back[i].processing_time, records[i].processing_time);
    EXPECT_DOUBLE_EQ(back[i].server_time, records[i].server_time);
    EXPECT_DOUBLE_EQ(back[i].avg_rtt, records[i].avg_rtt);
  }
  std::filesystem::remove(path);
}

TEST(ColumnarIo, SelectiveReadSkipsColumnsAndZeroFills) {
  const auto records = MixedTrace();
  const auto path = TempPath("trace_store_subset.v2");
  WriteColumnarTrace(path, TraceStore::FromRecords(records));

  const auto store = ReadColumnarTrace(path, kAnalysisColumns);
  EXPECT_TRUE(store.has(kAnalysisColumns));
  EXPECT_FALSE(store.has(kColProcessingTime));
  EXPECT_FALSE(store.has(kColProxied));
  EXPECT_TRUE(store.processing_times().empty());

  // Loaded columns match; absent ones read back as zeros.
  const auto back = store.ToRecords();
  ASSERT_EQ(back.size(), records.size());
  for (std::size_t i = 0; i < back.size(); ++i) {
    EXPECT_EQ(back[i].timestamp, records[i].timestamp);
    EXPECT_EQ(back[i].user_id, records[i].user_id);
    EXPECT_EQ(back[i].device_id, records[i].device_id);
    EXPECT_EQ(back[i].device_type, records[i].device_type);
    EXPECT_EQ(back[i].request_type, records[i].request_type);
    EXPECT_EQ(back[i].direction, records[i].direction);
    EXPECT_EQ(back[i].data_volume, records[i].data_volume);
    EXPECT_EQ(back[i].processing_time, 0.0);
    EXPECT_EQ(back[i].server_time, 0.0);
    EXPECT_EQ(back[i].avg_rtt, 0.0);
    EXPECT_FALSE(back[i].proxied);
  }
  std::filesystem::remove(path);
}

TEST(ColumnarIo, SniffsTheMagic) {
  const auto records = MixedTrace();
  const auto v2 = TempPath("trace_store_sniff.v2");
  const auto v1 = TempPath("trace_store_sniff.v1bin");
  WriteColumnarTrace(v2, TraceStore::FromRecords(records));
  WriteBinaryTrace(v1, records);

  EXPECT_TRUE(IsColumnarTrace(v2));
  EXPECT_FALSE(IsColumnarTrace(v1));
  EXPECT_FALSE(IsColumnarTrace(TempPath("no_such_trace.v2")));

  const auto tiny = TempPath("trace_store_tiny.v2");
  std::ofstream(tiny) << "MC";  // shorter than the magic
  EXPECT_FALSE(IsColumnarTrace(tiny));

  std::filesystem::remove(v2);
  std::filesystem::remove(v1);
  std::filesystem::remove(tiny);
}

TEST(ColumnarIo, RejectsWrongFormatAndTruncation) {
  const auto records = MixedTrace();

  // A v1 file is not a v2 file.
  const auto v1 = TempPath("trace_store_bad.v1bin");
  WriteBinaryTrace(v1, records);
  EXPECT_THROW((void)ReadColumnarTrace(v1), ParseError);
  std::filesystem::remove(v1);

  // Truncation anywhere in the column data is detected up front.
  const auto v2 = TempPath("trace_store_trunc.v2");
  WriteColumnarTrace(v2, TraceStore::FromRecords(records));
  const auto full = std::filesystem::file_size(v2);
  std::filesystem::resize_file(v2, full - 16);
  EXPECT_THROW((void)ReadColumnarTrace(v2), ParseError);
  std::filesystem::resize_file(v2, 4);  // shorter than the header
  EXPECT_THROW((void)ReadColumnarTrace(v2), ParseError);
  std::filesystem::remove(v2);
}

/// Pinned goldens: the 200 mobile / 60 PC-only user, seed-7 workload has a
/// known trace, and the analysis of it a known FullReport at a fixed τ and
/// at the valley-derived τ — through every entry point, at every thread
/// count. A change to the generator or to any §3 stage moves one of them.
TEST(EngineEquivalence, ReportsMatchPinnedGoldens) {
  workload::WorkloadConfig cfg;
  cfg.population.mobile_users = 200;
  cfg.population.pc_only_users = 60;
  cfg.seed = 7;
  const auto w = workload::WorkloadGenerator(cfg).Generate();
  ASSERT_EQ(w.trace.size(), 71565u);
  ASSERT_EQ(TraceFingerprint(std::span<const LogRecord>(w.trace)),
            0xf3cec79bf6f4119eULL);
  const auto store = TraceStore::FromRecords(w.trace);

  const struct {
    Seconds tau;
    std::uint64_t report;
  } goldens[] = {{kHour, 0xc31b1092db9bd9f0ULL},
                 {0, 0x19a0438323184cd0ULL}};  // 0 = valley-derived τ
  for (const auto& g : goldens) {
    for (const int threads : {1, 4}) {
      core::PipelineOptions o;
      o.session_tau = g.tau;
      o.threads = threads;
      const core::AnalysisPipeline pipeline(o);
      EXPECT_EQ(core::FingerprintReport(pipeline.Run(w.trace)), g.report)
          << "tau " << g.tau << ", " << threads << " threads";
      EXPECT_EQ(core::FingerprintReport(pipeline.Run(store)), g.report)
          << "tau " << g.tau << ", " << threads << " threads";
    }
  }
}

}  // namespace
}  // namespace mcloud
