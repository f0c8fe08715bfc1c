// Tests for the trace layer: record serialization, CSV/binary IO, filters,
// anonymization, the CSV tokenizer, and the columnar time-order sort.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <span>
#include <vector>

#include "trace/anonymizer.h"
#include "trace/filters.h"
#include "trace/log_io.h"
#include "trace/log_record.h"
#include "trace/partitioned_trace.h"
#include "trace/record_columns.h"
#include "util/csv.h"
#include "util/parallel.h"
#include "util/rng.h"
#include "util/timeutil.h"

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

TEST(LogRecord, EnumStringsRoundTrip) {
  for (auto d : {DeviceType::kAndroid, DeviceType::kIos, DeviceType::kPc}) {
    EXPECT_EQ(DeviceTypeFromString(ToString(d)), d);
  }
  for (auto t : {RequestType::kFileOperation, RequestType::kChunkRequest}) {
    EXPECT_EQ(RequestTypeFromString(ToString(t)), t);
  }
  for (auto d : {Direction::kStore, Direction::kRetrieve}) {
    EXPECT_EQ(DirectionFromString(ToString(d)), d);
  }
  EXPECT_THROW((void)DeviceTypeFromString("blackberry"), ParseError);
  EXPECT_THROW((void)RequestTypeFromString(""), ParseError);
  EXPECT_THROW((void)DirectionFromString("up"), ParseError);
}

TEST(LogRecord, IsMobile) {
  EXPECT_TRUE(MakeRecord(0, 1, Direction::kStore).IsMobile());
  EXPECT_FALSE(MakeRecord(0, 1, Direction::kStore,
                          RequestType::kChunkRequest, DeviceType::kPc)
                   .IsMobile());
}

TEST(Csv, SplitAndJoin) {
  const auto fields = SplitCsvLine("a,b,,d");
  ASSERT_EQ(fields.size(), 4u);
  EXPECT_EQ(fields[0], "a");
  EXPECT_EQ(fields[2], "");
  EXPECT_EQ(JoinCsvLine({"a", "b", "", "d"}), "a,b,,d");
  EXPECT_THROW((void)JoinCsvLine({"a,b"}), ParseError);
}

TEST(Csv, ParseHelpers) {
  EXPECT_EQ(ParseInt64("-42", "x"), -42);
  EXPECT_EQ(ParseUint64("42", "x"), 42u);
  EXPECT_DOUBLE_EQ(ParseDouble("2.5", "x"), 2.5);
  EXPECT_THROW((void)ParseInt64("4x", "x"), ParseError);
  EXPECT_THROW((void)ParseUint64("-1", "x"), ParseError);
  EXPECT_THROW((void)ParseDouble("", "x"), ParseError);
}

TEST(LogIo, CsvLineRoundTrip) {
  const LogRecord r = MakeRecord(kTraceStart + 5, 7, Direction::kRetrieve);
  const LogRecord back = FromCsvLine(ToCsvLine(r));
  EXPECT_EQ(back, r);
}

TEST(LogIo, CsvLineRejectsBadFieldCount) {
  EXPECT_THROW((void)FromCsvLine("1,2,3"), ParseError);
}

TEST(LogIo, CsvFileRoundTrip) {
  std::vector<LogRecord> records;
  for (int i = 0; i < 100; ++i) {
    records.push_back(MakeRecord(kTraceStart + i, i % 7 + 1,
                                 i % 2 ? Direction::kStore
                                       : Direction::kRetrieve));
  }
  const auto path = TempPath("mcloud_test_trace.csv");
  WriteCsvTrace(path, records);
  const auto back = ReadCsvTrace(path);
  EXPECT_EQ(back, records);
  std::filesystem::remove(path);
}

TEST(LogIo, CsvHeaderValidated) {
  const auto path = TempPath("mcloud_bad_header.csv");
  {
    std::FILE* f = std::fopen(path.c_str(), "w");
    std::fputs("not,a,header\n", f);
    std::fclose(f);
  }
  EXPECT_THROW((void)ReadCsvTrace(path), ParseError);
  std::filesystem::remove(path);
}

TEST(LogIo, BinaryFileRoundTrip) {
  std::vector<LogRecord> records;
  Rng rng(3);
  for (int i = 0; i < 1000; ++i) {
    LogRecord r = MakeRecord(kTraceStart + i, rng.UniformInt(50) + 1,
                             Direction::kStore);
    r.proxied = rng.Bernoulli(0.1);
    r.avg_rtt = rng.Uniform(0.01, 2.0);
    records.push_back(r);
  }
  const auto path = TempPath("mcloud_test_trace.bin");
  WriteBinaryTrace(path, records);
  const auto back = ReadBinaryTrace(path);
  ASSERT_EQ(back.size(), records.size());
  for (std::size_t i = 0; i < records.size(); ++i) {
    EXPECT_EQ(back[i].timestamp, records[i].timestamp);
    EXPECT_EQ(back[i].user_id, records[i].user_id);
    EXPECT_NEAR(back[i].avg_rtt, records[i].avg_rtt, 1e-6);
  }
  std::filesystem::remove(path);
}

TEST(LogIo, BinaryRejectsGarbage) {
  const auto path = TempPath("mcloud_garbage.bin");
  {
    std::FILE* f = std::fopen(path.c_str(), "wb");
    std::fputs("garbage!", f);
    std::fclose(f);
  }
  EXPECT_THROW((void)ReadBinaryTrace(path), ParseError);
  std::filesystem::remove(path);
}

TEST(LogIo, ScanStopsEarly) {
  std::vector<LogRecord> records;
  for (int i = 0; i < 50; ++i)
    records.push_back(MakeRecord(kTraceStart + i, 1, Direction::kStore));
  const auto path = TempPath("mcloud_scan.bin");
  WriteBinaryTrace(path, records);
  std::size_t seen = 0;
  const std::size_t visited = ScanBinaryTrace(path, [&](const LogRecord&) {
    ++seen;
    return seen < 10;
  });
  EXPECT_EQ(seen, 10u);
  EXPECT_EQ(visited, 10u);
  std::filesystem::remove(path);
}

TEST(Filters, SliceByDeviceProxyAndType) {
  std::vector<LogRecord> trace;
  trace.push_back(MakeRecord(1, 1, Direction::kStore,
                             RequestType::kFileOperation));
  trace.push_back(MakeRecord(2, 1, Direction::kStore));
  LogRecord pc = MakeRecord(3, 2, Direction::kRetrieve,
                            RequestType::kChunkRequest, DeviceType::kPc);
  trace.push_back(pc);
  LogRecord proxied = MakeRecord(4, 3, Direction::kStore);
  proxied.proxied = true;
  trace.push_back(proxied);

  EXPECT_EQ(MobileOnly(trace).size(), 3u);
  EXPECT_EQ(Filter(trace, [](const LogRecord& r) { return !r.proxied; })
                .size(),
            3u);
}

TEST(Anonymizer, DeterministicAndKeyDependent) {
  const Anonymizer a("key-1");
  const Anonymizer b("key-2");
  EXPECT_EQ(a.MapId(42), a.MapId(42));
  EXPECT_NE(a.MapId(42), a.MapId(43));
  EXPECT_NE(a.MapId(42), b.MapId(42));
}

TEST(Anonymizer, PreservesJoins) {
  // Two records of the same user must map to the same pseudonym, so joins
  // across traces survive anonymization.
  const Anonymizer anon("secret");
  const LogRecord r1 = MakeRecord(1, 7, Direction::kStore);
  const LogRecord r2 = MakeRecord(2, 7, Direction::kRetrieve);
  const LogRecord a1 = anon.Apply(r1);
  const LogRecord a2 = anon.Apply(r2);
  EXPECT_EQ(a1.user_id, a2.user_id);
  EXPECT_NE(a1.user_id, r1.user_id);
  // Non-ID fields are untouched.
  EXPECT_EQ(a1.timestamp, r1.timestamp);
  EXPECT_EQ(a1.data_volume, r1.data_volume);
}

TEST(Timeutil, DayAndHourIndexing) {
  EXPECT_EQ(DayIndex(kTraceStart), 0);
  EXPECT_EQ(DayIndex(kTraceStart + 86399), 0);
  EXPECT_EQ(DayIndex(kTraceStart + 86400), 1);
  EXPECT_EQ(HourIndex(kTraceStart + 3600 * 30), 30);
  EXPECT_EQ(HourOfDay(kTraceStart + 3600 * 30), 6);
  EXPECT_EQ(DayLabel(0), "Mon");
  EXPECT_EQ(DayLabel(6), "Sun");
  EXPECT_EQ(DayLabel(7), "Mon");
  EXPECT_EQ(TimestampLabel(kTraceStart + kDay + 3661), "Tue 01:01:01");
}

// ------------------------------------------------------- PartitionedTrace

/// Deterministic emission spanning `days` calendar days with heavy
/// timestamp collisions, in generator order (user-major). data_volume is a
/// serial number so merge stability is observable on otherwise-equal keys.
std::vector<LogRecord> MakeEmission(std::size_t n, int days) {
  std::vector<LogRecord> all;
  Rng rng(99);
  for (std::size_t i = 0; i < n; ++i) {
    const std::uint64_t user = i * 40 / n + 1;  // user-ordered chunks
    const auto ts = kTraceStart +
                    static_cast<UnixSeconds>(rng.UniformInt(
                        static_cast<std::uint64_t>(days) * kDay / 16)) *
                        16;
    LogRecord r = MakeRecord(ts, user, Direction::kStore);
    r.device_type = static_cast<DeviceType>(i % 3);
    r.device_id = user * 10 + i % 2;
    r.data_volume = i;
    all.push_back(r);
  }
  return all;
}

/// Split `all` into `spills` contiguous slices, stable-sort each, and
/// write them as a partitioned trace — exactly the generator's spill
/// discipline.
void WritePartitioned(const std::filesystem::path& dir,
                      std::vector<LogRecord> all, std::size_t spills) {
  std::filesystem::create_directories(dir);
  PartitionedTraceWriter writer(dir, kTraceStart);
  const std::size_t per = (all.size() + spills - 1) / spills;
  for (std::size_t s = 0; s < spills; ++s) {
    const std::size_t begin = std::min(s * per, all.size());
    const std::size_t end = std::min(begin + per, all.size());
    std::stable_sort(all.begin() + static_cast<std::ptrdiff_t>(begin),
                     all.begin() + static_cast<std::ptrdiff_t>(end),
                     LogRecordTimeOrder);
    writer.WriteSortedSlice(
        std::span<const LogRecord>(all.data() + begin, end - begin));
  }
  writer.Finish();
}

TEST(PartitionedTrace, ScanMatchesStableSortOfEmission) {
  const auto dir = TempPath("mcloud_part_roundtrip");
  std::filesystem::remove_all(dir);
  std::vector<LogRecord> all = MakeEmission(18'000, 3);
  WritePartitioned(dir, all, 4);

  const PartitionedTrace trace = PartitionedTrace::Open(dir);
  EXPECT_EQ(trace.rows(), all.size());
  EXPECT_GT(trace.run_count(), 4u);  // every spill split across 3 days

  // Small staging budget: forces several blocks per day and tiny per-run
  // read buffers, which must not change the merged order.
  std::vector<LogRecord> merged;
  std::int64_t last_day = -1;
  trace.Scan(8'192, [&](std::int64_t day, const TraceRowBlock& b) {
    EXPECT_GE(day, last_day);
    last_day = day;
    for (std::size_t i = 0; i < b.rows(); ++i) {
      LogRecord r;
      r.timestamp = b.timestamps[i];
      r.device_type = static_cast<DeviceType>(b.device_types[i]);
      r.device_id = b.device_ids[i];
      r.user_id = trace.user_ids()[b.users[i]];
      r.request_type = static_cast<RequestType>(b.request_types[i]);
      r.direction = static_cast<Direction>(b.directions[i]);
      r.data_volume = b.data_volumes[i];
      merged.push_back(r);
      EXPECT_EQ(day, DayIndex(r.timestamp));
    }
  });

  std::stable_sort(all.begin(), all.end(), LogRecordTimeOrder);
  ASSERT_EQ(merged.size(), all.size());
  for (std::size_t i = 0; i < all.size(); ++i) {
    EXPECT_EQ(merged[i].timestamp, all[i].timestamp) << "at " << i;
    EXPECT_EQ(merged[i].user_id, all[i].user_id) << "at " << i;
    EXPECT_EQ(merged[i].device_id, all[i].device_id) << "at " << i;
    // The serial number: proves cross-run ties kept emission order.
    EXPECT_EQ(merged[i].data_volume, all[i].data_volume) << "at " << i;
  }
  std::filesystem::remove_all(dir);
}

std::filesystem::path FirstRunFile(const std::filesystem::path& dir) {
  std::vector<std::filesystem::path> runs;
  for (const auto& e : std::filesystem::directory_iterator(dir))
    if (e.path().extension() == ".v2") runs.push_back(e.path());
  std::sort(runs.begin(), runs.end());
  EXPECT_FALSE(runs.empty());
  return runs.front();
}

TEST(PartitionedTrace, OpenRejectsMissingRunFile) {
  const auto dir = TempPath("mcloud_part_missing");
  std::filesystem::remove_all(dir);
  WritePartitioned(dir, MakeEmission(2'000, 2), 2);
  std::filesystem::remove(FirstRunFile(dir));
  EXPECT_THROW((void)PartitionedTrace::Open(dir), ParseError);
  std::filesystem::remove_all(dir);
}

TEST(PartitionedTrace, OpenRejectsTruncatedRunFile) {
  const auto dir = TempPath("mcloud_part_truncated");
  std::filesystem::remove_all(dir);
  WritePartitioned(dir, MakeEmission(2'000, 2), 2);
  const auto run = FirstRunFile(dir);
  // Header and user table intact, column payload short: exactly the
  // failure mode a killed spill leaves behind.
  std::filesystem::resize_file(run, std::filesystem::file_size(run) - 9);
  EXPECT_THROW((void)PartitionedTrace::Open(dir), ParseError);
  std::filesystem::remove_all(dir);
}

TEST(PartitionedTrace, OpenRejectsManifestWithoutEndSentinel) {
  const auto dir = TempPath("mcloud_part_noend");
  std::filesystem::remove_all(dir);
  WritePartitioned(dir, MakeEmission(2'000, 2), 2);
  std::string manifest;
  {
    std::ifstream in(dir / "MANIFEST");
    std::string line;
    while (std::getline(in, line))
      if (line != "end") manifest += line + "\n";
  }
  std::ofstream(dir / "MANIFEST", std::ios::trunc) << manifest;
  EXPECT_THROW((void)PartitionedTrace::Open(dir), ParseError);
  std::filesystem::remove_all(dir);
}

TEST(PartitionedTrace, OpenRejectsRunRowCountMismatch) {
  const auto dir = TempPath("mcloud_part_rows");
  std::filesystem::remove_all(dir);
  WritePartitioned(dir, MakeEmission(2'000, 2), 2);
  std::string manifest;
  {
    std::ifstream in(dir / "MANIFEST");
    std::string line;
    bool bumped = false;
    while (std::getline(in, line)) {
      if (!bumped && line.rfind("run ", 0) == 0) {
        // Bump the row count of the first run entry.
        const auto last_space = line.find_last_of(' ');
        auto prev_space = line.find_last_of(' ', last_space - 1);
        const std::uint64_t rows =
            std::strtoull(line.c_str() + prev_space + 1, nullptr, 10);
        line = line.substr(0, prev_space + 1) + std::to_string(rows + 1) +
               line.substr(last_space);
        bumped = true;
      }
      manifest += line + "\n";
    }
    EXPECT_TRUE(bumped);
  }
  std::ofstream(dir / "MANIFEST", std::ios::trunc) << manifest;
  EXPECT_THROW((void)PartitionedTrace::Open(dir), ParseError);
  std::filesystem::remove_all(dir);
}

TEST(LogIo, V2FileInfoValidatesFullExpectedLength) {
  // Regression: a v2 file whose header and user table parse cleanly but
  // whose column payload is short must fail at ReadV2FileInfo — the
  // single truncation gate every partitioned-run open goes through.
  const auto path = TempPath("mcloud_v2_truncation.v2");
  std::vector<LogRecord> records;
  for (int i = 0; i < 500; ++i)
    records.push_back(MakeRecord(kTraceStart + i, 1 + i % 7,
                                 Direction::kStore));
  WriteColumnarTrace(path, TraceStore::FromRecords(records));

  const detail::V2FileInfo info = detail::ReadV2FileInfo(path);
  EXPECT_EQ(info.rows, 500u);

  std::filesystem::resize_file(path, std::filesystem::file_size(path) - 1);
  EXPECT_THROW((void)detail::ReadV2FileInfo(path), ParseError);
  std::filesystem::remove(path);
}

/// Shuffled records with ties at every key level, in `runs` user-ordered
/// runs as the generator's shards emit them.
std::vector<RecordColumns> TieHeavyRuns(std::size_t n, std::size_t runs) {
  Rng rng(41);
  std::vector<RecordColumns> out(runs);
  for (std::size_t i = 0; i < n; ++i) {
    LogRecord r = MakeRecord(
        1404172800 + static_cast<UnixSeconds>(rng.UniformInt(5000)),
        rng.UniformInt(400), rng.Bernoulli(0.5) ? Direction::kStore
                                                : Direction::kRetrieve);
    r.device_id = rng.UniformInt(3);
    r.data_volume = i;  // row identity, so a misplaced tie shows
    r.processing_time = static_cast<double>(i % 1000) * 0.25;
    out[i * runs / n].Append(r);
  }
  return out;
}

TEST(RecordColumns, SortByTimeOrderIsIdenticalWithAndWithoutAPool) {
  // Above the parallel cutoff, and not a multiple of any pool size used.
  const std::size_t n = 3 * StableRadixSorter::kParallelMinN + 7;
  std::vector<RecordColumns> runs = TieHeavyRuns(n, 3);
  RecordColumns want;
  for (const RecordColumns& run : runs) want.AppendCopy(run);
  std::vector<LogRecord> records;
  for (std::size_t i = 0; i < want.size(); ++i)
    records.push_back(want.RecordAt(i));
  RecordColumnsScratch scratch;
  const std::span<const std::uint32_t> serial = want.TimeOrderPerm(scratch);
  const std::vector<std::uint32_t> perm(serial.begin(), serial.end());
  want.SortByTimeOrder(scratch);
  std::stable_sort(records.begin(), records.end(), LogRecordTimeOrder);
  ASSERT_EQ(TraceFingerprint(want), TraceFingerprint(records));

  for (const int threads : {1, 2, 3, 4, 7}) {
    ThreadPool pool(threads);
    std::vector<RecordColumns> copies = runs;
    RecordColumns got;
    got.AppendAll(copies, &pool);
    for (const RecordColumns& run : copies) EXPECT_TRUE(run.empty());
    EXPECT_TRUE(std::ranges::equal(got.TimeOrderPerm(scratch, &pool), perm))
        << threads << " threads";
    got.SortByTimeOrder(scratch, &pool);
    EXPECT_EQ(got.timestamps, want.timestamps) << threads << " threads";
    EXPECT_EQ(got.device_types, want.device_types);
    EXPECT_EQ(got.device_ids, want.device_ids);
    EXPECT_EQ(got.user_ids, want.user_ids);
    EXPECT_EQ(got.request_types, want.request_types);
    EXPECT_EQ(got.directions, want.directions);
    EXPECT_EQ(got.data_volumes, want.data_volumes);
    EXPECT_EQ(got.processing_times, want.processing_times);
    EXPECT_EQ(got.server_times, want.server_times);
    EXPECT_EQ(got.avg_rtts, want.avg_rtts);
    EXPECT_EQ(got.proxied, want.proxied);
  }
}

}  // namespace
}  // namespace mcloud
