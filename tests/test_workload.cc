// Tests for the workload generator: population model, session model,
// diurnal pattern, and the fast log emitter.
#include <gtest/gtest.h>

#include <algorithm>
#include <span>
#include <unordered_set>
#include <vector>

#include "trace/record_columns.h"
#include "trace/trace_store.h"
#include "workload/calibration.h"
#include "workload/diurnal.h"
#include "workload/generator.h"
#include "workload/log_emitter.h"
#include "workload/session_model.h"
#include "workload/user_model.h"

namespace mcloud::workload {
namespace {

TEST(Diurnal, NormalizedSharesAndPeak) {
  const DiurnalPattern pattern(cal::kHourOfDayWeights);
  double total = 0;
  for (int h = 0; h < 24; ++h) total += pattern.HourShare(h);
  EXPECT_NEAR(total, 1.0, 1e-12);
  EXPECT_EQ(pattern.PeakHour(), 23);  // the paper's 11 PM surge
}

TEST(Diurnal, SamplesWithinDayAndFollowWeights) {
  const DiurnalPattern pattern(cal::kHourOfDayWeights);
  Rng rng(1);
  int evening = 0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) {
    const Seconds s = pattern.SampleSecondOfDay(rng);
    ASSERT_GE(s, 0.0);
    ASSERT_LT(s, kDay);
    if (s >= 18 * kHour) ++evening;
  }
  // Hours 18-23 carry well over a third of the weight.
  EXPECT_GT(evening / static_cast<double>(n), 0.35);
}

TEST(Diurnal, RejectsBadWeights) {
  std::array<double, 24> zero{};
  EXPECT_THROW(DiurnalPattern{zero}, Error);
  std::array<double, 24> negative{};
  negative[0] = -1.0;
  EXPECT_THROW(DiurnalPattern{negative}, Error);
}

PopulationConfig SmallPopulation() {
  PopulationConfig cfg;
  cfg.mobile_users = 3000;
  cfg.pc_only_users = 1000;
  return cfg;
}

TEST(Population, SizesAndUniqueIds) {
  Rng rng(2);
  const auto users = PopulationBuilder(SmallPopulation()).Build(rng);
  EXPECT_EQ(users.size(), 4000u);

  std::unordered_set<std::uint64_t> user_ids;
  std::unordered_set<std::uint64_t> device_ids;
  std::size_t mobile = 0;
  for (const auto& u : users) {
    EXPECT_TRUE(user_ids.insert(u.user_id).second);
    for (const auto& d : u.mobile_devices)
      EXPECT_TRUE(device_ids.insert(d.device_id).second);
    if (u.IsMobileUser()) ++mobile;
  }
  EXPECT_EQ(mobile, 3000u);
}

TEST(Population, PcOnlyUsersHaveNoMobileDevices) {
  Rng rng(3);
  const auto users = PopulationBuilder(SmallPopulation()).Build(rng);
  for (const auto& u : users) {
    if (!u.IsMobileUser()) {
      EXPECT_TRUE(u.uses_pc);
      EXPECT_TRUE(u.mobile_devices.empty());
    }
  }
}

TEST(Population, AndroidShareNearConfig) {
  Rng rng(4);
  const auto users = PopulationBuilder(SmallPopulation()).Build(rng);
  std::size_t android = 0;
  std::size_t devices = 0;
  for (const auto& u : users) {
    for (const auto& d : u.mobile_devices) {
      ++devices;
      if (d.type == DeviceType::kAndroid) ++android;
    }
  }
  EXPECT_NEAR(android / static_cast<double>(devices), paper::kAndroidShare,
              0.03);
}

TEST(Population, ActivityMatchesClass) {
  Rng rng(5);
  const auto users = PopulationBuilder(SmallPopulation()).Build(rng);
  for (const auto& u : users) {
    switch (u.usage_class) {
      case paper::UserClass::kUploadOnly:
        EXPECT_GE(u.store_files, 1u);
        EXPECT_EQ(u.retrieve_files, 0u);
        break;
      case paper::UserClass::kDownloadOnly:
        EXPECT_EQ(u.store_files, 0u);
        EXPECT_GE(u.retrieve_files, 1u);
        break;
      case paper::UserClass::kMixed:
        EXPECT_GE(u.store_files, 1u);
        EXPECT_GE(u.retrieve_files, 1u);
        break;
      case paper::UserClass::kOccasional:
        EXPECT_GE(u.store_files, 1u);
        break;
    }
  }
}

TEST(Population, HeavyUsersAreEngaged) {
  Rng rng(6);
  const auto users = PopulationBuilder(SmallPopulation()).Build(rng);
  for (const auto& u : users) {
    if (u.store_files + u.retrieve_files > 25) {
      EXPECT_TRUE(u.engaged);
    }
  }
}

TEST(Population, SampleActivityAtLeastOne) {
  Rng rng(7);
  for (int i = 0; i < 1000; ++i) {
    EXPECT_GE(PopulationBuilder::SampleActivityAtLeastOne(rng, 0.018, 0.2),
              1u);
  }
}

SessionModelConfig WeekConfig() {
  SessionModelConfig cfg;
  cfg.trace_start = kTraceStart;
  cfg.days = 7;
  return cfg;
}

TEST(SessionModel, BudgetsConserved) {
  const DiurnalPattern diurnal(cal::kHourOfDayWeights);
  const SessionModel model(WeekConfig(), diurnal);
  Rng rng(8);

  UserProfile u;
  u.user_id = 1;
  u.mobile_devices = {{10, DeviceType::kAndroid}};
  u.usage_class = paper::UserClass::kMixed;
  u.store_files = 23;
  u.retrieve_files = 9;
  u.engaged = true;
  u.first_active_day = 2;

  const auto sessions = model.PlanUser(u, rng);
  std::size_t store = 0;
  std::size_t retrieve = 0;
  for (const auto& s : sessions) {
    for (const auto& op : s.ops) {
      (op.direction == Direction::kStore ? store : retrieve)++;
    }
  }
  EXPECT_EQ(store, 23u);
  EXPECT_EQ(retrieve, 9u);
}

TEST(SessionModel, SessionsWithinObservationWindowMostly) {
  // PC-sync sessions can spill a few hours past an upload, but all starts
  // stay within [start, start + days + margin).
  const DiurnalPattern diurnal(cal::kHourOfDayWeights);
  const SessionModel model(WeekConfig(), diurnal);
  Rng rng(9);
  UserProfile u;
  u.user_id = 2;
  u.mobile_devices = {{20, DeviceType::kIos}};
  u.uses_pc = true;
  u.usage_class = paper::UserClass::kUploadOnly;
  u.store_files = 40;
  u.engaged = true;
  u.first_active_day = 0;

  const auto sessions = model.PlanUser(u, rng);
  ASSERT_FALSE(sessions.empty());
  for (const auto& s : sessions) {
    EXPECT_GE(s.start, kTraceStart);
    EXPECT_LT(s.start, kTraceStart + static_cast<UnixSeconds>(8 * kDay));
  }
  // Chronological order.
  for (std::size_t i = 1; i < sessions.size(); ++i)
    EXPECT_LE(sessions[i - 1].start, sessions[i].start);
}

TEST(SessionModel, FirstActiveDayCarriesASession) {
  const DiurnalPattern diurnal(cal::kHourOfDayWeights);
  const SessionModel model(WeekConfig(), diurnal);
  for (std::uint64_t seed = 0; seed < 20; ++seed) {
    Rng rng(seed);
    UserProfile u;
    u.user_id = seed;
    u.mobile_devices = {{seed * 10 + 1, DeviceType::kAndroid}};
    u.usage_class = paper::UserClass::kUploadOnly;
    u.store_files = 5;
    u.engaged = false;
    u.first_active_day = 3;
    const auto sessions = model.PlanUser(u, rng);
    bool day3 = false;
    for (const auto& s : sessions) {
      if (DayIndex(s.start) == 3) day3 = true;
    }
    EXPECT_TRUE(day3);
  }
}

TEST(SessionModel, NonEngagedUsersHaveFewSessions) {
  const DiurnalPattern diurnal(cal::kHourOfDayWeights);
  const SessionModel model(WeekConfig(), diurnal);
  Rng rng(11);
  UserProfile u;
  u.user_id = 3;
  u.mobile_devices = {{30, DeviceType::kAndroid}};
  u.usage_class = paper::UserClass::kUploadOnly;
  u.store_files = 60;
  u.engaged = false;
  u.first_active_day = 1;
  const auto sessions = model.PlanUser(u, rng);
  EXPECT_LE(sessions.size(), 2u);
}

TEST(SessionModel, OpCountDistributionShape) {
  Rng rng(12);
  std::size_t single = 0;
  std::size_t over20 = 0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) {
    const auto ops = SessionModel::SampleOpCount(rng, Direction::kStore);
    ASSERT_GE(ops, 1u);
    if (ops == 1) ++single;
    if (ops > 20) ++over20;
  }
  EXPECT_NEAR(single / static_cast<double>(n), cal::kSingleOpShare, 0.02);
  EXPECT_NEAR(over20 / static_cast<double>(n), 0.10, 0.04);
}

TEST(SessionModel, OccasionalPayloadsSmall) {
  const DiurnalPattern diurnal(cal::kHourOfDayWeights);
  const SessionModel model(WeekConfig(), diurnal);
  Rng rng(13);
  UserProfile u;
  u.user_id = 4;
  u.mobile_devices = {{40, DeviceType::kIos}};
  u.usage_class = paper::UserClass::kOccasional;
  u.store_files = 3;
  u.first_active_day = 0;
  const auto sessions = model.PlanUser(u, rng);
  for (const auto& s : sessions) {
    for (const auto& op : s.ops) {
      EXPECT_LE(op.size, FromMB(cal::kOccasionalMaxFileMB));
    }
  }
}

TEST(SessionModel, OpsClusterAtSessionStart) {
  const DiurnalPattern diurnal(cal::kHourOfDayWeights);
  const SessionModel model(WeekConfig(), diurnal);
  Rng rng(14);
  UserProfile u;
  u.user_id = 5;
  u.mobile_devices = {{50, DeviceType::kAndroid}};
  u.usage_class = paper::UserClass::kUploadOnly;
  u.store_files = 30;
  u.engaged = false;
  u.first_active_day = 0;
  const auto sessions = model.PlanUser(u, rng);
  for (const auto& s : sessions) {
    if (s.ops.size() < 20) continue;
    // Batch sessions issue everything within a couple of minutes.
    EXPECT_LT(s.ops.back().offset, 3 * kMinute);
    for (std::size_t i = 1; i < s.ops.size(); ++i)
      EXPECT_GE(s.ops[i].offset, s.ops[i - 1].offset);
  }
}

TEST(SessionPlan, TypeClassification) {
  SessionPlan s;
  FileOp store;
  store.direction = Direction::kStore;
  FileOp retrieve;
  retrieve.direction = Direction::kRetrieve;
  s.ops = {store};
  EXPECT_EQ(s.Type(), SessionType::kStoreOnly);
  s.ops = {retrieve};
  EXPECT_EQ(s.Type(), SessionType::kRetrieveOnly);
  s.ops = {store, retrieve};
  EXPECT_EQ(s.Type(), SessionType::kMixed);
}

TEST(LogEmitter, EmitsFileOpsAndChunks) {
  SessionPlan s;
  s.user_id = 1;
  s.device_id = 2;
  s.device_type = DeviceType::kAndroid;
  s.start = kTraceStart;
  FileOp op;
  op.direction = Direction::kStore;
  op.size = kChunkSize * 2 + 1000;  // 3 chunks
  op.offset = 0;
  s.ops.push_back(op);

  Rng rng(15);
  std::vector<LogRecord> out;
  FastLogEmitter().EmitSession(s, rng, out);
  ASSERT_EQ(out.size(), 4u);  // 1 file op + 3 chunk requests
  EXPECT_EQ(out[0].request_type, RequestType::kFileOperation);
  Bytes volume = 0;
  for (std::size_t i = 1; i < out.size(); ++i) {
    EXPECT_EQ(out[i].request_type, RequestType::kChunkRequest);
    volume += out[i].data_volume;
    EXPECT_GT(out[i].processing_time, out[i].server_time);
  }
  EXPECT_EQ(volume, op.size);
}

TEST(LogEmitter, ChunkTimestampsFollowOps) {
  SessionPlan s;
  s.user_id = 1;
  s.device_id = 2;
  s.device_type = DeviceType::kIos;
  s.start = kTraceStart;
  for (int i = 0; i < 3; ++i) {
    FileOp op;
    op.direction = Direction::kStore;
    op.size = kMiB;
    op.offset = i * 2.0;
    s.ops.push_back(op);
  }
  Rng rng(16);
  std::vector<LogRecord> out;
  FastLogEmitter().EmitSession(s, rng, out);
  for (const auto& r : out) {
    EXPECT_GE(r.timestamp, s.start);
    EXPECT_LT(r.timestamp, s.start + 7200);
  }
}

TEST(LogEmitter, ThroughputOrdering) {
  // Android uplink is the slowest; PC is the fastest (Fig 12 calibration).
  EXPECT_LT(FastLogEmitter::BaseThroughput(DeviceType::kAndroid,
                                           Direction::kStore),
            FastLogEmitter::BaseThroughput(DeviceType::kIos,
                                           Direction::kStore));
  EXPECT_LT(FastLogEmitter::BaseThroughput(DeviceType::kIos,
                                           Direction::kStore),
            FastLogEmitter::BaseThroughput(DeviceType::kPc,
                                           Direction::kStore));
}

TEST(LogEmitter, ColumnarMatchesScalarFieldExact) {
  // The fast path (batched normals, SoA output) must reproduce the scalar
  // emitter bit for bit — every field, every record, same RNG stream out.
  const DiurnalPattern diurnal(cal::kHourOfDayWeights);
  const SessionModel model(WeekConfig(), diurnal);
  Rng plan_rng(77);
  const FastLogEmitter emitter;
  EmitScratch scratch;
  std::size_t sessions_checked = 0;
  for (int u = 0; u < 40; ++u) {
    UserProfile profile;
    profile.user_id = 1000 + static_cast<std::uint64_t>(u);
    profile.mobile_devices = {{profile.user_id * 2, u % 2 == 0
                                                        ? DeviceType::kAndroid
                                                        : DeviceType::kIos}};
    profile.uses_pc = u % 3 == 0;
    profile.usage_class = u % 4 == 0 ? paper::UserClass::kOccasional
                                     : paper::UserClass::kMixed;
    profile.store_files = 1 + static_cast<std::uint64_t>(u) % 40;
    profile.retrieve_files = static_cast<std::uint64_t>(u) % 13;
    profile.engaged = u % 2 == 1;
    profile.first_active_day = u % 5;
    for (const SessionPlan& s : model.PlanUser(profile, plan_rng)) {
      Rng scalar_rng(500 + sessions_checked);
      Rng columnar_rng(500 + sessions_checked);
      std::vector<LogRecord> want;
      emitter.EmitSession(s, scalar_rng, want);
      RecordColumns cols;
      emitter.EmitSessionColumnar(s, columnar_rng, cols, scratch);
      ASSERT_EQ(cols.size(), want.size());
      for (std::size_t i = 0; i < want.size(); ++i) {
        const LogRecord got = cols.RecordAt(i);
        ASSERT_EQ(got.timestamp, want[i].timestamp);
        ASSERT_EQ(got.device_type, want[i].device_type);
        ASSERT_EQ(got.device_id, want[i].device_id);
        ASSERT_EQ(got.user_id, want[i].user_id);
        ASSERT_EQ(got.request_type, want[i].request_type);
        ASSERT_EQ(got.direction, want[i].direction);
        ASSERT_EQ(got.data_volume, want[i].data_volume);
        ASSERT_EQ(got.processing_time, want[i].processing_time);  // bit-exact
        ASSERT_EQ(got.server_time, want[i].server_time);
        ASSERT_EQ(got.avg_rtt, want[i].avg_rtt);
        ASSERT_EQ(got.proxied, want[i].proxied);
      }
      // Both paths consumed the engine identically.
      ASSERT_EQ(scalar_rng.NextU64(), columnar_rng.NextU64());
      ++sessions_checked;
    }
  }
  EXPECT_GT(sessions_checked, 100u);
}

TEST(SessionModel, PlanUserIntoMatchesPlanUser) {
  // Pooled planning must replicate the allocating path draw for draw,
  // including the final chronological order, across reused scratch state.
  const DiurnalPattern diurnal(cal::kHourOfDayWeights);
  const SessionModel model(WeekConfig(), diurnal);
  PlanScratch scratch;
  for (int u = 0; u < 60; ++u) {
    UserProfile profile;
    profile.user_id = 5000 + static_cast<std::uint64_t>(u);
    profile.mobile_devices = {{profile.user_id * 2, DeviceType::kAndroid}};
    profile.uses_pc = u % 2 == 0;
    profile.usage_class =
        u % 3 == 0 ? paper::UserClass::kOccasional : paper::UserClass::kMixed;
    profile.store_files = 1 + static_cast<std::uint64_t>(u * 7) % 60;
    profile.retrieve_files = static_cast<std::uint64_t>(u * 3) % 20;
    profile.engaged = u % 2 == 0;
    profile.first_active_day = u % 6;

    Rng rng_a(900 + u);
    Rng rng_b(900 + u);
    const std::vector<SessionPlan> want = model.PlanUser(profile, rng_a);
    model.PlanUserInto(profile, rng_b, scratch);  // scratch reused across users
    const std::span<const SessionPlan> got = scratch.sessions();
    ASSERT_EQ(got.size(), want.size());
    for (std::size_t i = 0; i < want.size(); ++i) {
      ASSERT_EQ(got[i].user_id, want[i].user_id);
      ASSERT_EQ(got[i].device_id, want[i].device_id);
      ASSERT_EQ(got[i].device_type, want[i].device_type);
      ASSERT_EQ(got[i].start, want[i].start);
      ASSERT_EQ(got[i].ops.size(), want[i].ops.size());
      for (std::size_t k = 0; k < want[i].ops.size(); ++k) {
        ASSERT_EQ(got[i].ops[k].direction, want[i].ops[k].direction);
        ASSERT_EQ(got[i].ops[k].size, want[i].ops[k].size);
        ASSERT_EQ(got[i].ops[k].offset, want[i].ops[k].offset);  // bit-exact
      }
    }
    ASSERT_EQ(rng_a.NextU64(), rng_b.NextU64());
  }
}

TEST(Generator, ColumnarAndRecordFormsMatchPinnedGolden) {
  // GenerateColumnar's store holds a known trace, and Generate() returns
  // exactly its records, with the same users and plans.
  WorkloadConfig cfg;
  cfg.population.mobile_users = 150;
  cfg.population.pc_only_users = 50;
  cfg.seed = 7;
  const ColumnarWorkload cw = WorkloadGenerator(cfg).GenerateColumnar();
  ASSERT_EQ(cw.trace.rows(), 47402u);
  EXPECT_EQ(TraceFingerprint(cw.trace), 0xc7f4b628ced7e9faULL);
  const auto w = WorkloadGenerator(cfg).Generate();
  EXPECT_EQ(w.trace, cw.trace.ToRecords());
  EXPECT_EQ(w.users.size(), cw.users.size());
  EXPECT_EQ(w.sessions.size(), cw.sessions.size());
}

TEST(Generator, MatchesScalarReferencePath) {
  // The fast path (pooled planning, batched columnar emission, one global
  // radix sort on the pool) must emit exactly the trace of the plain
  // composition it replaced: the population, then per user an independent
  // Rng::ForStream(session_root, id) stream through PlanUser + the scalar
  // EmitSession, then one std::stable_sort by LogRecordTimeOrder.
  WorkloadConfig cfg;
  cfg.population.mobile_users = 240;
  cfg.population.pc_only_users = 80;
  cfg.seed = 31;

  Rng rng(cfg.seed);
  const std::vector<UserProfile> users =
      PopulationBuilder(cfg.population, cfg.model).Build(rng);
  const std::uint64_t session_root = rng.NextU64();
  SessionModelConfig smc;
  smc.trace_start = cfg.trace_start;
  smc.days = cfg.population.days;
  smc.model = cfg.model;
  const DiurnalPattern diurnal(cfg.model.hour_weights);
  const SessionModel model(smc, diurnal);
  const FastLogEmitter emitter;
  std::vector<LogRecord> want;
  std::size_t sessions = 0;
  for (const UserProfile& user : users) {
    Rng user_rng = Rng::ForStream(session_root, user.user_id);
    for (const SessionPlan& s : model.PlanUser(user, user_rng)) {
      emitter.EmitSession(s, user_rng, want);
      ++sessions;
    }
  }
  std::stable_sort(want.begin(), want.end(), LogRecordTimeOrder);
  ASSERT_FALSE(want.empty());

  for (const int threads : {1, 4}) {
    cfg.threads = threads;
    const Workload w = WorkloadGenerator(cfg).Generate();
    EXPECT_EQ(w.users.size(), users.size()) << threads << " threads";
    EXPECT_EQ(w.sessions.size(), sessions) << threads << " threads";
    EXPECT_EQ(w.trace, want) << threads << " threads";
  }
}

TEST(Generator, DeterministicForSeed) {
  WorkloadConfig cfg;
  cfg.population.mobile_users = 200;
  cfg.population.pc_only_users = 50;
  cfg.seed = 99;
  const auto a = WorkloadGenerator(cfg).Generate();
  const auto b = WorkloadGenerator(cfg).Generate();
  ASSERT_EQ(a.trace.size(), b.trace.size());
  for (std::size_t i = 0; i < a.trace.size(); ++i)
    ASSERT_EQ(a.trace[i], b.trace[i]);
}

TEST(Generator, DifferentSeedsDiffer) {
  WorkloadConfig cfg;
  cfg.population.mobile_users = 200;
  cfg.population.pc_only_users = 0;
  cfg.seed = 1;
  const auto a = WorkloadGenerator(cfg).Generate();
  cfg.seed = 2;
  const auto b = WorkloadGenerator(cfg).Generate();
  EXPECT_TRUE(a.trace.size() != b.trace.size() || a.trace != b.trace);
}

TEST(Generator, TraceSortedAndConsistent) {
  WorkloadConfig cfg;
  cfg.population.mobile_users = 300;
  cfg.population.pc_only_users = 100;
  const auto w = WorkloadGenerator(cfg).Generate();
  ASSERT_FALSE(w.trace.empty());
  for (std::size_t i = 1; i < w.trace.size(); ++i)
    EXPECT_LE(w.trace[i - 1].timestamp, w.trace[i].timestamp);
  // Plans-only mode produces the same sessions and no logs.
  const auto plans = WorkloadGenerator(cfg).GeneratePlansOnly();
  EXPECT_EQ(plans.sessions.size(), w.sessions.size());
  EXPECT_TRUE(plans.trace.empty());
}

// Property sweep over seeds: structural invariants of generated workloads.
class GeneratorSeedSweep : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(GeneratorSeedSweep, StructuralInvariants) {
  WorkloadConfig cfg;
  cfg.population.mobile_users = 400;
  cfg.population.pc_only_users = 100;
  cfg.seed = GetParam();
  const auto w = WorkloadGenerator(cfg).Generate();

  for (const auto& r : w.trace) {
    // Chunk payloads never exceed the protocol chunk size.
    if (r.request_type == RequestType::kChunkRequest) {
      EXPECT_GT(r.data_volume, 0u);
      EXPECT_LE(r.data_volume, kChunkSize);
    } else {
      EXPECT_EQ(r.data_volume, 0u);
    }
    EXPECT_GT(r.avg_rtt, 0.0);
    EXPECT_GE(r.processing_time, r.server_time);
  }
  for (const auto& s : w.sessions) EXPECT_FALSE(s.ops.empty());
}

INSTANTIATE_TEST_SUITE_P(Seeds, GeneratorSeedSweep,
                         ::testing::Values(1ULL, 7ULL, 42ULL, 1000003ULL));

}  // namespace
}  // namespace mcloud::workload
