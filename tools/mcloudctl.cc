// mcloudctl — command-line front door to the mcloud library.
//
//   mcloudctl generate  --users N [--pc N] [--seed S] [--threads N]
//                       [--anonymize KEY] [--faults] [--fail-rate R]
//                       [--loss-burst R] [--degraded R] [--hedge]
//                       [--out-of-core [--max-memory-mb M]] OUT
//   mcloudctl grow      --users N [--pc N] [--seed S] [--threads N]
//                       [--tau SECONDS] [--max-memory-mb M]
//                       [--analyze-while-generate] OUT
//   mcloudctl analyze   TRACE [--tau SECONDS|auto] [--threads N]
//                       [--max-memory-mb M]
//   mcloudctl sessions  TRACE [--tau SECONDS] [--top N]
//   mcloudctl convert   IN OUT
//   mcloudctl anonymize IN OUT --key KEY
//   mcloudctl simulate  [--device android|ios|pc] [--direction store|retrieve]
//                       [--file-mb N] [--seed S] [--no-ssai] [--pace]
//   mcloudctl simulate  --fail-rate R [--loss-burst R] [--degraded R]
//                       [--hedge] [--no-retry] [--users N] [--seed S]
//                       [--threads N] [--shards K]
//   mcloudctl validate  [--users N] [--seed S] [--seeds K] [--threads N]
//                       [--flows N] [--shards K] [--json FILE]
//                       [--out-of-core | --concurrent] [--max-memory-mb M]
//                       [--spill-dir D] [--spec NAME] [--specs-dir D]
//   mcloudctl specs     [--specs-dir D]
//   mcloudctl conform   SPEC [--users N] [--seed S] [--threads N]
//                       [--out-of-core [--spill-dir D]] [--json FILE]
//   mcloudctl matrix    SPEC... [--grids A,B] [--connections A,B]
//                       [--chunks A,B] [--users N] [--seed S] [--threads N]
//                       [--shards K] [--json FILE]
//   mcloudctl help
//
// The scenario lab (DESIGN.md §13): `specs` lists the declarative workload
// specs shipped in specs/; `generate --spec` / `validate --spec` compile a
// spec into the generator instead of the default calibration; `conform`
// checks a spec against its own declared [targets]; `matrix` sweeps
// spec × fault grid × connection strategy × chunk policy through the
// sharded fleet and emits one JSON report whose per-cell fingerprints are
// byte-identical at every --threads.
//
// Trace files are CSV (.csv), the columnar v2 binary format (.v2), or the
// row-wise v1 binary format (anything else); writes pick the format by
// extension, reads additionally sniff the v2 magic so a columnar file is
// recognized under any name. `analyze` runs the full §3 pipeline and prints
// the findings report — on a columnar trace it loads only the analysis
// columns and never materializes row structs; `simulate` runs one chunked
// transfer through the TCP substrate and prints its per-chunk timeline, or —
// when any fault knob is given — a whole session fleet against the
// fault-injected service, printing the availability report.
//
// Out-of-core mode: `generate --out-of-core OUT` writes a *partitioned
// trace directory* (per-day sorted run files + MANIFEST, see
// trace/partitioned_trace.h) under a bounded emission buffer, and `analyze`
// and `validate` stream such a directory back (AnalysisPipeline::
// RunStreaming) — same reports/fingerprints as the resident paths, at any
// --max-memory-mb. The session gap alone decides how often the rows are
// read: once at a fixed --tau, twice at --tau auto (the Fig 3 valley must
// be known before sessionization starts).
//
// Online mode: `grow OUT` generates a partitioned trace *and* produces the
// findings report in one command — two-phase by default (spill, then one
// streaming walk), or fully overlapped with --analyze-while-generate (each
// sealed spill slice is analyzed while the next one is generated; see
// AnalysisPipeline::RunConcurrent). `analyze` and `grow` print the stage
// timing block with the sketch footprint on stderr; `validate --concurrent`
// validates through the overlapped pipeline and fingerprints identically
// to the resident run.
#include <algorithm>
#include <cctype>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <optional>
#include <set>
#include <string>
#include <vector>

#include "analysis/availability.h"
#include "analysis/sessionizer.h"
#include "cloud/fleet.h"
#include "cloud/storage_service.h"
#include "core/pipeline.h"
#include "trace/anonymizer.h"
#include "trace/log_io.h"
#include "trace/record_columns.h"
#include "scenario/conformance.h"
#include "scenario/matrix.h"
#include "scenario/workload_spec.h"
#include "trace/partitioned_trace.h"
#include "validate/validator.h"
#include "workload/generator.h"

#include "cli_args.h"

namespace {

using namespace mcloud;

using cli::Args;
using cli::InvalidFlag;

/// Shared fault-flag parsing for `generate --faults` and fleet `simulate`.
mcloud::fault::FaultConfig FaultsFrom(const Args& args) {
  mcloud::fault::FaultConfig f;
  f.frontend_fail_rate = args.GetDouble("fail-rate", 0.0);
  f.loss_burst_rate = args.GetDouble("loss-burst", 0.0);
  f.degraded_rate = args.GetDouble("degraded", 0.0);
  f.seed = args.GetU64("fault-seed", f.seed);
  return f;
}

Args Parse(int argc, char** argv, int first) {
  // Flags that never take a value, so a following positional (e.g. the
  // output path after `--faults`) is not swallowed as their argument.
  static const std::set<std::string> kBooleanFlags = {
      "no-ssai",     "pace",         "faults",
      "hedge",       "no-retry",     "out-of-core",
      "concurrent",  "analyze-while-generate"};
  Args args;
  for (int i = first; i < argc; ++i) {
    const std::string_view a = argv[i];
    if (a.rfind("--", 0) == 0) {
      const std::string key(a.substr(2));
      // Boolean flags take no value; value flags consume the next token.
      if (!kBooleanFlags.count(key) && i + 1 < argc && argv[i + 1][0] != '-') {
        args.flags[key] = argv[++i];
      } else {
        args.flags[key] = "";
      }
    } else {
      args.positional.emplace_back(a);
    }
  }
  return args;
}

/// Comma-separated axis lists for `matrix` (e.g. --grids none,frontend-flaky).
std::vector<std::string> SplitList(const std::string& csv) {
  std::vector<std::string> out;
  std::size_t start = 0;
  while (start <= csv.size()) {
    const std::size_t comma = csv.find(',', start);
    const std::size_t end = comma == std::string::npos ? csv.size() : comma;
    if (end > start) out.push_back(csv.substr(start, end - start));
    if (comma == std::string::npos) break;
    start = comma + 1;
  }
  return out;
}

bool IsCsv(const std::filesystem::path& p) { return p.extension() == ".csv"; }
bool IsV2(const std::filesystem::path& p) { return p.extension() == ".v2"; }

std::vector<LogRecord> ReadTrace(const std::filesystem::path& p) {
  if (IsCsv(p)) return ReadCsvTrace(p);
  if (IsColumnarTrace(p)) return ReadColumnarTrace(p).ToRecords();
  return ReadBinaryTrace(p);
}

void WriteTrace(const std::filesystem::path& p,
                std::span<const LogRecord> records) {
  if (IsCsv(p)) {
    WriteCsvTrace(p, records);
  } else if (IsV2(p)) {
    WriteColumnarTrace(p, TraceStore::FromRecords(records));
  } else {
    WriteBinaryTrace(p, records);
  }
}

int Usage() {
  std::fputs(
      "usage: mcloudctl COMMAND ...\n"
      "  generate  --users N [--pc N] [--seed S] [--threads N]\n"
      "            [--spec NAME] [--specs-dir D]\n"
      "            [--anonymize KEY] [--faults] [--fail-rate R]\n"
      "            [--loss-burst R] [--degraded R] [--hedge]\n"
      "            [--out-of-core [--max-memory-mb M]] OUT\n"
      "  grow      --users N [--pc N] [--seed S] [--threads N]\n"
      "            [--tau SECONDS] [--max-memory-mb M]\n"
      "            [--analyze-while-generate] OUT\n"
      "  analyze   TRACE [--tau SECONDS|auto] [--threads N]\n"
      "            [--max-memory-mb M]\n"
      "  sessions  TRACE [--tau SECONDS] [--top N]\n"
      "  convert   IN OUT\n"
      "  anonymize IN OUT --key KEY\n"
      "  simulate  [--device android|ios|pc] [--direction store|retrieve]\n"
      "            [--file-mb N] [--seed S] [--no-ssai] [--pace]\n"
      "  simulate  --fail-rate R [--loss-burst R] [--degraded R] [--hedge]\n"
      "            [--no-retry] [--users N] [--seed S] [--threads N]\n"
      "            [--shards K]\n"
      "  validate  [--users N] [--seed S] [--seeds K] [--threads N]\n"
      "            [--flows N] [--shards K] [--json FILE]\n"
      "            [--out-of-core | --concurrent] [--max-memory-mb M]\n"
      "            [--spill-dir D] [--spec NAME] [--specs-dir D]\n"
      "  specs     [--specs-dir D]\n"
      "  conform   SPEC [--users N] [--seed S] [--threads N]\n"
      "            [--out-of-core [--spill-dir D] [--max-memory-mb M]]\n"
      "            [--specs-dir D] [--json FILE]\n"
      "  matrix    SPEC... [--grids A,B] [--connections A,B] [--chunks A,B]\n"
      "            [--users N] [--seed S] [--threads N] [--shards K]\n"
      "            [--specs-dir D] [--json FILE]\n"
      "Scenario lab: SPEC is a name resolved in the specs directory\n"
      "(--specs-dir, $MCLOUD_SPECS_DIR, or the shipped specs/) or a path to\n"
      "a .spec file. `conform` checks a spec against its own declared\n"
      "[targets] and exits non-zero when any check fails; `matrix` sweeps\n"
      "spec x fault grid x connection strategy x chunk policy through the\n"
      "sharded fleet and writes one JSON report whose fingerprints are\n"
      "byte-identical at every --threads.\n"
      "Trace format: .csv is CSV, .v2 is the columnar binary format,\n"
      "anything else is the row-wise v1 binary format (reads also sniff\n"
      "the v2 magic). With --out-of-core, generate's OUT (and analyze's\n"
      "TRACE) is a partitioned trace *directory*; --max-memory-mb bounds\n"
      "the resident footprint. grow writes a partitioned directory AND\n"
      "prints the findings report — two disk phases by default, one\n"
      "overlapped walk with --analyze-while-generate. --tau is a positive\n"
      "number of seconds (default 3600); analyze also takes --tau auto,\n"
      "the Fig 3 valley, which costs a second walk over the rows. analyze\n"
      "and grow print the stage timings with the sketch footprint on\n"
      "stderr; validate --concurrent validates through the overlapped\n"
      "pipeline. --threads 0 (the\n"
      "default) uses all hardware threads; output is identical for every\n"
      "thread count, memory budget, and execution strategy.\n",
      stderr);
  return 2;
}

/// Per-stage generation breakdown (the generator fast path's bench view).
/// plan/emit are CPU seconds summed over workers; sort/write are wall
/// seconds of the serial stages, so the fields need not sum to total.
void PrintGenTimings(const workload::GenTimings& gt) {
  std::fprintf(stderr,
               "gen timings: plan %.2fs emit %.2fs sort %.2fs write %.2fs "
               "(total %.2fs)\n",
               gt.plan_s, gt.emit_s, gt.sort_s, gt.write_s, gt.total_s);
#ifndef NDEBUG
  // Pooled-scratch health: steady-state generation should stop growing
  // after warm-up, so these stay near the session/record high-water marks.
  std::fprintf(stderr,
               "gen allocs: %zu plan slots, %zu record buffer growths\n",
               gt.plan_slot_allocs, gt.record_buffer_growths);
#endif
}

/// generate's closing lines; the fleet-determinism CI check diffs the
/// fingerprint line across thread counts.
int ReportWritten(const std::filesystem::path& out, std::size_t records,
                  std::uint64_t fingerprint) {
  std::fprintf(stderr, "wrote %zu records to %s\n", records, out.c_str());
  std::fprintf(stderr, "trace fingerprint: %016llx\n",
               static_cast<unsigned long long>(fingerprint));
  return 0;
}

int CmdGenerate(const Args& args) {
  if (args.positional.size() != 1) return Usage();
  workload::WorkloadConfig cfg;
  if (args.Has("spec")) {
    // Compile a declarative scenario spec; --users/--pc still override the
    // spec's population (the model parameters come from the spec).
    const scenario::WorkloadSpec spec =
        scenario::LoadSpec(args.Get("spec"), args.Get("specs-dir"));
    cfg = scenario::Compile(spec, args.GetU64("seed", 42),
                            args.GetThreads());
    cfg.population.mobile_users =
        args.GetU64("users", cfg.population.mobile_users);
    cfg.population.pc_only_users =
        args.GetU64("pc", cfg.population.pc_only_users);
  } else {
    cfg.population.mobile_users = args.GetU64("users", 6000);
    cfg.population.pc_only_users =
        args.GetU64("pc", cfg.population.mobile_users / 3);
    cfg.seed = args.GetU64("seed", 42);
    cfg.threads = args.GetThreads();
  }

  std::fprintf(stderr,
               "generating: %zu mobile users, %zu PC-only, seed %llu...\n",
               cfg.population.mobile_users, cfg.population.pc_only_users,
               static_cast<unsigned long long>(cfg.seed));
  if (args.Has("out-of-core")) {
    if (args.Has("faults") || args.Has("anonymize")) {
      std::fprintf(stderr, "mcloudctl: --out-of-core cannot be combined "
                           "with --faults or --anonymize\n");
      return 2;
    }
    std::filesystem::create_directories(args.positional[0]);
    workload::SpillConfig spill;
    spill.dir = args.positional[0];
    spill.max_buffer_bytes =
        std::max<std::uint64_t>(args.GetU64("max-memory-mb", 2048),
                                64) * (1024 * 1024 / 3);
    workload::GenTimings gt;
    const workload::SpillSummary s =
        workload::WorkloadGenerator(cfg).GenerateToPartitions(spill, &gt);
    std::fprintf(stderr,
                 "wrote %llu records to %s (%zu spills, %zu run files)\n",
                 static_cast<unsigned long long>(s.records),
                 args.positional[0].c_str(), s.spills, s.run_files);
    PrintGenTimings(gt);
    return 0;
  }
  const std::filesystem::path out = args.positional[0];
  std::vector<LogRecord> trace;
  if (args.Has("faults")) {
    // Route the plans through the full storage service under fault
    // injection: the emitted trace is what the measurement pipeline would
    // have logged while front-ends crash and clients retry. Much slower
    // than the fast-path emitter (per-chunk TCP simulation).
    cloud::ServiceConfig svc;
    svc.faults = FaultsFrom(args);
    if (!svc.faults.Any()) svc.faults.frontend_fail_rate = 0.01;
    if (args.Has("hedge")) svc.retry.hedge = true;
    const workload::Workload w =
        workload::WorkloadGenerator(cfg).GeneratePlansOnly();
    cloud::StorageService service(svc);
    auto result = service.Execute(w.sessions);
    std::fputs(
        analysis::RenderAvailability(analysis::Availability(result)).c_str(),
        stderr);
    trace = std::move(result.logs);
  } else {
    workload::GenTimings gt;
    const TraceStore store =
        workload::WorkloadGenerator(cfg).GenerateColumnar(&gt).trace;
    PrintGenTimings(gt);
    if (IsV2(out) && !args.Has("anonymize")) {
      // A columnar file is written straight from the generated store.
      WriteColumnarTrace(out, store);
      return ReportWritten(out, store.rows(), TraceFingerprint(store));
    }
    trace = store.ToRecords();
  }
  if (args.Has("anonymize")) {
    trace = Anonymizer(args.Get("anonymize")).Apply(trace);
  }
  WriteTrace(out, trace);
  return ReportWritten(out, trace.size(),
                       TraceFingerprint(std::span<const LogRecord>(trace)));
}

void PrintStageTimings(const core::StageTimings& st,
                       const core::FullReport& report) {
  std::fprintf(stderr,
               "timings: scan %.2fs sessionize %.2fs per-user %.2fs "
               "fits %.2fs (total %.2fs); sketches %.1f KiB\n",
               st.scan_s, st.sessionize_s, st.per_user_s, st.fits_s,
               st.total_s,
               static_cast<double>(report.sketches.MemoryBytes()) / 1024.0);
}

/// --tau: a positive finite number of seconds (default one hour), or —
/// where `allow_auto` — `auto`, which maps to 0: derive τ from the Fig 3
/// histogram valley. Anything else prints a message and yields nullopt.
std::optional<Seconds> ParseTau(const Args& args, bool allow_auto) {
  const std::string s = args.Get("tau", "3600");
  if (allow_auto && s == "auto") return 0.0;
  char* end = nullptr;
  const double tau = s.empty() ? 0 : std::strtod(s.c_str(), &end);
  if (s.empty() || std::isspace(static_cast<unsigned char>(s[0])) ||
      *end != '\0' || !std::isfinite(tau) || tau <= 0) {
    std::fprintf(stderr,
                 "mcloudctl: --tau must be a positive number of seconds%s, "
                 "got '%s'\n",
                 allow_auto ? " or auto" : "", s.c_str());
    return std::nullopt;
  }
  return tau;
}

int CmdAnalyze(const Args& args) {
  if (args.positional.size() != 1) return Usage();
  const std::optional<Seconds> tau = ParseTau(args, /*allow_auto=*/true);
  if (!tau) return 2;
  core::PipelineOptions opts;
  opts.session_tau = *tau;
  opts.threads = args.GetThreads();
  opts.max_memory_mb =
      static_cast<std::size_t>(args.GetU64("max-memory-mb", 0));
  const core::AnalysisPipeline pipeline(opts);

  const std::filesystem::path path = args.positional[0];
  core::FullReport report;
  core::StageTimings st;
  if (std::filesystem::is_directory(path)) {
    // Partitioned trace directory: stream it under the requested budget.
    report = pipeline.RunStreaming(PartitionedTrace::Open(path), &st);
  } else if (!IsCsv(path) && IsColumnarTrace(path)) {
    // Columnar fast path: load only the columns the pipeline touches and
    // feed the store directly — no LogRecord vector is ever built.
    report = pipeline.Run(ReadColumnarTrace(path, kAnalysisColumns), &st);
  } else {
    report = pipeline.Run(ReadTrace(path), &st);
  }
  std::fputs(core::RenderFindings(report).c_str(), stdout);
  PrintStageTimings(st, report);
  return 0;
}

/// Generate a partitioned trace directory AND produce its findings report.
/// Two-phase by default (spill everything, then stream it back in one walk
/// with RunStreaming); with --analyze-while-generate each sealed spill slice feeds the
/// concurrent pipeline while the next slice is generated, so the report is
/// ready moments after the last record is written.
int CmdGrow(const Args& args) {
  if (args.positional.size() != 1) return Usage();
  const std::optional<Seconds> tau = ParseTau(args, /*allow_auto=*/false);
  if (!tau) return 2;
  workload::WorkloadConfig cfg;
  cfg.population.mobile_users = args.GetU64("users", 6000);
  cfg.population.pc_only_users =
      args.GetU64("pc", cfg.population.mobile_users / 3);
  cfg.seed = args.GetU64("seed", 42);
  cfg.threads = args.GetThreads();

  std::filesystem::create_directories(args.positional[0]);
  const std::uint64_t budget_mb =
      std::max<std::uint64_t>(args.GetU64("max-memory-mb", 2048), 64);
  workload::SpillConfig spill;
  spill.dir = args.positional[0];
  spill.max_buffer_bytes = budget_mb * (1024 * 1024 / 3);

  core::PipelineOptions popts;
  popts.session_tau = *tau;
  popts.threads = cfg.threads;
  popts.max_memory_mb = static_cast<std::size_t>(budget_mb);
  const core::AnalysisPipeline pipeline(popts);
  const workload::WorkloadGenerator generator(cfg);

  const bool overlapped = args.Has("analyze-while-generate");
  std::fprintf(stderr,
               "growing %s: %zu mobile users, %zu PC-only, seed %llu (%s)\n",
               args.positional[0].c_str(), cfg.population.mobile_users,
               cfg.population.pc_only_users,
               static_cast<unsigned long long>(cfg.seed),
               overlapped ? "analyze-while-generate" : "two-phase");

  core::FullReport report;
  core::StageTimings st;
  workload::SpillSummary sum;
  workload::GenTimings gt;
  if (overlapped) {
    // A third of the two-phase slice size: the overlapped pipeline keeps
    // up to three slices in flight (producer buffer, queue slot, consumer)
    // at the same total budget.
    spill.max_buffer_bytes = budget_mb * (1024 * 1024 / 9);
    report = pipeline.RunConcurrent(
        [&](const core::AnalysisPipeline::SliceConsumer& consume) {
          sum = generator.GenerateToPartitions(spill, consume, &gt);
        },
        &st);
  } else {
    sum = generator.GenerateToPartitions(spill, &gt);
    report =
        pipeline.RunStreaming(PartitionedTrace::Open(spill.dir), &st);
  }
  std::fprintf(stderr,
               "wrote %llu records to %s (%zu spills, %zu run files)\n",
               static_cast<unsigned long long>(sum.records),
               args.positional[0].c_str(), sum.spills, sum.run_files);
  std::fputs(core::RenderFindings(report).c_str(), stdout);
  PrintGenTimings(gt);
  PrintStageTimings(st, report);
  return 0;
}

int CmdSessions(const Args& args) {
  if (args.positional.size() != 1) return Usage();
  const std::optional<Seconds> tau = ParseTau(args, /*allow_auto=*/false);
  if (!tau) return 2;
  const auto trace = ReadTrace(args.positional[0]);
  const auto sessions = analysis::Sessionizer(*tau).Sessionize(trace);

  const std::uint64_t top = args.GetU64("top", 20);
  std::printf("%zu sessions (tau = %.0f s); largest %llu by volume:\n",
              sessions.size(), *tau,
              static_cast<unsigned long long>(top));
  std::vector<const analysis::Session*> by_volume;
  by_volume.reserve(sessions.size());
  for (const auto& s : sessions) by_volume.push_back(&s);
  std::sort(by_volume.begin(), by_volume.end(),
            [](const auto* a, const auto* b) {
              return a->Volume() > b->Volume();
            });
  std::printf("%-12s %-10s %8s %8s %10s %10s %8s\n", "user", "type", "ops",
              "chunks", "volume MB", "length s", "oper s");
  for (std::uint64_t i = 0; i < top && i < by_volume.size(); ++i) {
    const auto& s = *by_volume[i];
    const char* type = s.SessionType() == analysis::Session::Type::kStoreOnly
                           ? "store"
                       : s.SessionType() ==
                               analysis::Session::Type::kRetrieveOnly
                           ? "retrieve"
                           : "mixed";
    std::printf("%-12llu %-10s %8zu %8zu %10.1f %10.0f %8.0f\n",
                static_cast<unsigned long long>(s.user_id), type, s.FileOps(),
                s.chunk_requests, ToMB(s.Volume()), s.Length(),
                s.OperatingTime());
  }
  return 0;
}

int CmdConvert(const Args& args) {
  if (args.positional.size() != 2) return Usage();
  const auto trace = ReadTrace(args.positional[0]);
  WriteTrace(args.positional[1], trace);
  std::fprintf(stderr, "converted %zu records: %s -> %s\n", trace.size(),
               args.positional[0].c_str(), args.positional[1].c_str());
  return 0;
}

int CmdAnonymize(const Args& args) {
  if (args.positional.size() != 2 || !args.Has("key")) return Usage();
  const auto trace = ReadTrace(args.positional[0]);
  const auto anonymized = Anonymizer(args.Get("key")).Apply(trace);
  WriteTrace(args.positional[1], anonymized);
  std::fprintf(stderr, "anonymized %zu records\n", anonymized.size());
  return 0;
}

/// Fleet simulation under fault injection: generate session plans for a
/// small population, execute them against the storage service with the
/// requested failure/loss/degradation rates, and print the availability
/// report.
int CmdSimulateFleet(const Args& args) {
  workload::WorkloadConfig wcfg;
  wcfg.population.mobile_users = args.GetU64("users", 400);
  wcfg.population.pc_only_users =
      args.GetU64("pc", wcfg.population.mobile_users / 3);
  wcfg.seed = args.GetU64("seed", 42);

  cloud::FleetConfig cfg;
  cfg.service.faults = FaultsFrom(args);
  if (args.Has("no-retry")) cfg.service.retry = fault::RetryPolicy::None();
  if (args.Has("hedge")) cfg.service.retry.hedge = true;
  cfg.shards = args.GetUnsigned<std::uint32_t>("shards", cfg.shards);
  cfg.threads = args.GetThreads();
  const auto w = workload::WorkloadGenerator(wcfg).GeneratePlansOnly();

  std::fprintf(stderr,
               "simulating %zu sessions (%u shards): fail-rate %.3f, "
               "loss-burst %.3f, degraded %.3f, %s\n",
               w.sessions.size(), cfg.shards,
               cfg.service.faults.frontend_fail_rate,
               cfg.service.faults.loss_burst_rate,
               cfg.service.faults.degraded_rate,
               args.Has("no-retry")  ? "no retries"
               : cfg.service.retry.hedge ? "default retry policy + hedging"
                                         : "default retry policy");
  const auto result = cloud::ExecuteFleet(cfg, w.sessions).result;
  std::fputs(
      analysis::RenderAvailability(analysis::Availability(result)).c_str(),
      stdout);
  const auto by_device = analysis::SuccessRateByDevice(result);
  std::printf("  success by device   android %.4f  ios %.4f  pc %.4f\n",
              by_device[0], by_device[1], by_device[2]);
  return 0;
}

int CmdSimulate(const Args& args) {
  if (args.Has("fail-rate") || args.Has("loss-burst") ||
      args.Has("degraded") || args.Has("hedge") || args.Has("no-retry")) {
    return CmdSimulateFleet(args);
  }
  const std::string device = args.Get("device", "android");
  cloud::ServiceConfig cfg;
  cfg.ssai_enabled = !args.Has("no-ssai");
  cfg.pace_after_idle = args.Has("pace");
  const cloud::StorageService service(cfg);

  const DeviceType dev = device == "ios"  ? DeviceType::kIos
                         : device == "pc" ? DeviceType::kPc
                                          : DeviceType::kAndroid;
  const Direction dir = args.Get("direction", "store") == "retrieve"
                            ? Direction::kRetrieve
                            : Direction::kStore;
  const Bytes size = args.GetU64("file-mb", 8) * kMiB;
  const auto flow =
      service.SimulateFlow(dev, dir, size, args.GetU64("seed", 1));

  std::printf("%s %s of %.0f MB: %.2f s total, %llu slow-start restarts, "
              "%llu timeouts\n",
              device.c_str(),
              dir == Direction::kStore ? "upload" : "download", ToMB(size),
              flow.duration,
              static_cast<unsigned long long>(flow.restarts),
              static_cast<unsigned long long>(flow.timeouts));
  std::printf("%6s %10s %10s %10s %10s %9s\n", "chunk", "t_tran s",
              "T_srv s", "T_clt s", "idle s", "restart");
  for (std::size_t i = 0; i < flow.chunks.size(); ++i) {
    const auto& c = flow.chunks[i];
    std::printf("%6zu %10.2f %10.3f %10.3f %10.3f %9s\n", i + 1,
                c.transfer_time, c.server_time, c.client_time, c.idle_before,
                c.restarted ? "yes" : "");
  }
  return 0;
}

/// Shared --json writer for the scenario-lab commands.
void WriteJsonFile(const std::string& path, const std::string& json) {
  if (path.empty()) return;
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (!f) {
    std::fprintf(stderr, "cannot write %s\n", path.c_str());
    std::exit(1);
  }
  std::fputs(json.c_str(), f);
  std::fclose(f);
  std::fprintf(stderr, "wrote %s\n", path.c_str());
}

/// List the specs visible in the resolved specs directory.
int CmdSpecs(const Args& args) {
  const std::string dir = args.Get("specs-dir");
  const auto names = scenario::ListSpecs(dir);
  if (names.empty()) {
    const std::string where =
        dir.empty() ? std::string(scenario::DefaultSpecsDir()) : dir;
    std::fprintf(stderr, "no specs found in %s\n", where.c_str());
    return 1;
  }
  for (const auto& name : names) {
    const scenario::WorkloadSpec spec = scenario::LoadSpec(name, dir);
    std::printf("%-24s %zu mobile + %zu PC users, %d days — %s\n",
                name.c_str(), spec.mobile_users, spec.pc_only_users,
                static_cast<int>(spec.days), spec.description.c_str());
  }
  return 0;
}

/// Self-conformance: run a spec's workload through the analysis pipeline
/// and gate its declared [targets] with the GoF tolerance machinery. Exit 0
/// iff every declared target passes.
int CmdConform(const Args& args) {
  if (args.positional.size() != 1) return Usage();
  const scenario::WorkloadSpec spec =
      scenario::LoadSpec(args.positional[0], args.Get("specs-dir"));
  scenario::ConformanceOptions opts;
  opts.seed = args.GetU64("seed", opts.seed);
  opts.threads = args.GetThreads();
  opts.users_override = args.GetU64("users", 0);
  opts.out_of_core = args.Has("out-of-core");
  opts.spill_dir = args.Get("spill-dir");
  opts.max_memory_mb = static_cast<std::size_t>(
      args.GetU64("max-memory-mb", opts.max_memory_mb));
  std::filesystem::path owned_spill;
  if (opts.out_of_core && opts.spill_dir.empty()) {
    owned_spill = std::filesystem::temp_directory_path() /
                  ("mcloud-conform-" + spec.name + "-" +
                   std::to_string(opts.seed));
    std::filesystem::remove_all(owned_spill);
    std::filesystem::create_directories(owned_spill);
    opts.spill_dir = owned_spill.string();
  }
  const scenario::ConformanceRun run = scenario::RunConformance(spec, opts);
  if (!owned_spill.empty()) std::filesystem::remove_all(owned_spill);
  std::fputs(scenario::RenderText(run).c_str(), stdout);
  WriteJsonFile(args.Get("json"), scenario::ToJson(run));
  return run.AllPassed() ? 0 : 1;
}

/// What-if matrix: sweep spec x fault grid x connection strategy x chunk
/// policy through the sharded fleet; one JSON report, byte-identical at
/// every --threads.
int CmdMatrix(const Args& args) {
  if (args.positional.empty()) return Usage();
  scenario::MatrixOptions opts;
  opts.specs = args.positional;
  if (args.Has("grids")) opts.faults = SplitList(args.Get("grids"));
  if (args.Has("connections"))
    opts.connections = SplitList(args.Get("connections"));
  if (args.Has("chunks")) opts.chunk_policies = SplitList(args.Get("chunks"));
  opts.users = args.GetU64("users", 0);
  opts.seed = args.GetU64("seed", opts.seed);
  opts.threads = args.GetThreads();
  opts.shards = args.GetUnsigned<std::uint32_t>("shards", opts.shards);
  opts.specs_dir = args.Get("specs-dir");
  const scenario::MatrixReport report = scenario::RunMatrix(opts);
  std::fputs(scenario::RenderText(report).c_str(), stdout);
  WriteJsonFile(args.Get("json"), scenario::ToJson(report));
  return 0;
}

/// Paper-fidelity validation: generate → analyze → fleet-simulate → run
/// every FigureCheck. Exit 0 iff all checks pass (single run) or the
/// run-level pass rate is >= 95% (--seeds sweep). --json writes the
/// machine-readable manifest CI archives.
int CmdValidate(const Args& args) {
  validate::ValidateOptions opts;
  if (args.Has("spec")) {
    // Validate against a scenario spec's model: the spec supplies the
    // population and parameters; --users still scales the population down
    // (PC-only users shrink proportionally, so paper2016 at --users 4000
    // fingerprints identically to the default 4000-user run).
    const scenario::WorkloadSpec spec =
        scenario::LoadSpec(args.Get("spec"), args.Get("specs-dir"));
    opts.users = args.GetU64("users", spec.mobile_users);
    opts.pc_users = spec.pc_only_users * opts.users / spec.mobile_users;
    opts.model = spec.model;
  } else {
    opts.users = args.GetU64("users", opts.users);
  }
  opts.seed = args.GetU64("seed", opts.seed);
  opts.threads = args.GetThreads();
  opts.fleet_flows = args.GetU64("flows", opts.fleet_flows);
  opts.fleet_shards =
      args.GetUnsigned<std::uint32_t>("shards", opts.fleet_shards);
  opts.out_of_core = args.Has("out-of-core");
  opts.concurrent = args.Has("concurrent");
  opts.max_memory_mb = static_cast<std::size_t>(
      args.GetU64("max-memory-mb", opts.max_memory_mb));
  opts.spill_dir = args.Get("spill-dir");
  const std::uint64_t seeds = args.GetU64("seeds", 1);
  const std::string json_path = args.Get("json");

  auto write_json = [&](const std::string& json) {
    if (json_path.empty()) return;
    std::FILE* f = std::fopen(json_path.c_str(), "w");
    if (!f) {
      std::fprintf(stderr, "cannot write %s\n", json_path.c_str());
      std::exit(1);
    }
    std::fputs(json.c_str(), f);
    std::fclose(f);
    std::fprintf(stderr, "wrote %s\n", json_path.c_str());
  };

  if (seeds <= 1) {
    const validate::ValidationRun run = validate::RunValidation(opts);
    std::fputs(validate::RenderText(run).c_str(), stdout);
    write_json(validate::ToJson(run));
    return run.AllPassed() ? 0 : 1;
  }

  const validate::SeedSweep sweep = validate::RunSeedSweep(opts, seeds);
  for (const auto& run : sweep.runs) {
    std::printf("seed %-6llu %zu/%zu checks passed (%.1f s)\n",
                static_cast<unsigned long long>(run.options.seed),
                run.Passed(), run.outcomes.size(), run.total_s);
  }
  std::printf("sweep: %zu seeds, run pass rate %.2f "
              "(bootstrap 95%% CI [%.2f, %.2f])\n",
              sweep.runs.size(), sweep.run_pass_rate, sweep.pass_rate_ci.lo,
              sweep.pass_rate_ci.hi);
  for (const auto& [id, count] : sweep.failures_by_check)
    std::printf("  failing check: %-24s %zu/%zu seeds\n", id.c_str(), count,
                sweep.runs.size());
  write_json(validate::ToJson(sweep));
  return sweep.run_pass_rate >= 0.95 ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) return Usage();
  const std::string_view cmd = argv[1];
  const Args args = Parse(argc, argv, 2);
  try {
    if (cmd == "generate") return CmdGenerate(args);
    if (cmd == "grow") return CmdGrow(args);
    if (cmd == "analyze") return CmdAnalyze(args);
    if (cmd == "sessions") return CmdSessions(args);
    if (cmd == "convert") return CmdConvert(args);
    if (cmd == "anonymize") return CmdAnonymize(args);
    if (cmd == "simulate") return CmdSimulate(args);
    if (cmd == "specs") return CmdSpecs(args);
    if (cmd == "conform") return CmdConform(args);
    if (cmd == "matrix") return CmdMatrix(args);
    if (cmd == "validate") return CmdValidate(args);
    if (cmd == "help" || cmd == "--help") {
      Usage();
      return 0;
    }
  } catch (const InvalidFlag& e) {
    std::fprintf(stderr, "mcloudctl: %s\n", e.what());
    return 2;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "mcloudctl: %s\n", e.what());
    return 1;
  }
  return Usage();
}
