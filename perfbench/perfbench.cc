// perfbench — one workload of the repository benchmark, in one process.
//
//   perfbench --workload NAME --seed N --seconds S --scale full|tiny
//             --trace 0|1 [--reference 0|1] [--spans FILE] [--tmp DIR]
//
// Workloads (see perfbench/README.md for why each exists):
//   gen-resident  GenerateColumnar + AnalysisPipeline::Run(store)
//   grow-ooc      GenerateToPartitions (several spills) + PartitionedTrace::
//                 Open + AnalysisPipeline::RunStreaming
//   fleet-faults  GeneratePlansOnly (set-up) + ExecuteFleet with the
//                 "frontend-flaky" fault grid
//   live-replay   in-process EpollServer + LiveService driven open-loop by
//                 ExecuteReplay: a fixed-rate phase and an overload phase
//
// The process times only calls into the library's public functions; it
// never edits library code. It prints one JSON object on the last line of
// stdout: correctness, attempted/failed operation counts, the workload's
// fingerprints and its metrics as {"name": [value, "unit"]}. perfbench/
// run.py composes these per-process results into the benchmark result.
//
// With --trace 1 the process also records spans (name, start, end, parent)
// around every library call, one span per spill slice and one per
// LiveService::Handle call, plus counts at the same boundaries; it keeps
// them in memory, derives per-layer self time from them, and writes them to
// --spans at exit.
#include <malloc.h>
#include <pthread.h>
#include <sys/resource.h>
#include <time.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <map>
#include <optional>
#include <string>
#include <string_view>
#include <thread>
#include <unordered_map>
#include <utility>
#include <vector>

#include "cloud/fleet.h"
#include "core/pipeline.h"
#include "core/report.h"
#include "net/epoll_server.h"
#include "net/live_service.h"
#include "net/replay.h"
#include "scenario/matrix.h"
#include "trace/partitioned_trace.h"
#include "trace/record_columns.h"
#include "workload/generator.h"

namespace {

using namespace mcloud;
using Clock = std::chrono::steady_clock;

const Clock::time_point g_epoch = Clock::now();

double Now() {
  return std::chrono::duration<double>(Clock::now() - g_epoch).count();
}

/// Linearly interpolated quantile (q = 0.5 is the median); 0 when empty.
double Quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (pos - static_cast<double>(lo)) * (v[hi] - v[lo]);
}

double Median(std::vector<double> v) { return Quantile(std::move(v), 0.5); }

/// Median over inputs of each input's median over its repetitions. A run
/// repeats some inputs more often than others, and inputs differ in size
/// (peak memory follows an input's record count); weighting every input
/// once keeps which inputs came round again out of the figure.
template <typename Rep, typename F>
double MedianOverInputs(const std::vector<Rep>& reps, F field) {
  std::map<int, std::vector<double>> by_input;
  for (const Rep& r : reps) by_input[r.input].push_back(field(r));
  std::vector<double> medians;
  for (auto& [input, v] : by_input) medians.push_back(Median(std::move(v)));
  return Median(std::move(medians));
}

double ThreadCpuSeconds(pthread_t thread) {
  clockid_t cid;
  if (pthread_getcpuclockid(thread, &cid) != 0) return 0;
  timespec ts{};
  clock_gettime(cid, &ts);
  return static_cast<double>(ts.tv_sec) +
         1e-9 * static_cast<double>(ts.tv_nsec);
}

double ProcessCpuSeconds() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  const auto tv = [](const timeval& t) {
    return static_cast<double>(t.tv_sec) +
           1e-6 * static_cast<double>(t.tv_usec);
  };
  return tv(ru.ru_utime) + tv(ru.ru_stime);
}

std::string Hex(std::uint64_t v) {
  char buf[24];
  std::snprintf(buf, sizeof(buf), "%016llx",
                static_cast<unsigned long long>(v));
  return buf;
}

std::string JsonString(std::string_view s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      out += ' ';
    } else {
      out += c;
    }
  }
  return out + "\"";
}

// ---------------------------------------------------------------------------
// Tracing: spans and counts, kept in memory, written at exit.

struct Span {
  std::string name;
  double start = 0;
  double end = 0;
  int parent = -1;
};

class Tracer {
 public:
  explicit Tracer(bool on) : on_(on) {}

  [[nodiscard]] bool on() const { return on_; }

  /// Open a span on the main thread, nested under the innermost open span.
  int Begin(std::string name) {
    if (!on_) return -1;
    const int id = Add(std::move(name), Now(), 0,
                       stack_.empty() ? -1 : stack_.back());
    stack_.push_back(id);
    return id;
  }
  void End(int id) {
    if (id < 0) return;
    spans_[static_cast<std::size_t>(id)].end = Now();
    stack_.pop_back();
  }
  /// A finished span recorded after the fact (spill slices, handler calls).
  int Add(std::string name, double start, double end, int parent) {
    if (!on_) return -1;
    spans_.push_back({std::move(name), start, end, parent});
    return static_cast<int>(spans_.size()) - 1;
  }
  [[nodiscard]] int Current() const {
    return stack_.empty() ? -1 : stack_.back();
  }
  /// Count recorded at a span boundary (summed per name).
  void Count(const std::string& name, double value) {
    if (on_) counts_[name] += value;
  }

  /// Self time per layer (span-name prefix before '.') per timed
  /// repetition: each span's duration minus the union of its children's
  /// intervals, summed over every span outside set-up and untimed extra
  /// passes, divided by the number of "bench.rep" spans (1 when the
  /// workload has a single run).
  [[nodiscard]] std::map<std::string, double> SelfTimeByLayer() const {
    std::vector<std::vector<std::pair<double, double>>> children(
        spans_.size());
    for (const Span& s : spans_)
      if (s.parent >= 0)
        children[static_cast<std::size_t>(s.parent)].emplace_back(s.start,
                                                                  s.end);
    std::map<std::string, double> self;
    double reps = 0;
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      if (s.name == "bench.rep") ++reps;
      if (Untimed(i)) continue;
      auto& kids = children[i];
      std::sort(kids.begin(), kids.end());
      double covered = 0;
      double cur_lo = 0, cur_hi = -1;
      for (auto [lo, hi] : kids) {
        lo = std::max(lo, s.start);
        hi = std::min(hi, s.end);
        if (hi <= lo) continue;
        if (lo > cur_hi) {
          if (cur_hi > cur_lo) covered += cur_hi - cur_lo;
          cur_lo = lo;
          cur_hi = hi;
        } else {
          cur_hi = std::max(cur_hi, hi);
        }
      }
      if (cur_hi > cur_lo) covered += cur_hi - cur_lo;
      const std::string layer = s.name.substr(0, s.name.find('.'));
      self[layer] += std::max(0.0, (s.end - s.start) - covered);
    }
    for (auto& [layer, t] : self) t /= std::max(reps, 1.0);
    return self;
  }

  [[nodiscard]] std::size_t spans() const { return spans_.size(); }

  void Write(const std::string& path) const {
    if (!on_ || path.empty()) return;
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (!f) return;
    std::fprintf(f, "{\"spans\": [\n");
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      std::fprintf(f, "  {\"id\": %zu, \"name\": %s, \"start\": %.9f, "
                      "\"end\": %.9f, \"parent\": %d}%s\n",
                   i, JsonString(s.name).c_str(), s.start, s.end, s.parent,
                   i + 1 < spans_.size() ? "," : "");
    }
    std::fprintf(f, "],\n\"counts\": {");
    bool first = true;
    for (const auto& [name, v] : counts_) {
      std::fprintf(f, "%s\n  %s: %.17g", first ? "" : ",",
                   JsonString(name).c_str(), v);
      first = false;
    }
    std::fprintf(f, "\n}}\n");
    std::fclose(f);
  }

 private:
  [[nodiscard]] bool Untimed(std::size_t i) const {
    for (int at = static_cast<int>(i); at >= 0;
         at = spans_[static_cast<std::size_t>(at)].parent) {
      const std::string& name = spans_[static_cast<std::size_t>(at)].name;
      if (name == "bench.setup" || name == "bench.extra") return true;
    }
    return false;
  }

  bool on_;
  std::vector<Span> spans_;
  std::vector<int> stack_;
  std::map<std::string, double> counts_;
};

class ScopedSpan {
 public:
  ScopedSpan(Tracer& tracer, std::string name)
      : tracer_(tracer), id_(tracer.Begin(std::move(name))) {}
  ~ScopedSpan() { tracer_.End(id_); }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  Tracer& tracer_;
  int id_;
};

// ---------------------------------------------------------------------------
// Options, results.

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  std::string scale = "full";
  bool trace = false;
  /// A reference run supplies another workload's metrics: its set-up is
  /// one untimed warm-up pass, since its setup_s is never reported.
  bool reference = false;
  std::string spans_path;
  std::filesystem::path tmp = ".bench_tmp/perfbench";
};

/// Sizes per scale: `full` for the benchmark, `tiny` for the self-test.
struct Sizes {
  std::size_t pipeline_users;   ///< mobile users per input (PC-only: +1/3)
  std::size_t fleet_users;      ///< mobile users per input
  std::uint64_t fleet_chunks;   ///< planned chunks executed per input
  std::size_t live_users;       ///< mobile users per live population
  std::uint64_t live_population_chunks;  ///< planned chunks, at most
  std::size_t live_user_cap;    ///< replayed requests per user, at most
  double live_fixed_qps;        ///< phase A offered rate
  double live_overload_qps_est; ///< sizes phase B to ~half the run
};

Sizes SizesFor(const std::string& scale) {
  if (scale == "tiny") return {400, 100, 20000, 20, 25000, 16, 1000, 4000};
  return {5000, 600, 60000, 200, 250000, 24, 2000, 12000};
}

/// Every run draws several independent populations (inputs) from its seed
/// and cycles its repetitions over them. The paper's session and file-size
/// mixtures are heavy-tailed — at 10k users one user can hold 40% of a
/// week's records — so a single population per run would make record
/// counts, memory and shard balance swing from seed to seed; medians over
/// several populations do not.
constexpr int kPipelineInputs = 16;
constexpr int kFleetInputs = 32;
constexpr int kLiveInputs = 32;

/// Input seeds of a run: seed * 64 + k, so runs with different seeds never
/// share a population as long as k < 64.
constexpr int kInputSeedsPerSeed = 64;

std::uint64_t InputSeed(std::uint64_t seed, int input) {
  return seed * kInputSeedsPerSeed + static_cast<std::uint64_t>(input);
}

/// 512 KB chunks a session plans to move (one request record each).
std::uint64_t PlannedChunks(const workload::SessionPlan& session) {
  std::uint64_t chunks = 0;
  for (const workload::FileOp& op : session.ops)
    chunks += (op.size + kChunkSize - 1) / kChunkSize;
  return chunks;
}

struct Result {
  bool correct = true;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<std::string> failures;
  std::vector<std::pair<std::string, std::string>> fingerprints;
  std::vector<std::pair<std::string, std::pair<double, std::string>>> metrics;
  std::vector<std::string> notes;

  void Metric(const std::string& name, double value, const std::string& unit) {
    metrics.push_back({name, {value, unit}});
  }
  /// One correctness check; `ok` false marks the run incorrect.
  void Check(bool ok, const std::string& what) {
    ++attempted;
    if (!ok) {
      ++failed;
      correct = false;
      failures.push_back(what);
    }
  }
  /// Operations that can fail without being a correctness check (requests).
  void Ops(std::uint64_t attempted_ops, std::uint64_t failed_ops,
           const std::string& what) {
    attempted += attempted_ops;
    failed += failed_ops;
    if (failed_ops > 0) {
      correct = false;
      failures.push_back(what + ": " + std::to_string(failed_ops));
    }
  }
};

int Threads() {
  return static_cast<int>(std::max(1u, std::thread::hardware_concurrency()));
}

workload::WorkloadConfig PipelineConfig(std::size_t users, std::uint64_t seed) {
  workload::WorkloadConfig cfg;  // paper2016 defaults
  cfg.population.mobile_users = users;
  cfg.population.pc_only_users = users / 3;
  cfg.seed = seed;
  cfg.threads = Threads();
  return cfg;
}

/// Peak resident set since the last Reset(), in MB. Falls back to
/// the whole-process peak where /proc/self/clear_refs is unavailable.
class PeakRss {
 public:
  void Reset() {
    // Hand freed heap back to the kernel first, so a repetition's peak does
    // not include pages the allocator kept from earlier repetitions.
    malloc_trim(0);
    if (std::FILE* f = std::fopen("/proc/self/clear_refs", "w")) {
      resettable_ = std::fputs("5", f) >= 0;
      resettable_ = (std::fclose(f) == 0) && resettable_;
    }
  }
  [[nodiscard]] double Mb() const {
    if (resettable_) {
      if (std::FILE* f = std::fopen("/proc/self/status", "r")) {
        char line[256];
        double kb = -1;
        while (std::fgets(line, sizeof(line), f))
          if (std::sscanf(line, "VmHWM: %lf kB", &kb) == 1) break;
        std::fclose(f);
        if (kb >= 0) return kb * 1024.0 / 1e6;
      }
    }
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    return static_cast<double>(ru.ru_maxrss) * 1024.0 / 1e6;  // KiB
  }

 private:
  bool resettable_ = false;
};

/// Runs `setup` at least seven times and for at least a twelfth of the run
/// (at most 1 s), and reports the median as setup_s: cheap set-ups repeat
/// often enough that their median is steady. The last call's products feed
/// the timed phase. A cross-check run (seconds == 0) and a reference run set
/// up once.
template <typename F>
void TimedSetup(Result& res, Tracer& tracer, const Options& opt, F&& setup) {
  const bool once = opt.seconds <= 0 || opt.reference;
  const std::size_t passes = once ? 1 : 7;
  const double min_seconds = once ? 0 : std::min(1.0, opt.seconds / 12);
  std::vector<double> samples;
  const double t_begin = Now();
  while (samples.size() < passes || Now() - t_begin < min_seconds) {
    ScopedSpan span(tracer, "bench.setup");
    const double t0 = Now();
    setup();
    samples.push_back(Now() - t0);
  }
  res.Metric("setup_s", Median(samples), "s");
}

/// Repetitions of the timed phase, cycling over `inputs` populations: at
/// least one per input plus one repeat (so fingerprints are compared across
/// repeats of a population), then until `seconds` have elapsed; every
/// population that comes round again is compared too. With seconds == 0,
/// one repetition of input 0 (the cross-check run).
template <typename F>
void TimedReps(double seconds, int inputs, F&& rep) {
  const double t0 = Now();
  int reps = 0;
  if (seconds <= 0) {
    rep(0);
    return;
  }
  while (reps <= inputs || Now() - t0 < seconds)
    rep(reps++ % inputs);
}

// ---------------------------------------------------------------------------
// gen-resident and grow-ooc

struct PipelineRep {
  int input = 0;
  double wall_s = 0;
  double peak_rss_mb = 0;
  std::uint64_t records = 0;
  workload::GenTimings gen;
  core::StageTimings stages;
  std::uint64_t report_fp = 0;
  std::uint64_t trace_fp = 0;  ///< resident only
  // grow-ooc only:
  double open_s = 0;
  double scan_s = 0;
  std::size_t spills = 0;
  std::size_t run_files = 0;
  double disk_bytes = 0;
};

PipelineRep RunResident(const workload::WorkloadConfig& cfg, Tracer& tracer) {
  PipelineRep rep;
  const double t0 = Now();
  std::optional<workload::ColumnarWorkload> w;
  {
    ScopedSpan span(tracer, "workload.generate_columnar");
    w.emplace(workload::WorkloadGenerator(cfg).GenerateColumnar(&rep.gen));
  }
  core::PipelineOptions popts;
  popts.threads = cfg.threads;
  core::FullReport report;
  {
    ScopedSpan span(tracer, "analysis.run");
    report = core::AnalysisPipeline(popts).Run(w->trace, &rep.stages);
  }
  rep.wall_s = Now() - t0;
  rep.records = w->trace.rows();
  tracer.Count("workload.records", static_cast<double>(rep.records));
  ScopedSpan check(tracer, "bench.fingerprint");
  rep.report_fp = core::FingerprintReport(report);
  rep.trace_fp = TraceFingerprint(w->trace);
  return rep;
}

std::uint64_t DirBytes(const std::filesystem::path& dir) {
  std::uint64_t total = 0;
  for (const auto& e : std::filesystem::directory_iterator(dir))
    if (e.is_regular_file()) total += e.file_size();
  return total;
}

/// Spill budget: a small fraction of the resident trace, so a run spills
/// several times.
std::size_t SpillBudgetBytes(std::size_t users) {
  return std::max<std::size_t>(users * 4000, std::size_t{1} << 20);
}

/// One grow-ooc pass. The timed passes use the plain GenerateToPartitions
/// overload, which keeps the spill buffer's capacity between spills. With
/// `probe` (traced runs, one untimed pass after the timed ones) the pass
/// goes through the SliceSink overload instead, for one span per sealed
/// spill slice, and ends with a bare Scan. The sink path hands each buffer
/// away and refills a fresh one, so its timings are not the timed path's.
PipelineRep RunOutOfCore(const workload::WorkloadConfig& cfg,
                         const std::filesystem::path& dir, Tracer& tracer,
                         bool probe) {
  PipelineRep rep;
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  workload::SpillConfig spill;
  spill.dir = dir;
  spill.max_buffer_bytes = SpillBudgetBytes(cfg.population.mobile_users);
  core::PipelineOptions popts;
  popts.threads = cfg.threads;
  popts.max_memory_mb = 64;

  const double t0 = Now();
  workload::SpillSummary sum;
  {
    ScopedSpan span(tracer, "workload.generate_to_partitions");
    if (probe) {
      // Each slice span covers its plan + emit + sort + write since the
      // previous slice.
      const int parent = tracer.Current();
      double last = Now();
      sum = workload::WorkloadGenerator(cfg).GenerateToPartitions(
          spill,
          [&](RecordColumns&& slice) {
            const double now = Now();
            tracer.Add("workload.spill_slice", last, now, parent);
            tracer.Count("workload.spill_slice_rows",
                         static_cast<double>(slice.size()));
            last = now;
          },
          &rep.gen);
    } else {
      sum = workload::WorkloadGenerator(cfg).GenerateToPartitions(spill,
                                                                   &rep.gen);
    }
  }
  core::FullReport report;
  {
    const double o0 = Now();
    std::optional<PartitionedTrace> trace;
    {
      ScopedSpan span(tracer, "trace.open");
      trace.emplace(PartitionedTrace::Open(dir));
    }
    rep.open_s = Now() - o0;
    {
      ScopedSpan span(tracer, "analysis.run_streaming");
      report = core::AnalysisPipeline(popts).RunStreaming(*trace, &rep.stages);
    }
    rep.wall_s = Now() - t0;
    if (probe) {
      // A bare scan with a no-op sink: the partition read + k-way merge
      // cost alone.
      ScopedSpan scan(tracer, "trace.scan");
      const double s0 = Now();
      std::uint64_t rows = 0;
      trace->Scan(std::size_t{1} << 20,
                  [&rows](std::int64_t, const TraceRowBlock& b) {
                    rows += b.rows();
                  });
      rep.scan_s = Now() - s0;
      tracer.Count("trace.scan_rows", static_cast<double>(rows));
    }
  }
  rep.records = sum.records;
  rep.spills = sum.spills;
  rep.run_files = sum.run_files;
  tracer.Count("workload.records", static_cast<double>(rep.records));
  tracer.Count("workload.spills", static_cast<double>(rep.spills));
  ScopedSpan check(tracer, "bench.fingerprint");
  rep.report_fp = core::FingerprintReport(report);
  rep.disk_bytes = static_cast<double>(DirBytes(dir));
  std::filesystem::remove_all(dir);
  return rep;
}

void RunPipelineWorkload(const Options& opt, const Sizes& sz, bool ooc,
                         Result& res, Tracer& tracer) {
  std::vector<workload::WorkloadConfig> inputs;
  for (int i = 0; i < kPipelineInputs; ++i)
    inputs.push_back(PipelineConfig(sz.pipeline_users, InputSeed(opt.seed, i)));
  const std::filesystem::path dir = opt.tmp / "spill";
  const auto run = [&](const workload::WorkloadConfig& cfg) {
    return ooc ? RunOutOfCore(cfg, dir, tracer, false)
               : RunResident(cfg, tracer);
  };
  if (ooc)
    res.notes.push_back(
        "partition reads hit the page cache: grow-ooc figures describe this "
        "sandbox, not the storage device");

  // Set-up: a warm-up pass over four fixed small populations, so the timed
  // passes do not pay one-off costs (code pages, lazily built state). Their
  // seeds do not follow --seed: a seed-drawn population can hold one of the
  // model's giant users and would swing set-up time from run to run.
  TimedSetup(res, tracer, opt, [&] {
    for (int i = 0; i < 4; ++i) (void)run(PipelineConfig(500, InputSeed(0, i)));
  });

  PeakRss peak;
  std::vector<PipelineRep> reps;
  std::vector<const PipelineRep*> first(kPipelineInputs, nullptr);
  TimedReps(opt.seconds, kPipelineInputs, [&](int input) {
    ScopedSpan span(tracer, "bench.rep");
    peak.Reset();
    PipelineRep r = run(inputs[static_cast<std::size_t>(input)]);
    r.peak_rss_mb = peak.Mb();
    r.input = input;
    reps.push_back(r);
  });
  std::optional<PipelineRep> probe;
  if (ooc && tracer.on()) {
    ScopedSpan span(tracer, "bench.extra");
    probe = RunOutOfCore(inputs[0], dir, tracer, true);
  }

  for (const PipelineRep& r : reps) {
    const PipelineRep*& f = first[static_cast<std::size_t>(r.input)];
    if (f == nullptr) {
      f = &r;
      continue;
    }
    res.Check(r.report_fp == f->report_fp,
              "FingerprintReport differs across repeats");
    if (!ooc)
      res.Check(r.trace_fp == f->trace_fp,
                "TraceFingerprint differs across repeats");
  }
  const PipelineRep& r0 = *first[0];
  if (probe)
    res.Check(probe->report_fp == r0.report_fp,
              "FingerprintReport differs between the SliceSink and plain "
              "GenerateToPartitions overloads");
  res.fingerprints.push_back({"report", Hex(r0.report_fp)});
  if (!ooc) res.fingerprints.push_back({"trace", Hex(r0.trace_fp)});
  res.fingerprints.push_back({"records", std::to_string(r0.records)});

  const auto med = [&](auto field) { return MedianOverInputs(reps, field); };
  // Deterministic counts: summed over the inputs' first repetitions.
  const auto total = [&](auto field) {
    double sum = 0;
    for (const PipelineRep* f : first)
      if (f) sum += static_cast<double>(field(*f));
    return sum;
  };
  res.Metric("pipeline_records_per_s", med([](const PipelineRep& r) {
               return static_cast<double>(r.records) / r.wall_s;
             }), "records/s");
  res.Metric("peak_rss_mb", med([](auto& r) { return r.peak_rss_mb; }), "MB");
  if (!tracer.on()) return;
  res.Metric("workload.plan_s", med([](auto& r) { return r.gen.plan_s; }), "s");
  res.Metric("workload.emit_s", med([](auto& r) { return r.gen.emit_s; }), "s");
  res.Metric("workload.sort_s", med([](auto& r) { return r.gen.sort_s; }), "s");
  res.Metric("workload.plan_slot_allocs",
             total([](auto& r) { return r.gen.plan_slot_allocs; }), "count");
  res.Metric("workload.record_buffer_growths",
             total([](auto& r) { return r.gen.record_buffer_growths; }),
             "count");
  res.Metric("analysis.scan_s", med([](auto& r) { return r.stages.scan_s; }),
             "s");
  res.Metric("analysis.sessionize_s",
             med([](auto& r) { return r.stages.sessionize_s; }), "s");
  res.Metric("analysis.per_user_s",
             med([](auto& r) { return r.stages.per_user_s; }), "s");
  res.Metric("analysis.fits_s", med([](auto& r) { return r.stages.fits_s; }),
             "s");
  res.Metric("analysis.total_s",
             med([](auto& r) { return r.stages.total_s; }), "s");
  if (!ooc) return;
  res.Metric("workload.write_s", med([](auto& r) { return r.gen.write_s; }),
             "s");
  res.Metric("workload.spills", total([](auto& r) { return r.spills; }),
             "count");
  res.Metric("workload.run_files", total([](auto& r) { return r.run_files; }),
             "count");
  res.Metric("trace.open_s", med([](auto& r) { return r.open_s; }), "s");
  res.Metric("trace.scan_s", probe->scan_s, "s");
  res.Metric("trace.disk_bytes_per_record",
             total([](auto& r) { return r.disk_bytes; }) /
                 total([](auto& r) { return r.records; }),
             "B");
}

// ---------------------------------------------------------------------------
// fleet-faults

void RunFleetWorkload(const Options& opt, const Sizes& sz, Result& res,
                      Tracer& tracer) {
  // Each input is the longest chronological prefix of a population's
  // session plans that holds at most `fleet_chunks` planned chunks, so one
  // giant session cannot swing the work of a repetition several-fold.
  std::vector<std::vector<workload::SessionPlan>> plans(kFleetInputs);
  TimedSetup(res, tracer, opt, [&] {
    for (int i = 0; i < kFleetInputs; ++i) {
      std::vector<workload::SessionPlan> all;
      {
        ScopedSpan span(tracer, "workload.plans_only");
        all = workload::WorkloadGenerator(
                  PipelineConfig(sz.fleet_users, InputSeed(opt.seed, i)))
                  .GeneratePlansOnly()
                  .sessions;
      }
      std::uint64_t chunks = 0;
      std::size_t n = 0;
      for (; n < all.size(); ++n) {
        const std::uint64_t session = PlannedChunks(all[n]);
        if (n > 0 && chunks + session > sz.fleet_chunks) break;
        chunks += session;
      }
      all.resize(n);
      plans[static_cast<std::size_t>(i)] = std::move(all);
    }
  });

  cloud::FleetConfig fc;
  fc.shards = 8;
  fc.threads = Threads();
  fc.service.faults = scenario::FaultGrid("frontend-flaky");
  scenario::ApplyConnectionStrategy(fc.service, "baseline");
  scenario::ApplyChunkPolicy(fc.service, "paper");

  /// What a repetition keeps; the ServiceResult itself is dropped.
  struct Rep {
    int input = 0;
    double wall_s = 0;
    double peak_rss_mb = 0;
    std::uint64_t fp = 0;
    cloud::FaultStats faults;
    std::uint64_t delivered = 0;
    std::uint64_t flows = 0;
    std::uint64_t slow_start_restarts = 0;
    std::uint64_t executed = 0;
    std::uint64_t cancelled = 0;
    std::uint64_t peak_pending = 0;
    double shard_wall_sum = 0;
    double shard_wall_max = 0;
    double shards = 0;
  };
  PeakRss peak;
  std::vector<Rep> reps;
  TimedReps(opt.seconds, kFleetInputs, [&](int input) {
    ScopedSpan span(tracer, "bench.rep");
    peak.Reset();
    Rep r;
    r.input = input;
    const double t0 = Now();
    cloud::FleetResult fleet;
    {
      ScopedSpan call(tracer, "cloud.execute_fleet");
      fleet = cloud::ExecuteFleet(fc, plans[static_cast<std::size_t>(input)]);
    }
    r.wall_s = Now() - t0;
    r.peak_rss_mb = peak.Mb();
    const cloud::ServiceResult& out = fleet.result;
    r.fp = cloud::FingerprintServiceResult(out);
    r.faults = out.faults;
    // With faults active, chunk_perf holds one entry per delivered chunk.
    r.delivered = out.chunk_perf.size();
    r.flows = out.flows;
    r.slow_start_restarts = out.slow_start_restarts;
    for (const cloud::ShardTelemetry& s : fleet.shards) {
      r.executed += s.queue.executed;
      r.cancelled += s.queue.cancelled;
      r.peak_pending = std::max<std::uint64_t>(r.peak_pending,
                                               s.queue.peak_pending);
      r.shard_wall_sum += s.wall_s;
      r.shard_wall_max = std::max(r.shard_wall_max, s.wall_s);
    }
    r.shards = static_cast<double>(fleet.shards.size());
    tracer.Count("fault.chunk_attempts",
                 static_cast<double>(out.faults.chunk_attempts));
    reps.push_back(r);
  });

  std::vector<const Rep*> first(kFleetInputs, nullptr);
  for (const Rep& r : reps) {
    const Rep*& f = first[static_cast<std::size_t>(r.input)];
    if (f == nullptr)
      f = &r;
    else
      res.Check(r.fp == f->fp,
                "FingerprintServiceResult differs across repeats");
  }
  res.fingerprints.push_back({"service", Hex(first[0]->fp)});
  res.fingerprints.push_back({"sessions", std::to_string(plans[0].size())});

  const auto med = [&](auto field) { return MedianOverInputs(reps, field); };
  const auto total = [&](auto field) {
    double sum = 0;
    for (const Rep* f : first)
      if (f) sum += static_cast<double>(field(*f));
    return sum;
  };
  res.Metric("fleet_chunks_per_s", med([](const Rep& r) {
               return static_cast<double>(r.faults.chunk_attempts) / r.wall_s;
             }), "attempts/s");
  res.Metric("peak_rss_mb", med([](const Rep& r) { return r.peak_rss_mb; }),
             "MB");
  if (!tracer.on()) return;
  res.Metric("sim.events_executed", total([](auto& r) { return r.executed; }),
             "count");
  res.Metric("sim.events_cancelled", total([](auto& r) { return r.cancelled; }),
             "count");
  res.Metric("sim.peak_pending", total([](auto& r) { return r.peak_pending; }),
             "count");
  res.Metric("sim.events_per_s", med([](const Rep& r) {
               return static_cast<double>(r.executed) / r.shard_wall_sum;
             }), "events/s");
  res.Metric("cloud.shard_wall_max_s",
             med([](const Rep& r) { return r.shard_wall_max; }), "s");
  res.Metric("cloud.shard_skew", med([](const Rep& r) {
               return r.shard_wall_max / (r.shard_wall_sum / r.shards);
             }), "ratio");
  res.Metric("cloud.merge_s", med([](const Rep& r) {
               return r.wall_s - r.shard_wall_max;
             }), "s");
  res.Metric("tcp.flows", total([](auto& r) { return r.flows; }), "count");
  res.Metric("tcp.slow_start_restarts",
             total([](auto& r) { return r.slow_start_restarts; }), "count");
  const double attempts =
      total([](auto& r) { return r.faults.chunk_attempts; });
  res.Metric("fault.chunk_attempts", attempts, "count");
  res.Metric("fault.retry_amplification",
             attempts / total([](auto& r) { return r.delivered; }), "ratio");
  res.Metric("fault.wasted_mb",
             total([](auto& r) { return r.faults.wasted_bytes; }) / 1e6, "MB");
  res.Metric("fault.failovers",
             total([](auto& r) { return r.faults.failovers; }), "count");
  res.Metric("cloud.session_success_rate",
             1.0 - total([](auto& r) { return r.faults.failed_sessions; }) /
                       total([](auto& r) { return r.faults.sessions; }),
             "fraction");
}

// ---------------------------------------------------------------------------
// live-replay

/// One in-process server: EpollServer + LiveService on their own thread.
/// The handler lambda optionally times every LiveService::Handle call.
class LiveServer {
 public:
  explicit LiveServer(bool time_handles)
      : service_(net::LiveServiceConfig{}),
        server_(net::ServerConfig{},
                [this, time_handles](const net::HttpRequest& req,
                                     const net::RequestContext& ctx) {
                  if (!time_handles) return service_.Handle(req, ctx);
                  const double t0 = Now();
                  net::HttpResponse resp = service_.Handle(req, ctx);
                  handles_.emplace_back(t0, Now());
                  return resp;
                }) {
    port_ = server_.Start();
    thread_ = std::thread([this] {
      serve_start_ = Now();
      server_.Run();
      serve_end_ = Now();
    });
  }
  ~LiveServer() { Stop(); }
  LiveServer(const LiveServer&) = delete;
  LiveServer& operator=(const LiveServer&) = delete;

  /// Drain and join; the log and handler timings are final afterwards.
  void Stop() {
    if (!thread_.joinable()) return;
    server_.RequestStop();
    thread_.join();
  }
  [[nodiscard]] double CpuSeconds() {
    return thread_.joinable() ? ThreadCpuSeconds(thread_.native_handle()) : 0;
  }
  [[nodiscard]] std::uint16_t port() const { return port_; }
  [[nodiscard]] const net::LiveService& service() const { return service_; }
  [[nodiscard]] const std::vector<std::pair<double, double>>& handles() const {
    return handles_;
  }
  [[nodiscard]] double serve_start() const { return serve_start_; }
  [[nodiscard]] double serve_end() const { return serve_end_; }

 private:
  net::LiveService service_;
  std::vector<std::pair<double, double>> handles_;  ///< server thread only
  double serve_start_ = 0;
  double serve_end_ = 0;
  net::EpollServer server_;
  std::uint16_t port_ = 0;
  std::thread thread_;
};

/// The replayed trace: kLiveInputs generated populations (user ids offset so
/// they stay distinct), each user cut to its first `cap` records, merged in
/// time order and cut to the first `n` records. The per-user cap keeps any
/// one heavy user from dominating the replay (and microbursting past the
/// server's capacity), so the request mix is the population's.
///
/// Each population is bounded the way fleet inputs are: its plans come
/// first (GeneratePlansOnly, well under a millisecond), and a population
/// that plans more than `live_population_chunks` chunks is passed over for
/// the next input seed. The file-size mixture is heavy-tailed — one session
/// can plan 1.6M chunks where a typical 200-user population plans 40-170k —
/// and generating such a population would make set-up time swing several-
/// fold between seeds, while the per-user cap keeps 24 of its records.
std::vector<LogRecord> LiveTrace(const Sizes& sz, std::uint64_t seed,
                                 std::size_t n, Tracer& tracer) {
  std::vector<LogRecord> trace;
  int populations = 0;
  for (int k = 0; k < kInputSeedsPerSeed && populations < kLiveInputs; ++k) {
    // Mobile users only, as `mcloudload --users` replays them.
    workload::WorkloadConfig cfg =
        PipelineConfig(sz.live_users, InputSeed(seed, k));
    cfg.population.pc_only_users = 0;
    const workload::WorkloadGenerator gen(cfg);
    std::uint64_t chunks = 0;
    {
      ScopedSpan span(tracer, "workload.plans_only");
      for (const workload::SessionPlan& s : gen.GeneratePlansOnly().sessions)
        chunks += PlannedChunks(s);
    }
    if (chunks > sz.live_population_chunks) continue;
    std::vector<LogRecord> part;
    {
      ScopedSpan span(tracer, "workload.generate");
      part = gen.Generate().trace;
    }
    const std::uint64_t offset = static_cast<std::uint64_t>(populations++)
                                 << 40;
    std::unordered_map<std::uint64_t, std::size_t> seen;
    for (LogRecord& r : part) {
      if (++seen[r.user_id] > sz.live_user_cap) continue;
      r.user_id += offset;
      r.device_id += offset;
      trace.push_back(r);
    }
  }
  std::stable_sort(trace.begin(), trace.end(), LogRecordTimeOrder);
  if (trace.size() > n) trace.resize(n);
  trace.shrink_to_fit();
  return trace;
}

void RunLiveWorkload(const Options& opt, const Sizes& sz, Result& res,
                     Tracer& tracer) {
  // Phase A (fixed rate) takes the first half of the measurement, phase B
  // (overload) is sized to take about the second half at today's capacity.
  const double phase_s = std::max(opt.seconds, 0.5) / 2;
  const auto n_a = static_cast<std::size_t>(sz.live_fixed_qps * phase_s);
  const auto n_b = static_cast<std::size_t>(sz.live_overload_qps_est * phase_s);

  // Phase B is offered as several back-to-back bursts and live_max_rps is
  // their median rate, so one stall of the shared host moves one burst, not
  // the figure.
  constexpr std::size_t kOverloadBursts = 4;
  std::vector<LogRecord> trace;
  net::ReplayPlan plan_a;
  std::vector<net::ReplayPlan> plans_b;
  std::optional<LiveServer> server;
  TimedSetup(res, tracer, opt, [&] {
    server.reset();
    trace = LiveTrace(sz, opt.seed, n_a + n_b, tracer);
    const std::size_t a = std::min(n_a, trace.size() / 2);
    {
      ScopedSpan span(tracer, "net.build_plan");
      net::ReplayPlanOptions po;
      po.max_chunk_bytes = 64 * kKiB;
      po.target_qps = sz.live_fixed_qps;
      // Phase A keeps the trace's request order and mix but spaces the
      // requests evenly: a fixed offered rate, so p50 is the service
      // latency at that load rather than the queueing behind whichever
      // sessions this seed happens to compress into microbursts.
      std::vector<LogRecord> fixed_rate(trace.begin(),
                                        trace.begin() + static_cast<long>(a));
      for (std::size_t k = 0; k < fixed_rate.size(); ++k)
        fixed_rate[k].timestamp =
            fixed_rate.front().timestamp + static_cast<UnixSeconds>(k);
      plan_a = net::BuildReplayPlan(fixed_rate, po);
      // Offered far above capacity: every request of a burst is due at once.
      po.target_qps = 1e9;
      plans_b.clear();
      const std::span<const LogRecord> rest = std::span(trace).subspan(a);
      for (std::size_t k = 0; k < kOverloadBursts; ++k) {
        const std::size_t lo = rest.size() * k / kOverloadBursts;
        const std::size_t hi = rest.size() * (k + 1) / kOverloadBursts;
        plans_b.push_back(
            net::BuildReplayPlan(rest.subspan(lo, hi - lo), po));
      }
    }
    ScopedSpan span(tracer, "net.server_start");
    server.emplace(tracer.on());
  });

  net::ReplayOptions ro;
  ro.port = server->port();
  ro.connections = std::max(1, Threads() - 1);
  ro.persistent = true;
  ro.verify = true;

  PeakRss peak;
  peak.Reset();
  net::ReplayReport ra;
  std::vector<net::ReplayReport> rbs;
  double cpu_b = 0, client_cpu_b = 0;
  {
    ScopedSpan span(tracer, "net.replay_fixed_rate");
    ra = net::ExecuteReplay(plan_a, ro);
  }
  for (const net::ReplayPlan& plan_b : plans_b) {
    ScopedSpan span(tracer, "net.replay_overload");
    const double s0 = server->CpuSeconds();
    const double p0 = ProcessCpuSeconds();
    rbs.push_back(net::ExecuteReplay(plan_b, ro));
    const double cpu = server->CpuSeconds() - s0;
    cpu_b += cpu;
    client_cpu_b += (ProcessCpuSeconds() - p0) - cpu;
  }
  {
    ScopedSpan span(tracer, "net.drain");
    server->Stop();
  }
  const double peak_mb = peak.Mb();
  const net::LiveService& svc = server->service();
  std::optional<std::string> mismatch;
  {
    ScopedSpan span(tracer, "net.log_match");
    mismatch = net::LiveLogMatchesTrace(trace, svc.log());
  }

  // Phase B's requests, errors and wall time over all its bursts.
  std::uint64_t sent_b = 0, http_errors = ra.http_errors,
                transport_errors = ra.transport_errors,
                verify_failures = ra.verify_failures;
  double wall_b = 0;
  std::vector<double> burst_qps;
  for (const net::ReplayReport& rb : rbs) {
    sent_b += rb.sent;
    http_errors += rb.http_errors;
    transport_errors += rb.transport_errors;
    verify_failures += rb.verify_failures;
    wall_b += rb.wall_seconds;
    burst_qps.push_back(rb.achieved_qps);
  }
  res.Ops(ra.sent + sent_b, http_errors, "http errors");
  res.Ops(0, transport_errors, "transport errors");
  res.Ops(0, verify_failures, "verify failures");
  res.Check(!mismatch, "live log does not match trace: " +
                           mismatch.value_or(""));
  res.fingerprints.push_back({"trace", Hex(TraceFingerprint(trace))});
  res.fingerprints.push_back({"requests", std::to_string(trace.size())});

  res.Metric("live_p50_ms", ra.LatencyQuantile(0.5) * 1e3, "ms");
  res.Metric("live_max_rps", Median(burst_qps), "req/s");
  res.Metric("peak_rss_mb", peak_mb, "MB");
  if (!tracer.on()) return;

  const int serve = tracer.Add("net.serve", server->serve_start(),
                               server->serve_end(), -1);
  std::vector<double> handle_us;
  handle_us.reserve(server->handles().size());
  for (const auto& [t0, t1] : server->handles()) {
    tracer.Add("net.handle", t0, t1, serve);
    handle_us.push_back((t1 - t0) * 1e6);
  }
  const double requests = static_cast<double>(ra.sent + sent_b);
  const double per_req_b =
      1e6 / static_cast<double>(std::max<std::uint64_t>(sent_b, 1));
  const net::LiveCounters& c = svc.counters();
  tracer.Count("net.requests", requests);
  res.Metric("net.handle_us_p50", Quantile(handle_us, 0.5), "us");
  res.Metric("net.handle_us_p99", Quantile(handle_us, 0.99), "us");
  res.Metric("net.server_cpu_us_per_req", cpu_b * per_req_b, "us");
  res.Metric("net.server_busy_share", wall_b > 0 ? cpu_b / wall_b : 0,
             "fraction");
  res.Metric("net.client_cpu_us_per_req", client_cpu_b * per_req_b, "us");
  res.Metric("net.latency_p99_ms", ra.LatencyQuantile(0.99) * 1e3, "ms");
  res.Metric("net.chunk_latency_p50_ms", ra.ChunkLatencyQuantile(0.5) * 1e3,
             "ms");
  res.Metric("net.schedule_overrun_s", ra.wall_seconds - plan_a.duration, "s");
  res.Metric("net.dedup_hits", static_cast<double>(c.dedup_hits), "count");
  res.Metric("net.replica_serves", static_cast<double>(c.replica_serves),
             "count");
  res.Metric("net.bytes_in", static_cast<double>(c.bytes_in), "B");
  res.Metric("net.bytes_out", static_cast<double>(c.bytes_out), "B");
  res.Metric("net.requests", requests, "count");
  res.Metric("net.http_errors", static_cast<double>(http_errors), "count");
  res.Metric("net.transport_errors", static_cast<double>(transport_errors),
             "count");
  res.Metric("net.verify_failures", static_cast<double>(verify_failures),
             "count");
}

// ---------------------------------------------------------------------------

void PrintResult(const Options& opt, const Result& res,
                 const std::map<std::string, double>& self_time) {
  std::string out = "{\"workload\": " + JsonString(opt.workload) +
                    ", \"scale\": " + JsonString(opt.scale) +
                    ", \"seed\": " + std::to_string(opt.seed) +
                    ", \"correct\": " + (res.correct ? "true" : "false") +
                    ", \"attempted\": " + std::to_string(res.attempted) +
                    ", \"failed\": " + std::to_string(res.failed) +
                    ", \"failures\": [";
  for (std::size_t i = 0; i < res.failures.size(); ++i)
    out += (i ? ", " : "") + JsonString(res.failures[i]);
  out += "], \"notes\": [";
  for (std::size_t i = 0; i < res.notes.size(); ++i)
    out += (i ? ", " : "") + JsonString(res.notes[i]);
  out += "], \"fingerprints\": {";
  for (std::size_t i = 0; i < res.fingerprints.size(); ++i)
    out += (i ? ", " : "") + JsonString(res.fingerprints[i].first) + ": " +
           JsonString(res.fingerprints[i].second);
  out += "}, \"provenance\": {\"build_type\": " +
         JsonString(PERFBENCH_BUILD_TYPE) +
         ", \"compiler\": " + JsonString(PERFBENCH_COMPILER) +
         ", \"hardware_threads\": " + std::to_string(Threads()) + "}";
  out += ", \"metrics\": {";
  bool first = true;
  const auto emit = [&](const std::string& name, double v,
                        const std::string& unit) {
    char num[40];
    std::snprintf(num, sizeof(num), "%.17g", std::isfinite(v) ? v : 0.0);
    out += (first ? "" : ", ") + JsonString(name) + ": [" + num + ", " +
           JsonString(unit) + "]";
    first = false;
  };
  for (const auto& [name, vu] : res.metrics) emit(name, vu.first, vu.second);
  for (const auto& [layer, s] : self_time) emit("self." + layer + "_s", s, "s");
  out += "}}";
  std::printf("%s\n", out.c_str());
}

int Usage() {
  std::fprintf(stderr,
               "usage: perfbench --workload gen-resident|grow-ooc|fleet-faults|"
               "live-replay --seed N --seconds S [--scale full|tiny] "
               "[--trace 0|1] [--reference 0|1] [--spans FILE] "
               "[--tmp DIR]\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  Options opt;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string_view flag = argv[i];
    const char* v = argv[i + 1];
    if (flag == "--workload") opt.workload = v;
    else if (flag == "--seed") opt.seed = std::strtoull(v, nullptr, 10);
    else if (flag == "--seconds") opt.seconds = std::strtod(v, nullptr);
    else if (flag == "--scale") opt.scale = v;
    else if (flag == "--trace") opt.trace = std::string_view(v) == "1";
    else if (flag == "--reference") opt.reference = std::string_view(v) == "1";
    else if (flag == "--spans") opt.spans_path = v;
    else if (flag == "--tmp") opt.tmp = v;
    else return Usage();
  }
  if (argc % 2 == 0 || opt.seconds < 0 ||
      (opt.scale != "full" && opt.scale != "tiny"))
    return Usage();

  // Every library call starts fresh pool threads. Left alone, glibc gives
  // each new thread a fresh malloc arena or an old one depending on start-up
  // timing, which flipped peak RSS by ~60 MB between identical runs (live
  // replay, and grow-ooc at 220 vs 280 MB); two arenas make it repeatable.
  mallopt(M_ARENA_MAX, 2);
  const Sizes sz = SizesFor(opt.scale);
  Tracer tracer(opt.trace);
  Result res;
  try {
    std::filesystem::create_directories(opt.tmp);
    if (opt.workload == "gen-resident")
      RunPipelineWorkload(opt, sz, false, res, tracer);
    else if (opt.workload == "grow-ooc")
      RunPipelineWorkload(opt, sz, true, res, tracer);
    else if (opt.workload == "fleet-faults")
      RunFleetWorkload(opt, sz, res, tracer);
    else if (opt.workload == "live-replay")
      RunLiveWorkload(opt, sz, res, tracer);
    else
      return Usage();
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    std::filesystem::remove_all(opt.tmp / "spill");
    return 1;
  }
  if (tracer.on())
    res.Metric("tracing.spans", static_cast<double>(tracer.spans()), "count");
  PrintResult(opt, res,
              tracer.on() ? tracer.SelfTimeByLayer()
                          : std::map<std::string, double>{});
  tracer.Write(opt.spans_path);
  return res.correct ? 0 : 1;
}
