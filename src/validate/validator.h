// The validation driver behind `mcloudctl validate`: generate a trace
// through the columnar path, run the analysis pipeline (the checks read
// its streaming sketches), execute the §4 fleet simulation, evaluate every
// FigureCheck, and
// emit a machine-readable pass/fail manifest. A seed-sweep mode re-runs the
// whole thing across seeds and bootstraps a pass-rate confidence interval,
// which is how the tolerance slacks in figure_checks.cc are calibrated to a
// false-positive rate (DESIGN.md §7).
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "cloud/fleet.h"
#include "stats/bootstrap.h"
#include "util/units.h"
#include "validate/figure_checks.h"
#include "workload/model_params.h"

namespace mcloud::validate {

struct ValidateOptions {
  /// Sentinel for `pc_users`: derive the PC-only population as users/3.
  static constexpr std::size_t kPcUsersAuto = static_cast<std::size_t>(-1);

  std::size_t users = 20'000;       ///< mobile users
  /// PC-only users; kPcUsersAuto = users/3 (the legacy derivation). Not
  /// part of ManifestFingerprint: the scenario layer passes the spec's
  /// explicit population here, and a spec that declares the derived values
  /// (paper2016) must fingerprint identically to the default run.
  std::size_t pc_users = kPcUsersAuto;
  std::uint64_t seed = 42;
  /// Runtime generator model; the default reproduces the compile-time
  /// calibration byte for byte. Filled by `validate --spec`; excluded from
  /// ManifestFingerprint for the same reason as `pc_users`.
  workload::ModelParams model{};
  int threads = 0;                  ///< 0 = hardware concurrency
  /// §4 fleet: single-file sessions through the full service stack
  /// (the packet-trace stand-in, ~78% android as in the paper).
  std::size_t fleet_flows = 3'000;
  Bytes flow_file_size = 8 * kMiB;  ///< the Fig 13 single-flow transfers
  /// Shard count of the fleet simulation — the unit of determinism, fixed
  /// independently of `threads` (see cloud/fleet.h). Part of the sample
  /// identity: changing it reseeds the fleet.
  std::uint32_t fleet_shards = 8;
  /// Out-of-core mode: generate with bounded-memory spilling into a
  /// partitioned on-disk trace and analyze it via RunStreaming. Execution
  /// strategy, not sample identity — none of these three knobs enter
  /// ManifestFingerprint, and an out-of-core run fingerprints identically
  /// to the resident run it mirrors (the CI smoke job checks exactly that).
  bool out_of_core = false;
  /// Analyze-while-generate mode: generation spills sealed slices into the
  /// concurrent pipeline (AnalysisPipeline::RunConcurrent) instead of
  /// running generation and analysis as two phases. Like `out_of_core`,
  /// pure execution strategy — the manifest fingerprint is identical to the
  /// resident run's.
  bool concurrent = false;
  /// Approximate resident budget (MB) for out-of-core generation+analysis.
  std::size_t max_memory_mb = 2048;
  /// Spill directory for out-of-core mode; empty = a unique temp directory,
  /// removed when the run finishes.
  std::string spill_dir;
};

/// One full validation run: every check outcome plus phase wall times.
struct ValidationRun {
  ValidateOptions options;
  std::vector<CheckOutcome> outcomes;
  double generate_s = 0;  ///< workload generation (0 in concurrent mode —
                          ///< generation overlaps analysis there)
  double analyze_s = 0;   ///< analysis pipeline
  double fleet_s = 0;     ///< §4 service simulation + Fig 13 flows
  double checks_s = 0;    ///< all FigureCheck evaluations
  double total_s = 0;
  /// Resident bytes of the report's streaming sketches (ReportSketches) —
  /// the whole validation-input footprint beyond the fitted summaries.
  std::size_t sketch_bytes = 0;
  /// Per-shard event-core observability from the sharded fleet run.
  std::vector<cloud::ShardTelemetry> fleet_shards;
  /// FingerprintServiceResult of the merged fleet ServiceResult.
  std::uint64_t fleet_fingerprint = 0;

  [[nodiscard]] std::size_t Passed() const;
  [[nodiscard]] bool AllPassed() const {
    return Passed() == outcomes.size();
  }
};

/// Seed-sweep result: per-seed runs plus the bootstrapped pass-rate CI.
struct SeedSweep {
  std::vector<ValidationRun> runs;   ///< seeds seed, seed+1, ...
  double run_pass_rate = 0;          ///< fraction of runs with AllPassed()
  BootstrapCi pass_rate_ci;          ///< 95% bootstrap CI of run_pass_rate
  /// Total failures per check id across the sweep (empty when clean).
  std::vector<std::pair<std::string, std::size_t>> failures_by_check;
};

/// Generate the workload, run the analyses and the §4 fleet, and package
/// everything the checks read. Deterministic in (users, seed, fleet knobs);
/// thread count never changes the result.
[[nodiscard]] ValidationInputs BuildValidationInputs(
    const ValidateOptions& options, ValidationRun* timings = nullptr);

/// BuildValidationInputs + EvaluateChecks, with phase timings.
[[nodiscard]] ValidationRun RunValidation(const ValidateOptions& options);

/// Run `seeds` validations at seed, seed+1, ... and bootstrap the run-level
/// pass rate (the calibration target: >= 95% of seeds must pass).
[[nodiscard]] SeedSweep RunSeedSweep(const ValidateOptions& options,
                                     std::size_t seeds);

/// FNV-1a fingerprint of a run's deterministic content: the options that
/// define the sample (threads excluded — it never changes output), every
/// check verdict/statistic, the fleet fingerprint, and the per-shard event
/// counters. Wall-clock times are excluded, so two runs of the same build
/// at different `--threads` values produce the same fingerprint — the CI
/// fleet-determinism job compares exactly this value.
[[nodiscard]] std::uint64_t ManifestFingerprint(const ValidationRun& run);

/// Machine-readable manifests (stable field names; consumed by CI).
[[nodiscard]] std::string ToJson(const ValidationRun& run);
[[nodiscard]] std::string ToJson(const SeedSweep& sweep);

/// Aligned per-check text table for terminal output.
[[nodiscard]] std::string RenderText(const ValidationRun& run);

}  // namespace mcloud::validate
