// AnalysisPipeline: the end-to-end §3 methodology as one call — trace in,
// FullReport out. This is the primary public entry point of the library for
// log-analysis consumers (see examples/quickstart.cpp).
//
// Every entry point drives the same two streaming cores
// (analysis/stream_engine.h) through one private walk driver over a row
// source — a resident TraceStore (its day partitions), a PartitionedTrace
// (its Scan) or, in RunConcurrent, one TraceStore per generated slice —
// followed by one shared tail of fits and per-user stages. Only
// `session_tau` picks the walk plan: a fixed τ needs one walk over the
// rows, the valley-derived τ (0) needs two, because sessionization waits
// for the completed interval sketch. All entry points produce the same
// FullReport, bit for bit; pinned FingerprintReport goldens in the tests
// hold them to it.
#pragma once

#include <cstddef>
#include <functional>
#include <span>
#include <vector>

#include "core/report.h"
#include "trace/log_record.h"
#include "trace/partitioned_trace.h"
#include "trace/record_columns.h"
#include "trace/trace_store.h"

namespace mcloud::core {

struct PipelineOptions {
  UnixSeconds trace_start = kTraceStart;
  int days = 7;
  /// τ for session identification; 0 = derive it from the data via the
  /// Fig 3 histogram-valley method instead of assuming one hour.
  Seconds session_tau = kHour;
  /// Worker threads for the independent analysis stages; 0 = hardware
  /// concurrency, and requests wider than the hardware are clamped to it
  /// (oversubscribing the CPU-bound fit stages only slows them down).
  /// Results are identical for every thread count — stages compute disjoint
  /// report fields from read-only inputs.
  int threads = 0;
  /// Approximate resident budget (MB) for the streaming engines' staging
  /// buffers; 0 = a 1 GiB default. Only a tuning knob — the report is
  /// bit-identical at every budget.
  std::size_t max_memory_mb = 0;
};

/// Wall-clock seconds spent per stage family, for the bench breakdowns.
/// Stages run concurrently, so the fields can sum to more than `total_s`.
struct StageTimings {
  /// The walk over the rows: hourly series, interval sample, overview
  /// counts (and, at a fixed τ, the per-user pass's folds riding along).
  double scan_s = 0;
  /// Session identification: the per-user pass's Finish (and, when τ is
  /// derived, its own walk); the pass also builds the usage tables inside
  /// this number.
  double sessionize_s = 0;
  /// Per-user aggregations: Table 3 columns, engagement curves, session
  /// statistics.
  double per_user_s = 0;
  /// Numeric fits: interval GMM, activity models, file-size EM mixtures.
  double fits_s = 0;
  double total_s = 0;
};

class AnalysisPipeline {
 public:
  explicit AnalysisPipeline(const PipelineOptions& options = {});

  /// Run every §3 analysis over a time-sorted trace (mobile + PC records).
  /// Converts to a TraceStore and runs Run(const TraceStore&).
  [[nodiscard]] FullReport Run(std::span<const LogRecord> trace,
                               StageTimings* timings = nullptr) const;

  /// Walks a prebuilt store's day partitions (needs kAnalysisColumns).
  [[nodiscard]] FullReport Run(const TraceStore& store,
                               StageTimings* timings = nullptr) const;

  /// Streams a partitioned on-disk trace one calendar-day partition at a
  /// time, under the `max_memory_mb` staging budget: one disk scan at a
  /// fixed τ, two when τ is derived. The FullReport is bit-identical to
  /// Run(const TraceStore&) on the merged resident trace, at every thread
  /// count and every budget.
  [[nodiscard]] FullReport RunStreaming(const PartitionedTrace& trace,
                                        StageTimings* timings = nullptr) const;

  /// Sink for RunConcurrent's producer: hand over one sealed, time-sorted
  /// trace slice in columnar (SoA) form — the generator fast path's native
  /// layout, so no transpose happens on the analysis side. Blocks while the
  /// analysis side is busy (bounded queue, depth 1), which backpressures
  /// generation to the analysis rate.
  using SliceConsumer = std::function<void(RecordColumns&&)>;

  /// Analyze-while-generate engine: `produce` emits sealed trace slices into
  /// a bounded queue; a consumer thread walks each slice as its own
  /// TraceStore while the producer builds the next one, and the merged
  /// results feed the same shared tail. Requires a fixed
  /// `session_tau` (> 0) and slices that (a) are time-sorted internally,
  /// (b) partition the user space into contiguous ascending ranges — every
  /// user's full history in exactly one slice — as
  /// GenerateToPartitions' spill slices do. Under those invariants the
  /// FullReport is bit-identical to Run on the concatenated trace.
  [[nodiscard]] FullReport RunConcurrent(
      const std::function<void(const SliceConsumer&)>& produce,
      StageTimings* timings = nullptr) const;

  [[nodiscard]] const PipelineOptions& options() const { return options_; }

 private:
  PipelineOptions options_;
};

}  // namespace mcloud::core
