// Top-level workload generator: population → session plans → one-week trace.
//
// The produced trace is the synthetic stand-in for the paper's 349M-record
// dataset (see DESIGN.md §1 for the substitution argument): every §3 figure
// and table is regenerated by running the paper's analyses over this trace.
//
// Fast path (DESIGN.md §15): workers plan with pooled scratch, emit records
// straight into structure-of-arrays columns with batched normal draws, and
// the time order is established by ONE global stable radix sort over the
// user-ordered concatenation — provably the same order the previous
// per-shard std::stable_sort + stable k-way merge produced, with the same
// RNG streams, so the trace is byte-identical at every thread count.
#pragma once

#include <cstddef>
#include <filesystem>
#include <functional>
#include <vector>

#include "trace/log_record.h"
#include "trace/record_columns.h"
#include "trace/trace_store.h"
#include "util/rng.h"
#include "util/timeutil.h"
#include "workload/model_params.h"
#include "workload/session_plan.h"
#include "workload/user_model.h"

namespace mcloud::workload {

struct WorkloadConfig {
  std::uint64_t seed = 42;
  PopulationConfig population{};
  /// Runtime model parameters (session mix, size mixtures, diurnal curve,
  /// device mix, burstiness). Defaults reproduce the compile-time
  /// calibration byte for byte; the scenario layer compiles WorkloadSpecs
  /// into this field.
  ModelParams model{};
  UnixSeconds trace_start = kTraceStart;
  /// Worker threads for generation; 0 = hardware concurrency. The output is
  /// byte-identical for every thread count (per-user streams are stateless
  /// and shard runs concatenate in user order before the one global stable
  /// sort — see DESIGN.md "Concurrency model" and §15).
  int threads = 0;
};

struct Workload {
  std::vector<UserProfile> users;
  std::vector<SessionPlan> sessions;    ///< chronological
  std::vector<LogRecord> trace;         ///< time-sorted HTTP request logs
};

/// Workload variant whose trace is emitted straight into the columnar store:
/// the sorted record columns move into a TraceStore::Builder, so the full
/// AoS trace vector never exists.
struct ColumnarWorkload {
  std::vector<UserProfile> users;
  std::vector<SessionPlan> sessions;    ///< chronological
  TraceStore trace;
};

/// Per-stage generation timings + pooled-scratch growth counters (the
/// allocation diagnostic: steady-state generation should stop growing after
/// warm-up). plan/emit are CPU seconds summed across workers; sort/write
/// are wall seconds (the sort runs on the pool, the writes on one thread).
struct GenTimings {
  double plan_s = 0;   ///< population build + per-user session planning
  double emit_s = 0;   ///< record emission (batched draws + column stores)
  double sort_s = 0;   ///< radix time-order sorts (global or per-spill)
  double write_s = 0;  ///< spill run files + manifest (out-of-core only)
  double total_s = 0;
  /// SessionPlan slots allocated across all pooled planning scratches.
  std::size_t plan_slot_allocs = 0;
  /// Capacity-growth events of pooled record buffers (per-shard/-chunk
  /// columns and the spill buffer).
  std::size_t record_buffer_growths = 0;
};

/// Bounded-memory generation knobs (see GenerateToPartitions).
struct SpillConfig {
  /// Existing, writable directory that receives the partitioned trace.
  std::filesystem::path dir;
  /// Spill the emission buffer when it would exceed this many bytes of
  /// LogRecords (approximate — one user chunk may overshoot). Default
  /// 512 MiB. Flush points are a pure function of this value (still
  /// accounted in AoS record bytes, so spill boundaries are unchanged from
  /// the AoS emitter), never of the thread count.
  std::size_t max_buffer_bytes = std::size_t{512} * 1024 * 1024;
  /// Users planned+emitted per work chunk. Chunk boundaries are a pure
  /// function of this value, never of the thread count, so spill contents
  /// are thread-independent.
  std::size_t users_per_chunk = 1024;
};

struct SpillSummary {
  std::size_t users = 0;
  std::uint64_t records = 0;
  std::size_t spills = 0;     ///< buffer flushes (sorted slices written)
  std::size_t run_files = 0;  ///< per-day run files across all spills
};

class WorkloadGenerator {
 public:
  explicit WorkloadGenerator(const WorkloadConfig& config);

  /// Generate the full workload: users, plans, and the emitted trace as
  /// records — GenerateColumnar() followed by TraceStore::ToRecords(), for
  /// callers that need LogRecords. `timings` covers the columnar part.
  [[nodiscard]] Workload Generate(GenTimings* timings = nullptr) const;

  /// Generate the workload with the trace in columnar form: the time-sorted
  /// record columns move into the store, so no AoS trace ever exists.
  [[nodiscard]] ColumnarWorkload GenerateColumnar(
      GenTimings* timings = nullptr) const;

  /// Generate plans only (no log emission) — used by the cloud service
  /// simulator, which executes the plans itself.
  [[nodiscard]] Workload GeneratePlansOnly() const;

  /// Bounded-memory generation: plan+emit users in fixed chunks, keep at
  /// most ~`spill.max_buffer_bytes` of records resident, and spill each
  /// full buffer as a stably-sorted slice into a partitioned on-disk trace
  /// (see trace/partitioned_trace.h). Session plans are discarded after
  /// emission. The merged partitioned trace replays the exact record
  /// sequence GenerateColumnar() builds — same seed, same per-user streams,
  /// same stable order — at every thread count and every buffer size.
  [[nodiscard]] SpillSummary GenerateToPartitions(
      const SpillConfig& spill, GenTimings* timings = nullptr) const;

  /// Receives each sealed, time-sorted spill slice right after it is written
  /// to disk (ownership transfers — the generator is done with it). Slices
  /// partition the user space into contiguous ascending ranges, each user's
  /// full week in exactly one slice, which is the invariant
  /// AnalysisPipeline::RunConcurrent relies on. Slices arrive in columnar
  /// (SoA) form — already the layout the analysis side consumes.
  using SliceSink = std::function<void(RecordColumns&&)>;

  /// GenerateToPartitions with a slice sink — the producer side of the
  /// analyze-while-generate pipeline. A blocking sink backpressures
  /// generation, so resident memory stays bounded by a few slices.
  [[nodiscard]] SpillSummary GenerateToPartitions(
      const SpillConfig& spill, const SliceSink& slice_sink,
      GenTimings* timings = nullptr) const;

  [[nodiscard]] const WorkloadConfig& config() const { return config_; }

 private:
  /// Users + globally-sorted session plans; when `trace` is non-null, also
  /// the emitted record columns in global time order.
  [[nodiscard]] Workload PlanAndEmit(ThreadPool& pool, RecordColumns* trace,
                                     GenTimings* timings) const;

  WorkloadConfig config_;
};

}  // namespace mcloud::workload
