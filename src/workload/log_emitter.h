// Fast execution backend: turns SessionPlans into LogRecords with sampled
// (rather than packet-simulated) timing.
//
// This backend generates the multi-million-record week trace consumed by all
// §3 behavioural analyses, where only the *fields* of Table 1 matter. The §4
// performance benches use cloud::StorageService, which executes sessions
// through the TCP substrate instead and produces mechanistic timings.
//
// Two emission paths produce the identical record stream from the identical
// RNG draws (pinned by tests):
//   * EmitSession — scalar AoS reference path, one LogRecord per push_back
//     (kept for the tests that pin the fast path against it).
//   * EmitSessionColumnar — the fast path: all post-connection draws of a
//     session are standard normals, so one batched FillNormal supplies the
//     whole session and fields are stored straight into SoA columns.
#pragma once

#include <vector>

#include "trace/log_record.h"
#include "trace/record_columns.h"
#include "util/rng.h"
#include "workload/session_plan.h"

namespace mcloud::workload {

/// Reusable per-worker emission scratch (the batched normal buffer). Keep
/// one per shard and steady-state emission allocates nothing.
struct EmitScratch {
  std::vector<double> normals;
};

class FastLogEmitter {
 public:
  FastLogEmitter() = default;

  /// Emit the log records of one session, appended to `out`.
  void EmitSession(const SessionPlan& session, Rng& rng,
                   std::vector<LogRecord>& out) const;

  /// Columnar twin of EmitSession: appends the same records (same RNG
  /// stream, bit-identical fields) to SoA columns, drawing the session's
  /// normals as one batch.
  void EmitSessionColumnar(const SessionPlan& session, Rng& rng,
                           RecordColumns& out, EmitScratch& scratch) const;

  /// Effective application-level throughput (bytes/s) of a device for a
  /// direction, before per-session jitter.
  [[nodiscard]] static double BaseThroughput(DeviceType device,
                                             Direction direction);
};

}  // namespace mcloud::workload
