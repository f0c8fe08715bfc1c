// The aggregated findings report — everything §3 of the paper derives from
// the trace, in one struct, with a renderer that prints the Table 4-style
// summary of findings and implications.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "analysis/activity_model.h"
#include "analysis/burstiness.h"
#include "analysis/engagement.h"
#include "analysis/file_size_model.h"
#include "analysis/interval_model.h"
#include "analysis/session_stats.h"
#include "analysis/usage_patterns.h"
#include "analysis/workload_timeseries.h"

namespace mcloud::core {

/// Streaming sketches and exact counters behind the fitted summaries —
/// the O(sketch) replacement for the retained raw-sample vectors (DESIGN.md
/// §12). Always populated, identically by every engine and at every thread
/// count. The paper-fidelity validation layer (src/validate/) runs its
/// grouped KS/AD gates and share checks on these instead of the fitted
/// parameters, so a fit that silently absorbs a generator regression still
/// trips the gate.
struct ReportSketches {
  /// Mobile inter-file-operation gaps: jitter-binned log10 sketch
  /// (Fig 3 input; see interval_model.h).
  LogBins intervals = analysis::MakeIntervalSketch();
  /// Per-session average file size (MB) of mobile store-only /
  /// retrieve-only sessions (Table 2 / Fig 6 inputs).
  LogBins store_avg_mb = analysis::MakeSizeSketch();
  LogBins retrieve_avg_mb = analysis::MakeSizeSketch();
  TDigest store_avg_mb_digest;
  TDigest retrieve_avg_mb_digest;
  /// Fig 5a counters over all mobile sessions.
  std::uint64_t single_op_sessions = 0;
  std::uint64_t over20_op_sessions = 0;
  /// Fig 7a counters: mobile-only users with |log10 ratio| < 5, and the
  /// ratio-sample size (zero-traffic users skipped).
  std::uint64_t ratio_middle_users = 0;
  std::uint64_t ratio_sample_users = 0;

  [[nodiscard]] std::size_t MemoryBytes() const {
    return intervals.MemoryBytes() + store_avg_mb.MemoryBytes() +
           retrieve_avg_mb.MemoryBytes() + store_avg_mb_digest.MemoryBytes() +
           retrieve_avg_mb_digest.MemoryBytes() + 4 * sizeof(std::uint64_t);
  }
};

struct FullReport {
  // Dataset overview (§2.2).
  std::size_t records = 0;
  std::size_t mobile_users = 0;
  std::size_t mobile_devices = 0;
  double android_access_share = 0;

  // Workload (§2.4).
  analysis::WorkloadTimeseries timeseries;

  // Sessions (§3.1).
  analysis::IntervalModel interval_model{
      Histogram(0.0, 6.0, 60), {}, 0, 0, 0, 0};
  analysis::SessionTypeSplit session_split;
  std::vector<analysis::BurstinessGroup> burstiness;
  analysis::FileSizeModel store_size_model;
  analysis::FileSizeModel retrieve_size_model;

  // Usage patterns (§3.2).
  analysis::UserTypeColumn mobile_only_column;
  analysis::UserTypeColumn mobile_pc_column;
  analysis::UserTypeColumn pc_only_column;
  std::vector<analysis::EngagementCurve> engagement;
  std::vector<analysis::RetrievalReturnCurve> retrieval_returns;
  analysis::ActivityModelResult store_activity;
  analysis::ActivityModelResult retrieve_activity;

  /// Streaming validation inputs (always populated; O(sketch) memory).
  ReportSketches sketches;
};

/// Render the Table 4-style findings summary (paper value vs measured).
[[nodiscard]] std::string RenderFindings(const FullReport& report);

/// Order-sensitive FNV-1a hash over every field of the report (doubles by
/// bit pattern). Two reports fingerprint equal iff they are bit-identical —
/// the equivalence oracle across entry points, thread counts and pinned
/// goldens.
[[nodiscard]] std::uint64_t FingerprintReport(const FullReport& report);

}  // namespace mcloud::core
