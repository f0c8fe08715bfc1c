// Streaming (block-at-a-time) analysis cores.
//
// The AoS pipeline's first-touch stages — sessionizer, usage_patterns,
// engagement inputs, interval_model sampling, the §2.2 overview counts —
// each re-scan the trace and rediscover per-user structure through
// unordered_map probes on sparse 64-bit user ids. Over columnar rows they
// collapse into two incremental consumers of TraceRowBlock slices:
//
//   * StreamingRowPass — row (= time) order over the mobile rows: the Fig 1
//     hourly series, the Fig 3 inter-op interval sample (a dense per-user
//     last-op array instead of a hash map) and the overview's record
//     counts. Row order preserves the AoS floating-point accumulation order
//     exactly.
//   * StreamingPerUserPass — row order with dense per-user cursor arrays:
//     both sessionizations (full trace and mobile slice), both per-user
//     usage tables and the distinct-device count. Within one user, row
//     order equals run order, so every cursor folds the exact record
//     sequence the AoS sessionizer sees; a final sort by (user, begin) —
//     the same sort the AoS path ends with, over unique keys — restores the
//     canonical order.
//
// Per-user state is keyed by the *global* uint32 user remap and survives
// across blocks and calendar-day partitions, so feeding a resident
// TraceStore's day partitions and feeding an out-of-core
// PartitionedTrace::Scan produce bit-identical results. The only
// requirement is that blocks arrive in global row (= time) order, which
// both sources guarantee.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "analysis/interval_model.h"
#include "analysis/sessionizer.h"
#include "analysis/usage_patterns.h"
#include "analysis/workload_timeseries.h"
#include "trace/partitioned_trace.h"
#include "util/parallel.h"

namespace mcloud::analysis {

/// Row-order results: Fig 1 series, Fig 3 sketch, §2.2 counts.
struct RowPassResult {
  WorkloadTimeseries timeseries;
  /// Inter-file-operation gaps of mobile users (InterOpIntervals over the
  /// mobile records) as the jitter-binned log10 sketch, mergeable across
  /// trace slices (the jitter is a stateless hash of (user, timestamp) and
  /// per-bin sums are integer-exact).
  LogBins intervals = MakeIntervalSketch();
  std::size_t mobile_records = 0;
  std::size_t android_records = 0;
};

/// Per-user results: sessions, usage tables, device/user counts.
struct PerUserResult {
  /// Sessions over the full trace, in (user_id, begin) order.
  std::vector<Session> sessions;
  /// Sessions over the mobile rows only, in (user_id, begin) order.
  std::vector<Session> mobile_sessions;
  /// Per-user usage over the full trace, ascending user_id (one entry per
  /// user — every user has at least one record).
  std::vector<UserUsage> usage;
  /// Per-user usage over the mobile rows only, ascending user_id (users
  /// with no mobile record are absent).
  std::vector<UserUsage> mobile_usage;
  std::size_t mobile_users = 0;    ///< users with >= 1 mobile record
  std::size_t mobile_devices = 0;  ///< distinct mobile device ids
  /// The distinct mobile device ids themselves, sorted ascending — lets the
  /// concurrent pipeline union device sets across independently analyzed
  /// trace slices (a count alone cannot be merged).
  std::vector<std::uint64_t> mobile_device_ids;
};

/// Per-user mobility classes, accumulated as rows stream by.
inline constexpr std::uint8_t kMobileBit = 1;
inline constexpr std::uint8_t kPcBit = 2;
inline constexpr std::uint8_t kMixedMobility = kMobileBit | kPcBit;

/// Hourly series, inter-op interval sample, overview counts — and, as a
/// free by-product, each user's mobility class (a second walk's
/// StreamingPerUserPass takes it when τ is derived from this walk's
/// interval sample).
class StreamingRowPass {
 public:
  /// `user_ids` maps global dense index -> original id (the interval
  /// sketch's jitter is keyed by original user ids so every engine and
  /// slicing computes identical jitter) and must outlive the pass;
  /// `trace_start`/`days` bound the Fig 1 hourly window; `day_base` anchors
  /// the calendar-day keys passed to Consume (same epoch as the trace).
  StreamingRowPass(std::span<const std::uint64_t> user_ids,
                   UnixSeconds trace_start, int days, UnixSeconds day_base);

  /// Feed the next block. All rows must be in calendar day `day`, and
  /// blocks must arrive in global time order.
  void Consume(std::int64_t day, const TraceRowBlock& block);

  /// The row-pass result (call once, after the last block).
  [[nodiscard]] RowPassResult TakeResult();
  /// Per-user mobility classes (kMobileBit/kPcBit), for StreamingPerUserPass.
  [[nodiscard]] std::vector<std::uint8_t> TakeMobility();

 private:
  std::span<const std::uint64_t> user_ids_;
  UnixSeconds day_base_;
  UnixSeconds trace_start_;
  std::int64_t window_begin_;
  std::int64_t window_end_;
  RowPassResult out_;
  std::vector<std::int64_t> last_op_;
  std::vector<std::uint8_t> seen_;
  std::vector<std::uint8_t> mobility_;
};

/// Both sessionizations (full trace and mobile slice), both per-user usage
/// tables, distinct-device counts. Needs the session gap threshold `tau`;
/// with a mobility table from a finished row pass it folds only what each
/// user's class needs, without one it runs in inline-mobility mode and can
/// share the row pass's walk.
class StreamingPerUserPass {
 public:
  /// `user_ids` maps global dense index -> original id and must outlive the
  /// pass; `mobility` is TakeMobility()'s output (or any per-user class
  /// table of the same semantics).
  StreamingPerUserPass(std::span<const std::uint64_t> user_ids, Seconds tau,
                       std::vector<std::uint8_t> mobility);

  /// Inline-mobility mode for single-walk pipelines that have no mobility
  /// table yet: the pass accumulates mobility as rows stream by and runs
  /// the mobile-filtered fold for *every* user's mobile rows. At Finish the
  /// classes are known, and the speculative mobile results of users that
  /// turned out mobile-only are discarded (their full fold IS the mobile
  /// fold), producing output identical to the two-walk form.
  StreamingPerUserPass(std::span<const std::uint64_t> user_ids, Seconds tau);

  /// Feed the next block (global time order; day boundaries irrelevant —
  /// sessions span days).
  void Consume(const TraceRowBlock& block);

  /// Flush open sessions, restore canonical (user, begin) order, assemble
  /// the result. Call once, after the last block.
  [[nodiscard]] PerUserResult Finish(ThreadPool& pool);

 private:
  /// Open-session state for one user — the columnar twin of
  /// Sessionizer::Sessionize's OpenSession.
  struct SessionCursor {
    Session s;
    std::int64_t last_file_op = 0;
    bool has_file_op = false;
    bool open = false;
  };

  void Fold(SessionCursor& c, std::vector<Session>& sink,
            std::uint64_t user_id, std::int64_t t, bool is_op, bool is_store,
            bool mobile_row, std::uint64_t volume);

  std::span<const std::uint64_t> user_ids_;
  Seconds tau_;
  bool inline_mobility_ = false;
  std::vector<std::uint8_t> mobility_;
  std::vector<SessionCursor> cur_;
  std::vector<SessionCursor> mob_cur_;
  std::vector<UserUsage> usage_;
  std::vector<UserUsage> mob_usage_;
  std::vector<std::vector<std::uint64_t>> devs_;
  std::vector<Session> sessions_;
  std::vector<Session> mixed_mobile_;  ///< mobile sessions of mixed users
};

}  // namespace mcloud::analysis
