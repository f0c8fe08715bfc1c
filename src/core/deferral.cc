#include "core/deferral.h"

#include <algorithm>
#include <unordered_map>
#include <unordered_set>

#include "util/error.h"
#include "util/rng.h"

namespace mcloud::core {

DeferralResult SimulateDeferral(std::span<const LogRecord> trace,
                                const DeferralPolicy& policy,
                                UnixSeconds trace_start, int days,
                                std::uint64_t seed) {
  MCLOUD_REQUIRE(policy.peak_begin_hour >= 0 && policy.peak_end_hour <= 24 &&
                     policy.peak_begin_hour < policy.peak_end_hour,
                 "bad peak window");
  MCLOUD_REQUIRE(policy.defer_begin_hour >= 0 &&
                     policy.defer_end_hour <= 24 &&
                     policy.defer_begin_hour < policy.defer_end_hour,
                 "bad deferral window");
  MCLOUD_REQUIRE(policy.opt_in >= 0 && policy.opt_in <= 1,
                 "opt-in must be a probability");

  // Users who retrieve anything during the window are excluded when the
  // policy protects same-week readers.
  std::unordered_set<std::uint64_t> retrievers;
  if (policy.only_non_retrievers) {
    for (const LogRecord& r : trace) {
      if (r.direction == Direction::kRetrieve) retrievers.insert(r.user_id);
    }
  }

  Rng rng(seed);
  // Per-user opt-in decision must be stable across their records.
  std::unordered_map<std::uint64_t, bool> opted;

  std::vector<LogRecord> shifted;
  shifted.reserve(trace.size());
  DeferralResult result;
  double store_volume = 0;
  double deferred_volume = 0;

  for (const LogRecord& r : trace) {
    LogRecord copy = r;
    const bool is_store_chunk =
        r.direction == Direction::kStore &&
        r.request_type == RequestType::kChunkRequest;
    if (is_store_chunk) store_volume += static_cast<double>(r.data_volume);

    const int hour_of_day = HourOfDay(r.timestamp, trace_start);
    const bool in_peak = hour_of_day >= policy.peak_begin_hour &&
                         hour_of_day < policy.peak_end_hour;
    const bool store_req = r.direction == Direction::kStore;

    if (store_req && in_peak &&
        (!policy.only_non_retrievers || !retrievers.contains(r.user_id))) {
      auto [it, inserted] = opted.try_emplace(r.user_id, false);
      if (inserted) it->second = rng.Bernoulli(policy.opt_in);
      if (it->second) {
        // Move to a uniform slot in the next morning's deferral window.
        const int day = DayIndex(r.timestamp, trace_start);
        const UnixSeconds next_morning =
            trace_start +
            static_cast<UnixSeconds>(day + 1) *
                static_cast<UnixSeconds>(kDay) +
            static_cast<UnixSeconds>(policy.defer_begin_hour) *
                static_cast<UnixSeconds>(kHour);
        const auto window = static_cast<UnixSeconds>(
            (policy.defer_end_hour - policy.defer_begin_hour) * kHour);
        copy.timestamp =
            next_morning + static_cast<UnixSeconds>(rng.UniformInt(
                               static_cast<std::uint64_t>(window)));
        if (is_store_chunk) {
          ++result.deferred_chunks;
          deferred_volume += static_cast<double>(r.data_volume);
        }
      }
    }
    shifted.push_back(copy);
  }
  std::sort(shifted.begin(), shifted.end(), LogRecordTimeOrder);

  // Deferrals past the trace end spill into an extra day of bins.
  result.before = analysis::BuildTimeseries(trace, trace_start, days + 1);
  result.after = analysis::BuildTimeseries(shifted, trace_start, days + 1);

  for (const auto& h : result.before.hours)
    result.peak_before_gb = std::max(result.peak_before_gb,
                                     h.StoreVolumeGb());
  for (const auto& h : result.after.hours)
    result.peak_after_gb = std::max(result.peak_after_gb, h.StoreVolumeGb());
  result.peak_reduction =
      result.peak_before_gb > 0
          ? 1.0 - result.peak_after_gb / result.peak_before_gb
          : 0.0;
  result.deferred_share =
      store_volume > 0 ? deferred_volume / store_volume : 0.0;
  return result;
}

}  // namespace mcloud::core
