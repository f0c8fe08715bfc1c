#include "core/pipeline.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <condition_variable>
#include <exception>
#include <functional>
#include <mutex>
#include <optional>
#include <thread>
#include <utility>

#include "analysis/stream_engine.h"
#include "util/error.h"
#include "util/parallel.h"
#include "util/units.h"

namespace mcloud::core {
namespace {

using Clock = std::chrono::steady_clock;

double Since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

/// The per-user stages, run once the sessions and usage tables exist.
/// Every input is read-only and every stage writes disjoint report fields,
/// so the stages run concurrently; inputs are canonical (ascending user /
/// (user, begin) order), making the outputs source-, slice- and
/// thread-count-independent bit for bit.
void RunSharedStages(ThreadPool& pool, const PipelineOptions& options,
                     const std::vector<analysis::UserUsage>& usage,
                     const std::vector<analysis::UserUsage>& mobile_usage,
                     const std::vector<analysis::Session>& sessions,
                     const std::vector<analysis::Session>& mobile_sessions,
                     FullReport& report, double& per_user_s, double& fits_s) {
  double t_columns = 0;
  double t_stats = 0;
  double t_store_fit = 0;
  double t_retrieve_fit = 0;
  double t_engagement = 0;
  double t_activity = 0;
  ParallelInvoke(
      pool,
      {
          [&] {
            const auto t0 = Clock::now();
            report.mobile_only_column = analysis::BuildUserTypeColumn(
                usage, analysis::DeviceProfile::kMobileOnly);
            report.mobile_pc_column = analysis::BuildUserTypeColumn(
                usage, analysis::DeviceProfile::kMobileAndPc);
            report.pc_only_column = analysis::BuildUserTypeColumn(
                usage, analysis::DeviceProfile::kPcOnly);
            // Fig 7a counters: RatioSample's membership tests, without
            // materializing the sample (usage is canonical, so the counts
            // are source- and thread-count-independent).
            for (const analysis::UserUsage& u : usage) {
              if (!u.MobileOnly()) continue;
              if (u.store_volume == 0 && u.retrieve_volume == 0) continue;
              ++report.sketches.ratio_sample_users;
              if (std::abs(std::log10(u.VolumeRatio())) < 5.0)
                ++report.sketches.ratio_middle_users;
            }
            t_columns = Since(t0);
          },
          [&] {
            const auto t0 = Clock::now();
            report.session_split = analysis::ClassifySessions(mobile_sessions);
            report.burstiness =
                analysis::NormalizedOperatingTimes(mobile_sessions);
            // Fig 5a counters (denominator = session_split.total).
            for (const auto& s : mobile_sessions) {
              if (s.FileOps() == 1) ++report.sketches.single_op_sessions;
              if (s.FileOps() > 20) ++report.sketches.over20_op_sessions;
            }
            t_stats = Since(t0);
          },
          [&] {
            const auto t0 = Clock::now();
            // One pass in canonical session order feeds the bin sketch and
            // the t-digest (AvgFileSizeSample's membership and value rules);
            // the fit then runs on the sketch's exact per-bin moments.
            auto& sk = report.sketches;
            for (const auto& s : mobile_sessions) {
              if (s.SessionType() != analysis::Session::Type::kStoreOnly)
                continue;
              if (s.FileOps() == 0 || s.Volume() == 0) continue;
              const double mb =
                  ToMB(s.Volume()) / static_cast<double>(s.FileOps());
              sk.store_avg_mb.Add(mb);
              sk.store_avg_mb_digest.Add(mb);
            }
            report.store_size_model = analysis::FitFileSizeModel(
                sk.store_avg_mb, sk.store_avg_mb_digest);
            t_store_fit = Since(t0);
          },
          [&] {
            const auto t0 = Clock::now();
            auto& sk = report.sketches;
            for (const auto& s : mobile_sessions) {
              if (s.SessionType() != analysis::Session::Type::kRetrieveOnly)
                continue;
              if (s.FileOps() == 0 || s.Volume() == 0) continue;
              const double mb =
                  ToMB(s.Volume()) / static_cast<double>(s.FileOps());
              sk.retrieve_avg_mb.Add(mb);
              sk.retrieve_avg_mb_digest.Add(mb);
            }
            report.retrieve_size_model = analysis::FitFileSizeModel(
                sk.retrieve_avg_mb, sk.retrieve_avg_mb_digest);
            t_retrieve_fit = Since(t0);
          },
          [&] {
            const auto t0 = Clock::now();
            report.engagement = analysis::ReturnCurves(
                sessions, usage, options.trace_start, options.days);
            report.retrieval_returns = analysis::RetrievalReturns(
                sessions, usage, options.trace_start, options.days);
            t_engagement = Since(t0);
          },
          [&] {
            const auto t0 = Clock::now();
            report.store_activity =
                analysis::FitActivity(mobile_usage, Direction::kStore);
            report.retrieve_activity =
                analysis::FitActivity(mobile_usage, Direction::kRetrieve);
            t_activity = Since(t0);
          },
      });
  per_user_s += t_columns + t_stats + t_engagement;
  fits_s += t_store_fit + t_retrieve_fit + t_activity;
}

/// A row source the walk driver can replay: every call of `replay(sink)`
/// feeds all rows to `sink` in global time order, as blocks that each lie
/// inside one calendar day relative to `day_base`, with dense user indices
/// into `user_ids`.
struct RowSource {
  std::span<const std::uint64_t> user_ids;
  UnixSeconds day_base = 0;
  std::size_t rows = 0;
  std::function<void(const PartitionedTrace::BlockSink&)> replay;
};

RowSource SourceOf(const TraceStore& store) {
  MCLOUD_REQUIRE(store.has(kAnalysisColumns),
                 "the analysis needs the analysis columns");
  return {store.user_ids(), store.day_base(), store.rows(),
          [&store](const PartitionedTrace::BlockSink& sink) {
            for (const TraceStore::DayPartition& part : store.day_partitions())
              sink(part.day, BlockOf(store, part.begin, part.end));
          }};
}

RowSource SourceOf(const PartitionedTrace& trace, std::size_t max_memory_mb) {
  // Staging budget in rows: a staged row costs ~31 bytes across the seven
  // analysis columns; give the scan an eighth of the budget so the dense
  // per-user state and the session output stay the dominant terms.
  const std::size_t budget_mb = max_memory_mb ? max_memory_mb : 1024;
  const std::size_t staging_rows = std::max<std::size_t>(
      std::size_t{64} * 1024, budget_mb * (1024 * 1024 / 8) / 32);
  return {trace.user_ids(), trace.day_base(),
          static_cast<std::size_t>(trace.rows()),
          [&trace, staging_rows](const PartitionedTrace::BlockSink& sink) {
            trace.Scan(staging_rows, sink);
          }};
}

/// What the walks hand the shared tail.
struct Walked {
  analysis::RowPassResult row;
  analysis::PerUserResult per_user;
  /// Fitted between the walks when τ is derived from the data (the tail
  /// fits it otherwise).
  std::optional<analysis::IntervalModel> interval_model;
};

/// The walk plan, the same for every source. A fixed τ needs one walk: the
/// row pass and the inline-mobility per-user pass consume each block
/// together. The valley-derived τ gates sessionization on the completed
/// interval sketch, so walk 1 runs the row pass (which also collects
/// mobility), τ is fitted, and walk 2 runs the per-user pass with that
/// mobility. Block boundaries never change an accumulation order, so every
/// source and plan yields the same bits.
Walked Walk(const PipelineOptions& options, const RowSource& src,
            ThreadPool& pool, StageTimings& t) {
  Walked w;
  auto t0 = Clock::now();
  analysis::StreamingRowPass row_pass(src.user_ids, options.trace_start,
                                      options.days, src.day_base);
  std::optional<analysis::StreamingPerUserPass> per_user_pass;
  if (options.session_tau > 0) {
    per_user_pass.emplace(src.user_ids, options.session_tau);
    src.replay([&](std::int64_t day, const TraceRowBlock& block) {
      row_pass.Consume(day, block);
      per_user_pass->Consume(block);
    });
  } else {
    src.replay([&](std::int64_t day, const TraceRowBlock& block) {
      row_pass.Consume(day, block);
    });
  }
  w.row = row_pass.TakeResult();
  t.scan_s += Since(t0);

  if (!per_user_pass) {
    t0 = Clock::now();
    w.interval_model = analysis::FitIntervalModel(w.row.intervals);
    t.fits_s += Since(t0);
    t0 = Clock::now();
    per_user_pass.emplace(src.user_ids, w.interval_model->valley_tau,
                          row_pass.TakeMobility());
    src.replay([&](std::int64_t, const TraceRowBlock& block) {
      per_user_pass->Consume(block);
    });
    t.sessionize_s += Since(t0);
  }
  t0 = Clock::now();
  w.per_user = per_user_pass->Finish(pool);
  t.sessionize_s += Since(t0);
  return w;
}

/// The tail every entry point shares: overview fields, the interval model,
/// then the per-user stages.
FullReport Tail(const PipelineOptions& options, std::size_t records,
                Walked w, ThreadPool& pool, StageTimings& t) {
  FullReport report;
  report.records = records;
  report.timeseries = std::move(w.row.timeseries);
  report.android_access_share =
      w.row.mobile_records == 0
          ? 0
          : static_cast<double>(w.row.android_records) /
                static_cast<double>(w.row.mobile_records);
  const auto t0 = Clock::now();
  report.interval_model = w.interval_model
                              ? *std::move(w.interval_model)
                              : analysis::FitIntervalModel(w.row.intervals);
  report.sketches.intervals = std::move(w.row.intervals);
  t.fits_s += Since(t0);
  report.mobile_users = w.per_user.mobile_users;
  report.mobile_devices = w.per_user.mobile_devices;

  RunSharedStages(pool, options, w.per_user.usage, w.per_user.mobile_usage,
                  w.per_user.sessions, w.per_user.mobile_sessions, report,
                  t.per_user_s, t.fits_s);
  return report;
}

/// The walk driver behind Run(store) and RunStreaming.
FullReport Drive(const PipelineOptions& options, const RowSource& src,
                 StageTimings* timings) {
  MCLOUD_REQUIRE(src.rows > 0, "empty trace");
  const auto t_total = Clock::now();
  StageTimings t;
  ThreadPool pool(ClampThreadsToHardware(options.threads));
  FullReport report =
      Tail(options, src.rows, Walk(options, src, pool, t), pool, t);
  t.total_s = Since(t_total);
  if (timings) *timings = t;
  return report;
}

}  // namespace

AnalysisPipeline::AnalysisPipeline(const PipelineOptions& options)
    : options_(options) {
  MCLOUD_REQUIRE(options.days >= 1, "need at least one day");
}

FullReport AnalysisPipeline::Run(std::span<const LogRecord> trace,
                                 StageTimings* timings) const {
  MCLOUD_REQUIRE(!trace.empty(), "empty trace");
  const TraceStore store = TraceStore::FromRecords(trace, options_.trace_start);
  return Run(store, timings);
}

FullReport AnalysisPipeline::Run(const TraceStore& store,
                                 StageTimings* timings) const {
  MCLOUD_REQUIRE(!store.empty(), "empty trace");
  return Drive(options_, SourceOf(store), timings);
}

FullReport AnalysisPipeline::RunStreaming(const PartitionedTrace& trace,
                                          StageTimings* timings) const {
  return Drive(options_, SourceOf(trace, options_.max_memory_mb), timings);
}

// The analyze-while-generate engine. The producer (typically
// GenerateToPartitions' spill path) hands over sealed columnar slices
// through a depth-1 bounded queue; a consumer thread moves each slice's
// analysis columns into a TraceStore and walks it with the same driver
// while the producer builds the next one. Because every slice is
// time-sorted and carries a contiguous ascending user range's complete
// history, per-slice results are already in canonical order and
// concatenate (sessions/usage) or sum (hour bins, interval sketch, counts)
// into exactly the inputs the one-store walk hands the tail — so the
// report is bit-identical to Run on the concatenated trace.
FullReport AnalysisPipeline::RunConcurrent(
    const std::function<void(const SliceConsumer&)>& produce,
    StageTimings* timings) const {
  MCLOUD_REQUIRE(options_.session_tau > 0,
                 "analyze-while-generate needs a fixed session tau: the "
                 "valley-derived tau is only known after the last slice");
  const auto t_total = Clock::now();
  StageTimings t;

  // State below the line is owned by the consumer thread until join().
  Walked acc;
  std::size_t records = 0;
  StageTimings slice_t;
  std::exception_ptr consumer_error;

  // Depth-1 queue: one slice being analyzed, one being generated. The
  // producer blocks in the sink while the consumer is busy, bounding
  // resident data to two slices and pacing generation to analysis.
  std::mutex mu;
  std::condition_variable cv;
  RecordColumns slot;
  bool full = false;
  bool done = false;

  std::thread consumer([&] {
    // Finish's canonical sorts run inline here: ThreadPool::Run must not be
    // entered from two threads, and the caller owns the real pool.
    ThreadPool slice_pool(1);
    for (;;) {
      RecordColumns slice;
      {
        std::unique_lock<std::mutex> lock(mu);
        cv.wait(lock, [&] { return full || done; });
        if (!full && done) return;
        slice = std::move(slot);
        slot.clear();
        full = false;
      }
      cv.notify_all();
      // After a failure, keep draining so the producer never deadlocks.
      if (slice.empty() || consumer_error) continue;
      try {
        // The slice already is structure-of-arrays: its analysis columns
        // move into the store, which assigns the slice-local dense user
        // remap; the other columns are released with the slice.
        const auto t0 = Clock::now();
        TraceStore::Builder b;
        b.present = kAnalysisColumns;
        b.day_base = options_.trace_start;
        b.timestamps = std::move(slice.timestamps);
        b.device_types = std::move(slice.device_types);
        b.device_ids = std::move(slice.device_ids);
        b.raw_users = std::move(slice.user_ids);
        b.request_types = std::move(slice.request_types);
        b.directions = std::move(slice.directions);
        b.data_volumes = std::move(slice.data_volumes);
        slice = RecordColumns();
        const TraceStore store = std::move(b).Build();
        slice_t.scan_s += Since(t0);
        Walked w = Walk(options_, SourceOf(store), slice_pool, slice_t);

        records += store.rows();
        auto& hours = acc.row.timeseries.hours;
        if (hours.empty()) {
          acc.row.timeseries = std::move(w.row.timeseries);
        } else {
          MCLOUD_REQUIRE(hours.size() == w.row.timeseries.hours.size(),
                         "slice hour windows disagree");
          for (std::size_t i = 0; i < hours.size(); ++i) {
            const auto& src = w.row.timeseries.hours[i];
            hours[i].store_volume_bytes += src.store_volume_bytes;
            hours[i].retrieve_volume_bytes += src.retrieve_volume_bytes;
            hours[i].stored_files += src.stored_files;
            hours[i].retrieved_files += src.retrieved_files;
          }
        }
        acc.row.intervals.Merge(w.row.intervals);
        acc.row.mobile_records += w.row.mobile_records;
        acc.row.android_records += w.row.android_records;

        auto append = [](auto& dst, auto& src) {
          dst.insert(dst.end(), std::make_move_iterator(src.begin()),
                     std::make_move_iterator(src.end()));
        };
        analysis::PerUserResult& p = acc.per_user;
        append(p.sessions, w.per_user.sessions);
        append(p.mobile_sessions, w.per_user.mobile_sessions);
        append(p.usage, w.per_user.usage);
        append(p.mobile_usage, w.per_user.mobile_usage);
        append(p.mobile_device_ids, w.per_user.mobile_device_ids);
        p.mobile_users += w.per_user.mobile_users;
      } catch (...) {
        consumer_error = std::current_exception();
      }
    }
  });

  const SliceConsumer sink = [&](RecordColumns&& slice) {
    std::unique_lock<std::mutex> lock(mu);
    cv.wait(lock, [&] { return !full; });
    slot = std::move(slice);
    full = true;
    lock.unlock();
    cv.notify_all();
  };
  const auto stop_consumer = [&] {
    {
      std::lock_guard<std::mutex> lock(mu);
      done = true;
    }
    cv.notify_all();
    consumer.join();
  };
  try {
    produce(sink);
  } catch (...) {
    stop_consumer();
    throw;
  }
  stop_consumer();
  if (consumer_error) std::rethrow_exception(consumer_error);
  MCLOUD_REQUIRE(records > 0, "empty trace");
  t.scan_s += slice_t.scan_s;
  t.sessionize_s += slice_t.sessionize_s;

  // Device ids can recur across slices (a device id is only distinct per
  // user within a slice): union them for the global distinct count.
  auto& ids = acc.per_user.mobile_device_ids;
  std::sort(ids.begin(), ids.end());
  ids.erase(std::unique(ids.begin(), ids.end()), ids.end());
  acc.per_user.mobile_devices = ids.size();

  ThreadPool pool(ClampThreadsToHardware(options_.threads));
  FullReport report = Tail(options_, records, std::move(acc), pool, t);
  t.total_s = Since(t_total);
  if (timings) *timings = t;
  return report;
}

}  // namespace mcloud::core
