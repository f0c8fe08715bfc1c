#include "workload/generator.h"

#include <algorithm>
#include <chrono>
#include <utility>

#include "trace/partitioned_trace.h"
#include "util/parallel.h"
#include "util/radix_sort.h"
#include "workload/calibration.h"
#include "workload/diurnal.h"
#include "workload/log_emitter.h"
#include "workload/session_model.h"

namespace mcloud::workload {

namespace {

using Clock = std::chrono::steady_clock;

double Since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

/// Sort sessions by (start, user_id), ties in current order — the session
/// order of the final workload. A stable radix permutation over the two
/// keys plus one move-gather: identical order to std::stable_sort with the
/// old SessionStartOrder comparator.
void SortSessionsByStart(std::vector<SessionPlan>& sessions) {
  const std::size_t n = sessions.size();
  if (n < 2) return;
  std::vector<std::int64_t> starts(n);
  std::vector<std::uint64_t> users(n);
  for (std::size_t i = 0; i < n; ++i) {
    starts[i] = sessions[i].start;
    users[i] = sessions[i].user_id;
  }
  StableRadixSorter sorter;
  const RadixKey keys[2] = {RadixKey::I64(starts), RadixKey::U64(users)};
  const std::span<const std::uint32_t> perm = sorter.Sort(n, keys);
  std::vector<SessionPlan> sorted;
  sorted.reserve(n);
  for (std::size_t j = 0; j < n; ++j)
    sorted.push_back(std::move(sessions[perm[j]]));
  sessions = std::move(sorted);
}

}  // namespace

WorkloadGenerator::WorkloadGenerator(const WorkloadConfig& config)
    : config_(config) {}

Workload WorkloadGenerator::PlanAndEmit(ThreadPool& pool, RecordColumns* trace,
                                        GenTimings* timings) const {
  const bool emit_logs = trace != nullptr;
  Rng rng(config_.seed);

  auto t0 = Clock::now();
  Workload w;
  PopulationBuilder population(config_.population, config_.model);
  w.users = population.Build(rng, &pool);
  if (timings) timings->plan_s += Since(t0);
  // Root key of all per-user session streams. Drawn after the population's
  // root so the two stream families never collide.
  const std::uint64_t session_root = rng.NextU64();

  const DiurnalPattern diurnal(config_.model.hour_weights);
  SessionModelConfig smc;
  smc.trace_start = config_.trace_start;
  smc.days = config_.population.days;
  smc.model = config_.model;
  const SessionModel session_model(smc, diurnal);
  const FastLogEmitter emitter;

  // Shard users across the pool. Each user's sessions and records are drawn
  // from Rng::ForStream(session_root, user_id) — a pure function of the
  // seed and the user id — so the shard a user lands on cannot perturb any
  // stream. Shards cover contiguous ascending user ranges, so concatenating
  // shard runs in shard order is the user-ordered emission; ONE global
  // stable radix sort of that concatenation equals the stable sort the old
  // per-shard sort + stable k-way merge computed, independent of the shard
  // count — and the sort, on the same pool, is itself independent of the
  // thread count.
  const std::size_t shards = ShardCount(pool, w.users.size());
  std::vector<std::vector<SessionPlan>> session_runs(shards);
  std::vector<RecordColumns> cols_runs(emit_logs ? shards : 0);
  std::vector<double> shard_plan_s(shards, 0.0);
  std::vector<double> shard_emit_s(shards, 0.0);
  std::vector<std::size_t> shard_slot_allocs(shards, 0);
  std::vector<std::size_t> shard_growths(shards, 0);
  const bool want_timing = timings != nullptr;

  ParallelForShards(
      pool, w.users.size(),
      [&](std::size_t shard, std::size_t begin, std::size_t end) {
        std::vector<SessionPlan>& sessions = session_runs[shard];
        RecordColumns* cols = emit_logs ? &cols_runs[shard] : nullptr;
        PlanScratch plan_scratch;
        EmitScratch emit_scratch;
        for (std::size_t i = begin; i < end; ++i) {
          const UserProfile& user = w.users[i];
          // Independent per-user stream: adding users or re-sharding never
          // perturbs the randomness of existing ones.
          Rng user_rng = Rng::ForStream(session_root, user.user_id);
          Clock::time_point u0;
          if (want_timing) u0 = Clock::now();
          session_model.PlanUserInto(user, user_rng, plan_scratch);
          if (want_timing) {
            const auto u1 = Clock::now();
            shard_plan_s[shard] +=
                std::chrono::duration<double>(u1 - u0).count();
            u0 = u1;
          }
          if (emit_logs) {
            const std::size_t cap = cols->capacity();
            for (const SessionPlan& s : plan_scratch.sessions())
              emitter.EmitSessionColumnar(s, user_rng, *cols, emit_scratch);
            if (cols->capacity() != cap) ++shard_growths[shard];
            if (want_timing) shard_emit_s[shard] += Since(u0);
          }
          // The plans survive into the workload result: move them out of
          // the pool (slots re-grow their ops storage on the next user).
          for (std::size_t k = 0; k < plan_scratch.used; ++k)
            sessions.push_back(std::move(plan_scratch.pool[k]));
        }
        shard_slot_allocs[shard] = plan_scratch.slot_growth;
      });

  t0 = Clock::now();
  // User-ordered concatenation of the shard runs, then one global sort.
  std::size_t n_sessions = 0;
  for (const auto& run : session_runs) n_sessions += run.size();
  w.sessions.reserve(n_sessions);
  for (auto& run : session_runs) {
    w.sessions.insert(w.sessions.end(), std::make_move_iterator(run.begin()),
                      std::make_move_iterator(run.end()));
    run = std::vector<SessionPlan>();
  }
  SortSessionsByStart(w.sessions);

  if (emit_logs) {
    trace->AppendAll(cols_runs, &pool);
    RecordColumnsScratch sort_scratch;
    trace->SortByTimeOrder(sort_scratch, &pool);
  }
  if (timings) {
    timings->sort_s += Since(t0);
    for (std::size_t s = 0; s < shards; ++s) {
      timings->plan_s += shard_plan_s[s];
      timings->emit_s += shard_emit_s[s];
      timings->plan_slot_allocs += shard_slot_allocs[s];
      timings->record_buffer_growths += shard_growths[s];
    }
  }
  return w;
}

Workload WorkloadGenerator::Generate(GenTimings* timings) const {
  ColumnarWorkload c = GenerateColumnar(timings);
  return {std::move(c.users), std::move(c.sessions), c.trace.ToRecords()};
}

ColumnarWorkload WorkloadGenerator::GenerateColumnar(
    GenTimings* timings) const {
  const auto t0 = Clock::now();
  ThreadPool pool(config_.threads);
  RecordColumns cols;
  Workload w = PlanAndEmit(pool, &cols, timings);

  // The sorted columns move straight into the store builder — no
  // record-by-record append, no AoS copy.
  TraceStore::Builder b;
  b.day_base = config_.trace_start;
  b.timestamps = std::move(cols.timestamps);
  b.device_types = std::move(cols.device_types);
  b.device_ids = std::move(cols.device_ids);
  b.raw_users = std::move(cols.user_ids);
  b.request_types = std::move(cols.request_types);
  b.directions = std::move(cols.directions);
  b.data_volumes = std::move(cols.data_volumes);
  b.processing_times = std::move(cols.processing_times);
  b.server_times = std::move(cols.server_times);
  b.avg_rtts = std::move(cols.avg_rtts);
  b.proxied = std::move(cols.proxied);

  ColumnarWorkload out;
  out.users = std::move(w.users);
  out.sessions = std::move(w.sessions);
  out.trace = std::move(b).Build();
  if (timings) timings->total_s += Since(t0);
  return out;
}

Workload WorkloadGenerator::GeneratePlansOnly() const {
  ThreadPool pool(config_.threads);
  return PlanAndEmit(pool, nullptr, nullptr);
}

// Bounded-memory twin of PlanAndEmit + GenerateColumnar. The RNG sequence
// is replicated exactly (population build, then session_root, then pure
// per-user streams), so each user's records match the resident path byte
// for byte. Users are processed in fixed-size chunks in user order; the
// buffer therefore always holds a contiguous user range, and flushing it
// as a stably-sorted slice makes every spill a stably-sorted contiguous
// partition of the user-ordered emission — exactly what the partitioned
// reader's stable merge needs to reconstruct the global stable sort.
// Chunk boundaries and flush points depend only on the config, never on
// the thread count.
SpillSummary WorkloadGenerator::GenerateToPartitions(
    const SpillConfig& spill, GenTimings* timings) const {
  return GenerateToPartitions(spill, SliceSink{}, timings);
}

SpillSummary WorkloadGenerator::GenerateToPartitions(
    const SpillConfig& spill, const SliceSink& slice_sink,
    GenTimings* timings) const {
  const auto t_total = Clock::now();
  ThreadPool pool(config_.threads);
  Rng rng(config_.seed);

  auto t0 = Clock::now();
  PopulationBuilder population(config_.population, config_.model);
  const std::vector<UserProfile> users = population.Build(rng, &pool);
  if (timings) timings->plan_s += Since(t0);
  const std::uint64_t session_root = rng.NextU64();

  const DiurnalPattern diurnal(config_.model.hour_weights);
  SessionModelConfig smc;
  smc.trace_start = config_.trace_start;
  smc.days = config_.population.days;
  smc.model = config_.model;
  const SessionModel session_model(smc, diurnal);
  const FastLogEmitter emitter;

  PartitionedTraceWriter writer(spill.dir, config_.trace_start);

  // Still accounted in AoS LogRecord bytes: flush boundaries are part of
  // the deterministic spill layout and must not shift with the emitter's
  // in-memory representation.
  const std::size_t budget_records = std::max<std::size_t>(
      spill.max_buffer_bytes / sizeof(LogRecord), std::size_t{64} * 1024);
  const std::size_t users_per_chunk =
      std::max<std::size_t>(spill.users_per_chunk, 1);

  SpillSummary sum;
  sum.users = users.size();

  // Pooled per-window-slot scratch: plan pool, batched-normal buffer, and
  // the chunk's record columns. Slots are reused every batch, so
  // steady-state chunk emission allocates nothing.
  struct ChunkScratch {
    PlanScratch plan;
    EmitScratch emit;
    RecordColumns cols;
    double plan_s = 0;
    double emit_s = 0;
    std::size_t growths = 0;
  };

  const std::size_t n_chunks =
      (users.size() + users_per_chunk - 1) / users_per_chunk;
  const std::size_t window =
      std::max<std::size_t>(static_cast<std::size_t>(pool.threads()), 1) * 2;
  std::vector<ChunkScratch> slots(std::min(window, n_chunks));
  const bool want_timing = timings != nullptr;

  const auto fill_chunk = [&](std::size_t chunk, ChunkScratch& s) {
    s.cols.clear();
    const std::size_t cap = s.cols.capacity();
    const std::size_t begin = chunk * users_per_chunk;
    const std::size_t end =
        std::min(begin + users_per_chunk, users.size());
    for (std::size_t i = begin; i < end; ++i) {
      const UserProfile& user = users[i];
      Rng user_rng = Rng::ForStream(session_root, user.user_id);
      Clock::time_point u0;
      if (want_timing) u0 = Clock::now();
      // Plans live only in the pooled scratch — emitted and overwritten.
      session_model.PlanUserInto(user, user_rng, s.plan);
      if (want_timing) {
        const auto u1 = Clock::now();
        s.plan_s += std::chrono::duration<double>(u1 - u0).count();
        u0 = u1;
      }
      for (const SessionPlan& sp : s.plan.sessions())
        emitter.EmitSessionColumnar(sp, user_rng, s.cols, s.emit);
      if (want_timing) s.emit_s += Since(u0);
    }
    if (s.cols.capacity() != cap) ++s.growths;
  };

  RecordColumns buffer;
  RecordColumnsScratch sort_scratch;
  std::size_t buffer_growths = 0;
  const auto flush = [&] {
    if (buffer.empty()) return;
    auto f0 = Clock::now();
    // The chunk workers are idle between batches: the sort borrows them.
    buffer.SortByTimeOrder(sort_scratch, &pool);
    if (timings) {
      const auto f1 = Clock::now();
      timings->sort_s += std::chrono::duration<double>(f1 - f0).count();
      f0 = f1;
    }
    writer.WriteSortedSlice(buffer);
    if (timings) timings->write_s += Since(f0);
    ++sum.spills;
    if (slice_sink) {
      // Hand the sealed slice to the analysis side; a blocking sink is the
      // backpressure that keeps generation at the analysis rate.
      slice_sink(std::move(buffer));
      buffer = RecordColumns();
    } else {
      // Pooled: keep the capacity for the next fill cycle.
      buffer.clear();
    }
  };

  for (std::size_t next = 0; next < n_chunks; next += window) {
    const std::size_t batch = std::min(window, n_chunks - next);
    ParallelFor(pool, batch,
                [&](std::size_t i) { fill_chunk(next + i, slots[i]); });
    for (std::size_t i = 0; i < batch; ++i) {
      const RecordColumns& chunk = slots[i].cols;
      // Flush *before* appending, so the buffer never reallocates past the
      // budget mid-append (the doubling growth of push_back would briefly
      // double the footprint otherwise).
      if (!buffer.empty() && buffer.size() + chunk.size() > budget_records)
        flush();
      sum.records += chunk.size();
      const std::size_t cap = buffer.capacity();
      // Copy so the slot keeps its capacity for the next batch.
      buffer.AppendCopy(chunk);
      if (buffer.capacity() != cap) ++buffer_growths;
    }
  }
  flush();
  t0 = Clock::now();
  writer.Finish();
  sum.run_files = writer.run_files();
  if (timings) {
    timings->write_s += Since(t0);
    for (const ChunkScratch& s : slots) {
      timings->plan_s += s.plan_s;
      timings->emit_s += s.emit_s;
      timings->plan_slot_allocs += s.plan.slot_growth;
      timings->record_buffer_growths += s.growths;
    }
    timings->record_buffer_growths += buffer_growths;
    timings->total_s += Since(t_total);
  }
  return sum;
}

}  // namespace mcloud::workload
