#include "trace/record_columns.h"

#include <functional>
#include <span>
#include <type_traits>
#include <utility>

#include "trace/log_io.h"
#include "trace/trace_store.h"

namespace mcloud {

namespace {

/// fn(&RecordColumns::<column>) for every column, in declaration order.
template <typename Fn>
void ForEachColumn(Fn&& fn) {
  fn(&RecordColumns::timestamps);
  fn(&RecordColumns::device_types);
  fn(&RecordColumns::device_ids);
  fn(&RecordColumns::user_ids);
  fn(&RecordColumns::request_types);
  fn(&RecordColumns::directions);
  fn(&RecordColumns::data_volumes);
  fn(&RecordColumns::processing_times);
  fn(&RecordColumns::server_times);
  fn(&RecordColumns::avg_rtts);
  fn(&RecordColumns::proxied);
}

/// body(begin, end) over contiguous row blocks of [0, n): one per pool
/// thread from StableRadixSorter::kParallelMinN rows, else inline.
template <typename Body>
void ForRowBlocks(ThreadPool* pool, std::size_t n, const Body& body) {
  if (pool == nullptr || n < StableRadixSorter::kParallelMinN) {
    body(std::size_t{0}, n);
    return;
  }
  ParallelForShards(*pool, n,
                    [&](std::size_t, std::size_t begin, std::size_t end) {
                      body(begin, end);
                    });
}

/// The tasks on the pool, or in order on the calling thread without one.
void RunTasks(ThreadPool* pool, std::vector<std::function<void()>> tasks) {
  if (pool != nullptr) {
    ParallelInvoke(*pool, std::move(tasks));
    return;
  }
  for (const auto& task : tasks) task();
}

/// The scratch gather target for a column of element type T.
std::vector<std::int64_t>& GatherBuffer(RecordColumnsScratch& s,
                                        const std::vector<std::int64_t>&) {
  return s.i64;
}
std::vector<std::uint64_t>& GatherBuffer(RecordColumnsScratch& s,
                                         const std::vector<std::uint64_t>&) {
  return s.u64;
}
std::vector<std::uint8_t>& GatherBuffer(RecordColumnsScratch& s,
                                        const std::vector<std::uint8_t>&) {
  return s.u8;
}
std::vector<double>& GatherBuffer(RecordColumnsScratch& s,
                                  const std::vector<double>&) {
  return s.f64;
}

}  // namespace

void RecordColumns::clear() {
  ForEachColumn([&](auto column) { (this->*column).clear(); });
}

void RecordColumns::reserve(std::size_t n) {
  ForEachColumn([&](auto column) { (this->*column).reserve(n); });
}

void RecordColumns::Append(const LogRecord& r) {
  timestamps.push_back(r.timestamp);
  device_types.push_back(static_cast<std::uint8_t>(r.device_type));
  device_ids.push_back(r.device_id);
  user_ids.push_back(r.user_id);
  request_types.push_back(static_cast<std::uint8_t>(r.request_type));
  directions.push_back(static_cast<std::uint8_t>(r.direction));
  data_volumes.push_back(r.data_volume);
  processing_times.push_back(r.processing_time);
  server_times.push_back(r.server_time);
  avg_rtts.push_back(r.avg_rtt);
  proxied.push_back(r.proxied ? 1 : 0);
}

LogRecord RecordColumns::RecordAt(std::size_t i) const {
  LogRecord r;
  r.timestamp = timestamps[i];
  r.device_type = static_cast<DeviceType>(device_types[i]);
  r.device_id = device_ids[i];
  r.user_id = user_ids[i];
  r.request_type = static_cast<RequestType>(request_types[i]);
  r.direction = static_cast<Direction>(directions[i]);
  r.data_volume = data_volumes[i];
  r.processing_time = processing_times[i];
  r.server_time = server_times[i];
  r.avg_rtt = avg_rtts[i];
  r.proxied = proxied[i] != 0;
  return r;
}

void RecordColumns::AppendAll(std::span<RecordColumns> runs,
                              ThreadPool* pool) {
  if (empty() && capacity() == 0 && runs.size() == 1) {
    *this = std::move(runs[0]);
    runs[0] = RecordColumns();
    return;
  }
  std::size_t total = size();
  for (const RecordColumns& run : runs) total += run.size();
  // Allocate on the calling thread, so the columns come from its malloc
  // arena and not from whichever pool thread runs the copy.
  reserve(total);
  const auto append = [&](auto column) {
    auto& dst = this->*column;
    for (RecordColumns& run : runs) {
      auto& src = run.*column;
      dst.insert(dst.end(), src.begin(), src.end());
      std::remove_reference_t<decltype(src)>().swap(src);
    }
  };
  std::vector<std::function<void()>> tasks;
  ForEachColumn([&](auto column) {
    tasks.emplace_back([&append, column] { append(column); });
  });
  RunTasks(pool, std::move(tasks));
}

void RecordColumns::AppendCopy(const RecordColumns& other) {
  ForEachColumn([&](auto column) {
    auto& dst = this->*column;
    const auto& src = other.*column;
    dst.insert(dst.end(), src.begin(), src.end());
  });
}

std::span<const std::uint32_t> RecordColumns::TimeOrderPerm(
    RecordColumnsScratch& scratch, ThreadPool* pool) const {
  const RadixKey keys[3] = {
      RadixKey::I64(timestamps),
      RadixKey::U64(user_ids),
      RadixKey::U64(device_ids),
  };
  return scratch.sorter.Sort(size(), keys, pool);
}

void RecordColumns::SortByTimeOrder(RecordColumnsScratch& scratch,
                                    ThreadPool* pool) {
  const std::size_t n = size();
  if (n < 2) return;
  const std::span<const std::uint32_t> perm = TimeOrderPerm(scratch, pool);
  // Growing a gather target zero-fills it; the four fills overlap on the
  // pool. Each ends the sort at n rows anyway, holding a swapped-out column.
  // The allocations stay on the calling thread, in its malloc arena: freed
  // in a pool thread's arena, they would not be reused by later callers.
  scratch.i64.reserve(n);
  scratch.u64.reserve(n);
  scratch.u8.reserve(n);
  scratch.f64.reserve(n);
  RunTasks(pool, {[&] { scratch.i64.resize(n); },
                  [&] { scratch.u64.resize(n); },
                  [&] { scratch.u8.resize(n); },
                  [&] { scratch.f64.resize(n); }});
  ForEachColumn([&](auto column) {
    auto& col = this->*column;
    auto& tmp = GatherBuffer(scratch, col);
    ForRowBlocks(pool, n, [&](std::size_t begin, std::size_t end) {
      for (std::size_t j = begin; j < end; ++j) tmp[j] = col[perm[j]];
    });
    col.swap(tmp);
  });
}

namespace {

constexpr std::uint64_t kFnvOffset = 0xcbf29ce484222325ULL;
constexpr std::uint64_t kFnvPrime = 0x100000001b3ULL;

inline std::uint64_t Fnv(std::uint64_t h, std::uint64_t v) {
  for (int b = 0; b < 8; ++b) {
    h ^= (v >> (8 * b)) & 0xff;
    h *= kFnvPrime;
  }
  return h;
}

/// One record's Table 1 fields folded in canonical field order; times as
/// the on-disk microsecond integers so AoS/columnar/file agree bit-exact.
inline std::uint64_t FoldRecord(std::uint64_t h, std::int64_t ts,
                                std::uint8_t dev, std::uint64_t dev_id,
                                std::uint64_t user, std::uint8_t req,
                                std::uint8_t dir, std::uint64_t vol,
                                double proc, double srv, double rtt,
                                std::uint8_t prox) {
  h = Fnv(h, static_cast<std::uint64_t>(ts));
  h = Fnv(h, dev);
  h = Fnv(h, dev_id);
  h = Fnv(h, user);
  h = Fnv(h, req);
  h = Fnv(h, dir);
  h = Fnv(h, vol);
  h = Fnv(h, static_cast<std::uint64_t>(detail::ToMicros(proc)));
  h = Fnv(h, static_cast<std::uint64_t>(detail::ToMicros(srv)));
  h = Fnv(h, static_cast<std::uint64_t>(detail::ToMicros(rtt)));
  h = Fnv(h, prox);
  return h;
}

}  // namespace

std::uint64_t TraceFingerprint(const RecordColumns& cols) {
  std::uint64_t h = kFnvOffset;
  for (std::size_t i = 0; i < cols.size(); ++i) {
    h = FoldRecord(h, cols.timestamps[i], cols.device_types[i],
                   cols.device_ids[i], cols.user_ids[i],
                   cols.request_types[i], cols.directions[i],
                   cols.data_volumes[i], cols.processing_times[i],
                   cols.server_times[i], cols.avg_rtts[i], cols.proxied[i]);
  }
  return h;
}

std::uint64_t TraceFingerprint(std::span<const LogRecord> records) {
  std::uint64_t h = kFnvOffset;
  for (const LogRecord& r : records) {
    h = FoldRecord(h, r.timestamp, static_cast<std::uint8_t>(r.device_type),
                   r.device_id, r.user_id,
                   static_cast<std::uint8_t>(r.request_type),
                   static_cast<std::uint8_t>(r.direction), r.data_volume,
                   r.processing_time, r.server_time, r.avg_rtt,
                   r.proxied ? 1 : 0);
  }
  return h;
}

std::uint64_t TraceFingerprint(const TraceStore& store) {
  std::uint64_t h = kFnvOffset;
  for (std::size_t i = 0; i < store.rows(); ++i) {
    h = FoldRecord(h, store.timestamps()[i], store.device_types()[i],
                   store.device_ids()[i],
                   store.user_ids()[store.user_index()[i]],
                   store.request_types()[i], store.directions()[i],
                   store.data_volumes()[i], store.processing_times()[i],
                   store.server_times()[i], store.avg_rtts()[i],
                   store.proxied()[i]);
  }
  return h;
}

}  // namespace mcloud
