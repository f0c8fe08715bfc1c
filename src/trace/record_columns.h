// Columnar (structure-of-arrays) staging buffer for emitted log records.
//
// The generator fast path emits records straight into these columns instead
// of building `std::vector<LogRecord>` and transposing later: an emitted
// record costs ~59 bytes of sequential column stores instead of a 112-byte
// AoS struct copy, the time-order sort runs as a radix permutation over
// 16-byte pairs plus one gather per column, and the buffer moves directly
// into TraceStore::Builder (resident path) or the partitioned run writer
// (spill path) without another transpose. `user_ids` holds the *original*
// 64-bit ids — dense remapping stays where it always lived (TraceStore
// build, including RunConcurrent's per-slice stores / per-run v2 writer).
//
// The resilience tags (outcome, attempt) are runtime-only and not staged,
// exactly as in the on-disk formats (trace/log_io.cc).
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "trace/log_record.h"
#include "util/parallel.h"
#include "util/radix_sort.h"

namespace mcloud {

struct RecordColumns;

/// Reusable scratch for RecordColumns::SortByTimeOrder: the radix sorter's
/// pair/count buffers plus one gather target per column element type. Keep
/// one per shard/worker and steady-state sorting allocates nothing. The
/// gather stays column by column even on a pool, so the sort never holds
/// more than one temporary column per element type.
struct RecordColumnsScratch {
  StableRadixSorter sorter;
  std::vector<std::int64_t> i64;
  std::vector<std::uint64_t> u64;
  std::vector<std::uint8_t> u8;
  std::vector<double> f64;
};

struct RecordColumns {
  std::vector<std::int64_t> timestamps;
  std::vector<std::uint8_t> device_types;
  std::vector<std::uint64_t> device_ids;
  std::vector<std::uint64_t> user_ids;
  std::vector<std::uint8_t> request_types;
  std::vector<std::uint8_t> directions;
  std::vector<std::uint64_t> data_volumes;
  std::vector<double> processing_times;
  std::vector<double> server_times;
  std::vector<double> avg_rtts;
  std::vector<std::uint8_t> proxied;

  [[nodiscard]] std::size_t size() const { return timestamps.size(); }
  [[nodiscard]] bool empty() const { return timestamps.empty(); }

  void clear();
  void reserve(std::size_t n);
  /// Capacity of the backing storage (rows the buffer can hold without
  /// reallocating) — the pooled-buffer growth diagnostic.
  [[nodiscard]] std::size_t capacity() const { return timestamps.capacity(); }

  /// Append one record (AoS compatibility shim; the emitter writes columns
  /// directly).
  void Append(const LogRecord& r);
  /// Materialize row i as a LogRecord (resilience tags at defaults).
  [[nodiscard]] LogRecord RecordAt(std::size_t i) const;

  /// Append the rows of every run, in run order, leaving the runs empty.
  /// When this buffer is empty and there is one run, steals its storage
  /// outright; otherwise each column is one pool task that appends the runs'
  /// columns in order and releases each as soon as it is copied, so the
  /// transient footprint stays about one run's column per task.
  void AppendAll(std::span<RecordColumns> runs, ThreadPool* pool = nullptr);
  /// Append rows of `other` by copy, leaving `other`'s capacity intact
  /// (the pooled chunk-buffer path).
  void AppendCopy(const RecordColumns& other);

  /// Stable sort by LogRecordTimeOrder — (timestamp, user_id, device_id),
  /// ties in current order — via a radix permutation and one gather per
  /// column. Identical order to std::stable_sort with LogRecordTimeOrder,
  /// with or without a pool (which runs the sort and each column's gather
  /// over row blocks).
  void SortByTimeOrder(RecordColumnsScratch& scratch,
                       ThreadPool* pool = nullptr);
  /// The stable LogRecordTimeOrder permutation without rearranging the
  /// columns. The span is owned by `scratch` and valid until its next sort.
  [[nodiscard]] std::span<const std::uint32_t> TimeOrderPerm(
      RecordColumnsScratch& scratch, ThreadPool* pool = nullptr) const;
};

/// Canonical FNV-1a fingerprint of a trace's Table 1 content, independent
/// of representation (times folded as the on-disk microsecond integers).
/// The three overloads agree for the same record sequence.
[[nodiscard]] std::uint64_t TraceFingerprint(const RecordColumns& cols);
[[nodiscard]] std::uint64_t TraceFingerprint(
    std::span<const LogRecord> records);
class TraceStore;
[[nodiscard]] std::uint64_t TraceFingerprint(const TraceStore& store);

}  // namespace mcloud
