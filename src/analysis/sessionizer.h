// Session identification (§3.1.1, Fig 2).
//
// A session is a maximal run of a user's HTTP requests in which consecutive
// *file operations* are separated by at most τ. A file operation more than τ
// after the user's previous file operation begins a new session. Chunk
// requests never split a session — they extend the current one, which is how
// a session's length covers the tail of its transfers (Fig 2).
#pragma once

#include <span>
#include <vector>

#include "model/paper_params.h"
#include "trace/log_record.h"

namespace mcloud::analysis {

/// Aggregate view of one identified session.
struct Session {
  std::uint64_t user_id = 0;
  UnixSeconds begin = 0;          ///< first request of the session
  UnixSeconds end = 0;            ///< last request of the session
  UnixSeconds first_op = 0;       ///< first file operation
  UnixSeconds last_op = 0;        ///< last file operation
  std::size_t store_ops = 0;      ///< file storage operations
  std::size_t retrieve_ops = 0;   ///< file retrieval operations
  std::size_t chunk_requests = 0;
  Bytes store_volume = 0;
  Bytes retrieve_volume = 0;
  bool mobile = true;             ///< session came from a mobile device

  [[nodiscard]] std::size_t FileOps() const {
    return store_ops + retrieve_ops;
  }
  [[nodiscard]] Bytes Volume() const {
    return store_volume + retrieve_volume;
  }
  [[nodiscard]] Seconds Length() const {
    return static_cast<Seconds>(end - begin);
  }
  /// Time between first and last file operation (Fig 4's numerator).
  [[nodiscard]] Seconds OperatingTime() const {
    return static_cast<Seconds>(last_op - first_op);
  }

  enum class Type { kStoreOnly, kRetrieveOnly, kMixed };
  [[nodiscard]] Type SessionType() const {
    if (store_ops > 0 && retrieve_ops > 0) return Type::kMixed;
    return store_ops > 0 ? Type::kStoreOnly : Type::kRetrieveOnly;
  }
};

class Sessionizer {
 public:
  /// `tau` — the session gap threshold (1 hour in the paper, derived from
  /// the Fig 3 valley; see interval_model.h for deriving it from data).
  explicit Sessionizer(Seconds tau = paper::kSessionGapTau);

  /// Identify sessions in a time-sorted trace. Sessions are returned in
  /// (user, begin) order. Records with no file operation before them (a
  /// trace cut mid-session) open a session at the first record.
  [[nodiscard]] std::vector<Session> Sessionize(
      std::span<const LogRecord> trace) const;

  [[nodiscard]] Seconds tau() const { return tau_; }

 private:
  Seconds tau_;
};

/// All inter-file-operation intervals (seconds) of individual users — the
/// sample whose distribution Fig 3 plots. Only consecutive file operations
/// of the same user count; chunk requests are ignored.
[[nodiscard]] std::vector<double> InterOpIntervals(
    std::span<const LogRecord> trace);

}  // namespace mcloud::analysis
