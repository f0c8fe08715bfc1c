#include "analysis/sessionizer.h"

#include <algorithm>
#include <limits>
#include <unordered_map>

#include "util/error.h"

namespace mcloud::analysis {

Sessionizer::Sessionizer(Seconds tau) : tau_(tau) {
  MCLOUD_REQUIRE(tau > 0, "session threshold must be positive");
}

std::vector<Session> Sessionizer::Sessionize(
    std::span<const LogRecord> trace) const {
  // Per-user open session state; traces are time-sorted, so a single pass
  // suffices.
  struct OpenSession {
    Session session;
    UnixSeconds last_file_op = 0;
    bool has_file_op = false;
  };
  std::unordered_map<std::uint64_t, OpenSession> open;
  std::vector<Session> out;

  const auto fold_record = [](Session& s, const LogRecord& r) {
    s.end = std::max(s.end, r.timestamp);
    if (!r.IsMobile()) s.mobile = false;
    if (r.request_type == RequestType::kFileOperation) {
      s.last_op = r.timestamp;
      if (s.FileOps() == 0) s.first_op = r.timestamp;
      (r.direction == Direction::kStore ? s.store_ops : s.retrieve_ops)++;
    } else {
      ++s.chunk_requests;
      (r.direction == Direction::kStore ? s.store_volume
                                        : s.retrieve_volume) += r.data_volume;
    }
  };

  UnixSeconds prev_ts = std::numeric_limits<UnixSeconds>::min();
  for (const LogRecord& r : trace) {
    MCLOUD_REQUIRE(r.timestamp >= prev_ts, "trace must be time-sorted");
    prev_ts = r.timestamp;

    auto [it, inserted] = open.try_emplace(r.user_id);
    OpenSession& cur = it->second;

    const bool is_op = r.request_type == RequestType::kFileOperation;
    const bool splits =
        !inserted && is_op && cur.has_file_op &&
        static_cast<Seconds>(r.timestamp - cur.last_file_op) > tau_;

    if (inserted || splits) {
      if (!inserted) out.push_back(cur.session);
      cur = OpenSession{};
      cur.session.user_id = r.user_id;
      cur.session.begin = r.timestamp;
      cur.session.end = r.timestamp;
      cur.session.first_op = r.timestamp;
      cur.session.last_op = r.timestamp;
    }
    if (is_op) {
      cur.last_file_op = r.timestamp;
      cur.has_file_op = true;
    }
    fold_record(cur.session, r);
  }

  for (auto& [user, state] : open) out.push_back(state.session);

  std::sort(out.begin(), out.end(), [](const Session& a, const Session& b) {
    if (a.user_id != b.user_id) return a.user_id < b.user_id;
    return a.begin < b.begin;
  });
  return out;
}

std::vector<double> InterOpIntervals(std::span<const LogRecord> trace) {
  std::unordered_map<std::uint64_t, UnixSeconds> last_op;
  std::vector<double> intervals;
  for (const LogRecord& r : trace) {
    if (r.request_type != RequestType::kFileOperation) continue;
    if (const auto it = last_op.find(r.user_id); it != last_op.end()) {
      const auto gap = static_cast<double>(r.timestamp - it->second);
      if (gap > 0) intervals.push_back(gap);
      it->second = r.timestamp;
    } else {
      last_op.emplace(r.user_id, r.timestamp);
    }
  }
  return intervals;
}

}  // namespace mcloud::analysis
