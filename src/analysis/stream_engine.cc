#include "analysis/stream_engine.h"

#include <algorithm>
#include <utility>

#include "util/error.h"
#include "util/timeutil.h"

namespace mcloud::analysis {

namespace {

constexpr std::uint8_t kPcRaw = static_cast<std::uint8_t>(DeviceType::kPc);
constexpr std::uint8_t kAndroidRaw =
    static_cast<std::uint8_t>(DeviceType::kAndroid);
constexpr std::uint8_t kFileOpRaw =
    static_cast<std::uint8_t>(RequestType::kFileOperation);
constexpr std::uint8_t kStoreRaw = static_cast<std::uint8_t>(Direction::kStore);

}  // namespace

StreamingRowPass::StreamingRowPass(std::span<const std::uint64_t> user_ids,
                                   UnixSeconds trace_start, int days,
                                   UnixSeconds day_base)
    : user_ids_(user_ids),
      day_base_(day_base),
      trace_start_(trace_start),
      window_begin_(trace_start),
      window_end_(trace_start + static_cast<std::int64_t>(days) * kDay),
      last_op_(user_ids.size(), 0),
      seen_(user_ids.size(), 0),
      mobility_(user_ids.size(), 0) {
  MCLOUD_REQUIRE(days >= 1, "need at least one day");
  auto& hours = out_.timeseries.hours;
  hours.resize(static_cast<std::size_t>(days) * 24);
  for (std::size_t i = 0; i < hours.size(); ++i)
    hours[i].hour = static_cast<int>(i);
}

void StreamingRowPass::Consume(std::int64_t day, const TraceRowBlock& block) {
  const auto ts = block.timestamps;
  const auto dev = block.device_types;
  const auto req = block.request_types;
  const auto dir = block.directions;
  const auto vol = block.data_volumes;
  const auto user = block.users;
  auto& hours = out_.timeseries.hours;

  // Day partitions let the hourly binning skip out-of-window days
  // wholesale; the interval sample and overview counts are unwindowed and
  // still visit every row.
  const std::int64_t part_begin = day_base_ + day * kDay;
  const bool in_window =
      part_begin < window_end_ && part_begin + kDay > window_begin_;

  for (std::size_t row = 0; row < block.rows(); ++row) {
    const std::uint32_t u = user[row];
    mobility_[u] |= dev[row] == kPcRaw ? kPcBit : kMobileBit;
    if (dev[row] == kPcRaw) continue;
    ++out_.mobile_records;
    if (dev[row] == kAndroidRaw) ++out_.android_records;

    const bool is_op = req[row] == kFileOpRaw;
    const bool is_store = dir[row] == kStoreRaw;
    if (in_window) {
      const int hour = HourIndex(ts[row], trace_start_);
      if (hour >= 0 && hour < static_cast<int>(hours.size())) {
        HourBin& bin = hours[static_cast<std::size_t>(hour)];
        if (is_op) {
          (is_store ? bin.stored_files : bin.retrieved_files)++;
        } else {
          (is_store ? bin.store_volume_bytes : bin.retrieve_volume_bytes) +=
              vol[row];
        }
      }
    }
    if (is_op) {
      if (seen_[u]) {
        const auto gap = static_cast<double>(ts[row] - last_op_[u]);
        if (gap > 0) {
          AddIntervalToSketch(out_.intervals, user_ids_[u],
                              static_cast<std::uint64_t>(ts[row]), gap);
        }
      }
      seen_[u] = 1;
      last_op_[u] = ts[row];
    }
  }
}

RowPassResult StreamingRowPass::TakeResult() { return std::move(out_); }

std::vector<std::uint8_t> StreamingRowPass::TakeMobility() {
  return std::move(mobility_);
}

StreamingPerUserPass::StreamingPerUserPass(
    std::span<const std::uint64_t> user_ids, Seconds tau,
    std::vector<std::uint8_t> mobility)
    : user_ids_(user_ids),
      tau_(tau),
      mobility_(std::move(mobility)),
      cur_(user_ids.size()),
      mob_cur_(user_ids.size()),
      usage_(user_ids.size()),
      mob_usage_(user_ids.size()),
      devs_(user_ids.size()) {
  MCLOUD_REQUIRE(mobility_.size() == user_ids_.size(),
                 "mobility table size mismatch");
}

StreamingPerUserPass::StreamingPerUserPass(
    std::span<const std::uint64_t> user_ids, Seconds tau)
    : user_ids_(user_ids),
      tau_(tau),
      inline_mobility_(true),
      mobility_(user_ids.size(), 0),
      cur_(user_ids.size()),
      mob_cur_(user_ids.size()),
      usage_(user_ids.size()),
      mob_usage_(user_ids.size()),
      devs_(user_ids.size()) {}

void StreamingPerUserPass::Fold(SessionCursor& c, std::vector<Session>& sink,
                                std::uint64_t user_id, std::int64_t t,
                                bool is_op, bool is_store, bool mobile_row,
                                std::uint64_t volume) {
  const bool splits = c.open && is_op && c.has_file_op &&
                      static_cast<Seconds>(t - c.last_file_op) > tau_;
  if (!c.open || splits) {
    if (c.open) sink.push_back(c.s);
    c.s = Session{};
    c.s.user_id = user_id;
    c.s.begin = c.s.end = c.s.first_op = c.s.last_op = t;
    c.has_file_op = false;
    c.open = true;
  }
  if (is_op) {
    c.last_file_op = t;
    c.has_file_op = true;
  }
  if (t > c.s.end) c.s.end = t;
  if (!mobile_row) c.s.mobile = false;
  if (is_op) {
    c.s.last_op = t;
    if (c.s.FileOps() == 0) c.s.first_op = t;
    (is_store ? c.s.store_ops : c.s.retrieve_ops)++;
  } else {
    ++c.s.chunk_requests;
    (is_store ? c.s.store_volume : c.s.retrieve_volume) += volume;
  }
}

void StreamingPerUserPass::Consume(const TraceRowBlock& block) {
  const auto ts = block.timestamps;
  const auto dev = block.device_types;
  const auto dev_id = block.device_ids;
  const auto req = block.request_types;
  const auto dir = block.directions;
  const auto vol = block.data_volumes;

  // Row (= time) order: every column is read sequentially and the per-user
  // state lives in dense arrays, instead of gathering each user's rows from
  // all over the store. Within one user, row order equals run order, so
  // each cursor sees the exact record sequence Sessionize folds.
  for (std::size_t row = 0; row < block.rows(); ++row) {
    const std::uint32_t u = block.users[row];
    const std::uint64_t user_id = user_ids_[u];
    const bool mobile_row = dev[row] != kPcRaw;
    const bool is_op = req[row] == kFileOpRaw;
    const bool is_store = dir[row] == kStoreRaw;
    if (inline_mobility_)
      mobility_[u] |= mobile_row ? kMobileBit : kPcBit;

    UserUsage& full = usage_[u];
    if (mobile_row) {
      auto& d = devs_[u];
      if (std::find(d.begin(), d.end(), dev_id[row]) == d.end())
        d.push_back(dev_id[row]);
    } else {
      full.uses_pc = true;
    }
    if (is_op) {
      (is_store ? full.stored_files : full.retrieved_files)++;
    } else {
      (is_store ? full.store_volume : full.retrieve_volume) += vol[row];
    }
    Fold(cur_[u], sessions_, user_id, ts[row], is_op, is_store, mobile_row,
         vol[row]);

    // Knowing each user's class up front lets the mobile-filtered fold run
    // only for mixed users — for mobile-only users the full fold IS the
    // mobile fold, for PC-only users it folds nothing. Inline-mobility mode
    // cannot know the class yet, so it folds every user's mobile rows and
    // discards the mobile-only users' speculative results at Finish.
    if (mobile_row &&
        (inline_mobility_ || mobility_[u] == kMixedMobility)) {
      UserUsage& m = mob_usage_[u];
      if (is_op) {
        (is_store ? m.stored_files : m.retrieved_files)++;
      } else {
        (is_store ? m.store_volume : m.retrieve_volume) += vol[row];
      }
      Fold(mob_cur_[u], mixed_mobile_, user_id, ts[row], is_op, is_store,
           /*mobile_row=*/true, vol[row]);
    }
  }
}

PerUserResult StreamingPerUserPass::Finish(ThreadPool& pool) {
  const std::size_t n_users = user_ids_.size();
  const auto uid = user_ids_;

  // Flush open sessions, then restore the canonical (user, begin) order the
  // AoS sessionizer ends with. Per-user session begins strictly increase
  // (a split needs a gap > tau > 0), so the sort keys are unique and the
  // result is independent of the emission order and of std::sort's tie
  // handling.
  for (std::size_t u = 0; u < n_users; ++u) {
    if (cur_[u].open) sessions_.push_back(cur_[u].s);
    if (mob_cur_[u].open) mixed_mobile_.push_back(mob_cur_[u].s);
  }
  cur_ = {};
  mob_cur_ = {};
  const auto by_user_begin = [](const Session& a, const Session& b) {
    if (a.user_id != b.user_id) return a.user_id < b.user_id;
    return a.begin < b.begin;
  };
  ParallelInvoke(pool, {
                          [&] {
                            std::sort(sessions_.begin(), sessions_.end(),
                                      by_user_begin);
                          },
                          [&] {
                            std::sort(mixed_mobile_.begin(),
                                      mixed_mobile_.end(), by_user_begin);
                          },
                      });

  PerUserResult out;
  out.usage = std::move(usage_);
  std::size_t n_mobile_users = 0;
  std::size_t n_device_ids = 0;
  for (std::size_t u = 0; u < n_users; ++u) {
    out.usage[u].user_id = uid[u];
    out.usage[u].mobile_devices = devs_[u].size();
    n_device_ids += devs_[u].size();
    if (mobility_[u] & kMobileBit) ++n_mobile_users;
  }

  // Mobile usage, ascending user order: mobile-only users reuse their full
  // row (all rows mobile, so the filtered counters are identical), mixed
  // users take the separately accumulated mobile counters.
  out.mobile_usage.reserve(n_mobile_users);
  for (std::size_t u = 0; u < n_users; ++u) {
    if (!(mobility_[u] & kMobileBit)) continue;
    if (mobility_[u] == kMixedMobility) {
      UserUsage m = mob_usage_[u];
      m.user_id = uid[u];
      m.mobile_devices = devs_[u].size();
      out.mobile_usage.push_back(m);
    } else {
      out.mobile_usage.push_back(out.usage[u]);
    }
  }
  out.mobile_users = n_mobile_users;

  // Mobile sessions: splice per user in ascending order — mobile-only
  // users' slices of the sorted full list (bit-identical, no PC rows) and
  // mixed users' slices of the sorted mixed list.
  std::size_t n_uniform = 0;
  {
    std::size_t u = 0;
    for (const Session& s : sessions_) {
      while (uid[u] != s.user_id) ++u;
      if (mobility_[u] == kMobileBit) ++n_uniform;
    }
  }
  out.mobile_sessions.reserve(n_uniform + mixed_mobile_.size());
  {
    std::size_t i = 0;
    std::size_t j = 0;
    for (std::size_t u = 0; u < n_users; ++u) {
      const std::uint64_t id = uid[u];
      if (mobility_[u] == kMobileBit) {
        while (i < sessions_.size() && sessions_[i].user_id == id)
          out.mobile_sessions.push_back(sessions_[i++]);
        // Inline-mobility mode speculatively folded this mobile-only user
        // into the mixed list too; the full-list slice above is the
        // canonical copy, so drop the duplicates.
        while (j < mixed_mobile_.size() && mixed_mobile_[j].user_id == id)
          ++j;
      } else {
        while (i < sessions_.size() && sessions_[i].user_id == id) ++i;
        while (j < mixed_mobile_.size() && mixed_mobile_[j].user_id == id)
          out.mobile_sessions.push_back(mixed_mobile_[j++]);
      }
    }
  }
  out.sessions = std::move(sessions_);

  // Per-user lists are already deduplicated; a final sort+unique handles
  // devices shared across users.
  std::vector<std::uint64_t> device_ids;
  device_ids.reserve(n_device_ids);
  for (const auto& d : devs_) {
    device_ids.insert(device_ids.end(), d.begin(), d.end());
  }
  std::sort(device_ids.begin(), device_ids.end());
  device_ids.erase(std::unique(device_ids.begin(), device_ids.end()),
                   device_ids.end());
  out.mobile_devices = device_ids.size();
  out.mobile_device_ids = std::move(device_ids);
  return out;
}

}  // namespace mcloud::analysis
