#include "trace/trace_store.h"

#include <algorithm>
#include <unordered_map>
#include <utility>

#include "util/error.h"

namespace mcloud {

void TraceStore::Builder::Reserve(std::size_t n) {
  timestamps.reserve(n);
  device_types.reserve(n);
  device_ids.reserve(n);
  raw_users.reserve(n);
  request_types.reserve(n);
  directions.reserve(n);
  data_volumes.reserve(n);
  if (present & kColProcessingTime) processing_times.reserve(n);
  if (present & kColServerTime) server_times.reserve(n);
  if (present & kColAvgRtt) avg_rtts.reserve(n);
  if (present & kColProxied) proxied.reserve(n);
}

void TraceStore::Builder::Append(const LogRecord& r) {
  timestamps.push_back(r.timestamp);
  device_types.push_back(static_cast<std::uint8_t>(r.device_type));
  device_ids.push_back(r.device_id);
  raw_users.push_back(r.user_id);
  request_types.push_back(static_cast<std::uint8_t>(r.request_type));
  directions.push_back(static_cast<std::uint8_t>(r.direction));
  data_volumes.push_back(r.data_volume);
  if (present & kColProcessingTime) processing_times.push_back(r.processing_time);
  if (present & kColServerTime) server_times.push_back(r.server_time);
  if (present & kColAvgRtt) avg_rtts.push_back(r.avg_rtt);
  if (present & kColProxied) proxied.push_back(r.proxied ? 1 : 0);
}

TraceStore TraceStore::Builder::Build() && {
  TraceStore s;
  s.present_ = present;
  s.day_base_ = day_base;
  s.timestamps_ = std::move(timestamps);
  s.device_types_ = std::move(device_types);
  s.device_ids_ = std::move(device_ids);
  s.request_types_ = std::move(request_types);
  s.directions_ = std::move(directions);
  s.data_volumes_ = std::move(data_volumes);
  s.processing_times_ = std::move(processing_times);
  s.server_times_ = std::move(server_times);
  s.avg_rtts_ = std::move(avg_rtts);
  s.proxied_ = std::move(proxied);

  const std::size_t n = s.timestamps_.size();
  MCLOUD_REQUIRE(n <= UINT32_MAX, "trace too large for TraceStore");
  MCLOUD_REQUIRE((present & kColTimestamp) && (present & kColUser),
                 "timestamp and user columns are mandatory");
  const auto column_sized = [n](std::size_t size, std::uint32_t col,
                                std::uint32_t mask) {
    return (mask & col) ? size == n : size == 0;
  };
  MCLOUD_REQUIRE(column_sized(s.device_types_.size(), kColDeviceType, present) &&
                     column_sized(s.device_ids_.size(), kColDeviceId, present) &&
                     column_sized(s.request_types_.size(), kColRequestType,
                                  present) &&
                     column_sized(s.directions_.size(), kColDirection, present) &&
                     column_sized(s.data_volumes_.size(), kColDataVolume,
                                  present) &&
                     column_sized(s.processing_times_.size(),
                                  kColProcessingTime, present) &&
                     column_sized(s.server_times_.size(), kColServerTime,
                                  present) &&
                     column_sized(s.avg_rtts_.size(), kColAvgRtt, present) &&
                     column_sized(s.proxied_.size(), kColProxied, present),
                 "column length mismatch");
  for (std::size_t i = 1; i < n; ++i) {
    MCLOUD_REQUIRE(s.timestamps_[i] >= s.timestamps_[i - 1],
                   "trace must be time-sorted");
  }
  for (const std::uint8_t d : s.device_types_)
    MCLOUD_REQUIRE(d <= 2, "bad device type");
  for (const std::uint8_t t : s.request_types_)
    MCLOUD_REQUIRE(t <= 1, "bad request type");
  for (const std::uint8_t d : s.directions_)
    MCLOUD_REQUIRE(d <= 1, "bad direction");

  MCLOUD_REQUIRE(raw_users.size() == n, "user column length mismatch");
  if (!user_ids.empty()) {
    // Pre-resolved dense mapping (the v2 on-disk layout).
    MCLOUD_REQUIRE(std::is_sorted(user_ids.begin(), user_ids.end()) &&
                       std::adjacent_find(user_ids.begin(), user_ids.end()) ==
                           user_ids.end(),
                   "user id table must be sorted and unique");
    s.user_ids_ = std::move(user_ids);
    s.user_index_.resize(n);
    for (std::size_t i = 0; i < n; ++i) {
      MCLOUD_REQUIRE(raw_users[i] < s.user_ids_.size(),
                     "dense user index out of range");
      s.user_index_[i] = static_cast<std::uint32_t>(raw_users[i]);
    }
  } else {
    s.FinalizeFromRawUsers(raw_users);
  }
  s.BuildDayPartitions();
  return s;
}

void TraceStore::FinalizeFromRawUsers(std::span<const std::uint64_t> raw) {
  const std::size_t n = raw.size();
  // First pass: first-seen dense ids via one hash probe per row.
  std::unordered_map<std::uint64_t, std::uint32_t> first_seen;
  first_seen.reserve(n / 32 + 16);
  std::vector<std::uint32_t> seen_index(n);
  std::vector<std::uint64_t> ids_in_first_seen_order;
  for (std::size_t i = 0; i < n; ++i) {
    const auto [it, inserted] = first_seen.try_emplace(
        raw[i], static_cast<std::uint32_t>(ids_in_first_seen_order.size()));
    if (inserted) ids_in_first_seen_order.push_back(raw[i]);
    seen_index[i] = it->second;
  }
  // Canonicalize: dense id = rank of the original id in ascending order, so
  // dense iteration order never depends on record order or sharding.
  const std::size_t u = ids_in_first_seen_order.size();
  std::vector<std::uint32_t> by_id(u);
  for (std::size_t i = 0; i < u; ++i) by_id[i] = static_cast<std::uint32_t>(i);
  std::sort(by_id.begin(), by_id.end(),
            [&](std::uint32_t a, std::uint32_t b) {
              return ids_in_first_seen_order[a] < ids_in_first_seen_order[b];
            });
  std::vector<std::uint32_t> rank_of(u);
  user_ids_.resize(u);
  for (std::size_t r = 0; r < u; ++r) {
    rank_of[by_id[r]] = static_cast<std::uint32_t>(r);
    user_ids_[r] = ids_in_first_seen_order[by_id[r]];
  }
  user_index_.resize(n);
  for (std::size_t i = 0; i < n; ++i) user_index_[i] = rank_of[seen_index[i]];
}

void TraceStore::BuildDayPartitions() {
  const std::size_t n = timestamps_.size();
  // Day partitions: contiguous runs of equal calendar day (time-sorted).
  partitions_.clear();
  std::size_t begin = 0;
  while (begin < n) {
    const std::int64_t day = FloorDayIndex(timestamps_[begin] - day_base_);
    std::size_t end = begin + 1;
    while (end < n && FloorDayIndex(timestamps_[end] - day_base_) == day) ++end;
    partitions_.push_back({day, static_cast<std::uint32_t>(begin),
                           static_cast<std::uint32_t>(end)});
    begin = end;
  }
}

TraceStore TraceStore::FromRecords(std::span<const LogRecord> records,
                                   UnixSeconds day_base) {
  Builder b;
  b.day_base = day_base;
  b.Reserve(records.size());
  for (const LogRecord& r : records) b.Append(r);
  return std::move(b).Build();
}

std::vector<LogRecord> TraceStore::ToRecords() const {
  std::vector<LogRecord> out(rows());
  for (std::size_t i = 0; i < out.size(); ++i) {
    LogRecord& r = out[i];
    r.timestamp = timestamps_[i];
    if (!device_types_.empty())
      r.device_type = static_cast<DeviceType>(device_types_[i]);
    if (!device_ids_.empty()) r.device_id = device_ids_[i];
    r.user_id = user_ids_[user_index_[i]];
    if (!request_types_.empty())
      r.request_type = static_cast<RequestType>(request_types_[i]);
    if (!directions_.empty())
      r.direction = static_cast<Direction>(directions_[i]);
    if (!data_volumes_.empty()) r.data_volume = data_volumes_[i];
    if (!processing_times_.empty()) r.processing_time = processing_times_[i];
    if (!server_times_.empty()) r.server_time = server_times_[i];
    if (!avg_rtts_.empty()) r.avg_rtt = avg_rtts_[i];
    if (!proxied_.empty()) r.proxied = proxied_[i] != 0;
  }
  return out;
}

}  // namespace mcloud
