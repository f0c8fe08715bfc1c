#include "analysis/usage_patterns.h"

#include <algorithm>
#include <cmath>
#include <unordered_map>
#include <unordered_set>

#include "util/error.h"

namespace mcloud::analysis {
namespace {

constexpr double kRatioSaturation = 1e10;  // stands in for ±infinity

bool MatchesProfile(const UserUsage& u, DeviceProfile profile) {
  switch (profile) {
    case DeviceProfile::kMobileOnly:
      return u.MobileOnly();
    case DeviceProfile::kMobileAndPc:
      return u.MobileAndPc();
    case DeviceProfile::kPcOnly:
      return u.PcOnly();
  }
  throw Error("invalid DeviceProfile");
}

std::size_t ClassIndex(paper::UserClass c) {
  return static_cast<std::size_t>(c);
}

}  // namespace

double UserUsage::VolumeRatio() const {
  if (store_volume == 0 && retrieve_volume == 0) return 1.0;
  if (retrieve_volume == 0) return kRatioSaturation;
  if (store_volume == 0) return 1.0 / kRatioSaturation;
  return static_cast<double>(store_volume) /
         static_cast<double>(retrieve_volume);
}

paper::UserClass UserUsage::Classify() const {
  // Table 3 definitions: occasional = under 1 MB of total traffic; then the
  // volume-ratio thresholds split upload/download/mixed.
  if (store_volume + retrieve_volume < paper::kOccasionalVolumeBound)
    return paper::UserClass::kOccasional;
  const double ratio = VolumeRatio();
  if (ratio > paper::kUploadOnlyRatio) return paper::UserClass::kUploadOnly;
  if (ratio < paper::kDownloadOnlyRatio)
    return paper::UserClass::kDownloadOnly;
  return paper::UserClass::kMixed;
}

std::vector<UserUsage> BuildUserUsage(std::span<const LogRecord> trace) {
  std::unordered_map<std::uint64_t, UserUsage> by_user;
  std::unordered_map<std::uint64_t, std::unordered_set<std::uint64_t>>
      mobile_devices;

  for (const LogRecord& r : trace) {
    UserUsage& u = by_user[r.user_id];
    u.user_id = r.user_id;
    if (r.IsMobile()) {
      mobile_devices[r.user_id].insert(r.device_id);
    } else {
      u.uses_pc = true;
    }
    if (r.request_type == RequestType::kFileOperation) {
      (r.direction == Direction::kStore ? u.stored_files
                                        : u.retrieved_files)++;
    } else {
      (r.direction == Direction::kStore ? u.store_volume
                                        : u.retrieve_volume) += r.data_volume;
    }
  }

  std::vector<UserUsage> out;
  out.reserve(by_user.size());
  for (auto& [id, usage] : by_user) {
    if (const auto it = mobile_devices.find(id); it != mobile_devices.end())
      usage.mobile_devices = it->second.size();
    out.push_back(usage);
  }
  // Canonical ascending-user order: downstream consumers sum in vector
  // order, and the streaming per-user pass emits this order natively —
  // sorting here makes both bit-identical (and the result hash-order
  // independent).
  std::sort(out.begin(), out.end(),
            [](const UserUsage& a, const UserUsage& b) {
              return a.user_id < b.user_id;
            });
  return out;
}

std::vector<double> RatioSample(std::span<const UserUsage> usage,
                                DeviceProfile profile) {
  std::vector<double> out;
  for (const UserUsage& u : usage) {
    if (!MatchesProfile(u, profile)) continue;
    if (u.store_volume == 0 && u.retrieve_volume == 0) continue;
    out.push_back(std::log10(u.VolumeRatio()));
  }
  return out;
}

std::vector<double> RatioSampleByDevices(std::span<const UserUsage> usage,
                                         std::size_t min_devices) {
  std::vector<double> out;
  for (const UserUsage& u : usage) {
    if (!u.MobileOnly() || u.mobile_devices < min_devices) continue;
    if (u.store_volume == 0 && u.retrieve_volume == 0) continue;
    out.push_back(std::log10(u.VolumeRatio()));
  }
  return out;
}

UserTypeColumn BuildUserTypeColumn(std::span<const UserUsage> usage,
                                   DeviceProfile profile) {
  UserTypeColumn col;
  std::array<std::size_t, 4> counts{};
  std::array<double, 4> store{};
  std::array<double, 4> retrieve{};
  double store_total = 0;
  double retrieve_total = 0;

  for (const UserUsage& u : usage) {
    if (!MatchesProfile(u, profile)) continue;
    ++col.users;
    const std::size_t k = ClassIndex(u.Classify());
    ++counts[k];
    store[k] += static_cast<double>(u.store_volume);
    retrieve[k] += static_cast<double>(u.retrieve_volume);
    store_total += static_cast<double>(u.store_volume);
    retrieve_total += static_cast<double>(u.retrieve_volume);
  }

  for (std::size_t k = 0; k < 4; ++k) {
    col.user_share[k] =
        col.users ? static_cast<double>(counts[k]) / col.users : 0;
    col.store_share[k] = store_total > 0 ? store[k] / store_total : 0;
    col.retrieve_share[k] =
        retrieve_total > 0 ? retrieve[k] / retrieve_total : 0;
  }
  return col;
}

}  // namespace mcloud::analysis
