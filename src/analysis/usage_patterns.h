// Usage-pattern analysis (§3.2.1, Fig 7, Table 3): per-user store/retrieve
// volumes, the volume-ratio CDFs, and the four-class user taxonomy.
#pragma once

#include <array>
#include <span>
#include <vector>

#include "model/paper_params.h"
#include "trace/log_record.h"

namespace mcloud::analysis {

/// Per-user aggregates over the observation window.
struct UserUsage {
  std::uint64_t user_id = 0;
  Bytes store_volume = 0;
  Bytes retrieve_volume = 0;
  std::uint64_t stored_files = 0;     ///< file storage operations
  std::uint64_t retrieved_files = 0;  ///< file retrieval operations
  std::size_t mobile_devices = 0;
  bool uses_pc = false;

  [[nodiscard]] bool MobileOnly() const {
    return mobile_devices > 0 && !uses_pc;
  }
  [[nodiscard]] bool MobileAndPc() const {
    return mobile_devices > 0 && uses_pc;
  }
  [[nodiscard]] bool PcOnly() const { return mobile_devices == 0 && uses_pc; }

  /// Store/retrieve volume ratio with the paper's conventions: 0 volume on
  /// one side saturates the ratio beyond the classification thresholds.
  [[nodiscard]] double VolumeRatio() const;

  [[nodiscard]] paper::UserClass Classify() const;
};

/// Build per-user usage from a (mobile + PC) trace.
[[nodiscard]] std::vector<UserUsage> BuildUserUsage(
    std::span<const LogRecord> trace);

/// Device-profile grouping used by Fig 7 / Table 3 columns.
enum class DeviceProfile { kMobileOnly, kMobileAndPc, kPcOnly };

/// Log10 of the volume ratio for users matching `profile` (Fig 7a series);
/// users with zero traffic in both directions are skipped.
[[nodiscard]] std::vector<double> RatioSample(
    std::span<const UserUsage> usage, DeviceProfile profile);

/// Same, restricted to mobile-only users with at least `min_devices`
/// devices (Fig 7b series).
[[nodiscard]] std::vector<double> RatioSampleByDevices(
    std::span<const UserUsage> usage, std::size_t min_devices);

/// One column of Table 3.
struct UserTypeColumn {
  std::size_t users = 0;
  std::array<double, 4> user_share{};      ///< by paper::UserClass order
  std::array<double, 4> store_share{};     ///< share of column store volume
  std::array<double, 4> retrieve_share{};  ///< share of column retrieve vol.
};

/// Table 3: per-class user and volume shares for one device profile.
[[nodiscard]] UserTypeColumn BuildUserTypeColumn(
    std::span<const UserUsage> usage, DeviceProfile profile);

}  // namespace mcloud::analysis
