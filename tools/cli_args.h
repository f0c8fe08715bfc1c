// Flag values shared by the command-line tools (mcloudctl, mcloudd,
// mcloudload): each tool tokenizes its own argv into an Args, and every
// numeric flag is read strictly through it — a whole number that fits the
// flag's type, or a finite number for rates. Anything else throws
// InvalidFlag, which each tool's main reports as
// `invalid value for --<flag>: '<value>'` and exits 2.
#pragma once

#include <charconv>
#include <cmath>
#include <cstdint>
#include <limits>
#include <map>
#include <stdexcept>
#include <string>
#include <system_error>
#include <vector>

namespace mcloud::cli {

/// A numeric flag whose value is not a number of the flag's type.
struct InvalidFlag : std::invalid_argument {
  explicit InvalidFlag(const std::string& key, const std::string& value)
      : std::invalid_argument("invalid value for --" + key + ": '" + value +
                              "'") {}
};

/// --key value pairs plus positional arguments.
struct Args {
  std::map<std::string, std::string> flags;
  std::vector<std::string> positional;

  [[nodiscard]] std::string Get(const std::string& key,
                                const std::string& fallback = "") const {
    const auto it = flags.find(key);
    return it == flags.end() ? fallback : it->second;
  }
  [[nodiscard]] bool Has(const std::string& key) const {
    return flags.count(key) > 0;
  }
  /// The flag as a whole decimal number of unsigned range that fits T, or
  /// `fallback` when the flag is absent; anything else throws InvalidFlag.
  template <typename T>
  [[nodiscard]] T GetUnsigned(const std::string& key, T fallback) const {
    const auto it = flags.find(key);
    if (it == flags.end()) return fallback;
    const std::string& s = it->second;
    std::uint64_t v = 0;
    const auto [end, ec] = std::from_chars(s.data(), s.data() + s.size(), v);
    if (s.empty() || ec != std::errc() || end != s.data() + s.size() ||
        v > static_cast<std::uint64_t>(std::numeric_limits<T>::max()))
      throw InvalidFlag(key, s);
    return static_cast<T>(v);
  }
  [[nodiscard]] std::uint64_t GetU64(const std::string& key,
                                     std::uint64_t fallback) const {
    return GetUnsigned<std::uint64_t>(key, fallback);
  }
  /// --threads: 0 (the default) means every hardware thread.
  [[nodiscard]] int GetThreads() const {
    return GetUnsigned<int>("threads", 0);
  }
  /// The flag as a whole finite decimal number, or `fallback` when absent;
  /// anything else throws InvalidFlag.
  [[nodiscard]] double GetDouble(const std::string& key,
                                 double fallback) const {
    const auto it = flags.find(key);
    if (it == flags.end()) return fallback;
    const std::string& s = it->second;
    double v = 0;
    const auto [end, ec] = std::from_chars(s.data(), s.data() + s.size(), v);
    if (s.empty() || ec != std::errc() || end != s.data() + s.size() ||
        !std::isfinite(v))
      throw InvalidFlag(key, s);
    return v;
  }
};

}  // namespace mcloud::cli
