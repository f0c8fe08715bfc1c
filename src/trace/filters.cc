#include "trace/filters.h"

namespace mcloud {

std::vector<LogRecord> MobileOnly(std::span<const LogRecord> trace) {
  return Filter(trace, [](const LogRecord& r) { return r.IsMobile(); });
}

}  // namespace mcloud
