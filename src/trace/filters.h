// Record-level filters over traces.
//
// The figure benches slice the trace before running one analysis on it:
// mobile-only records for §3.1, for instance. `Filter` materializes the
// slice as a new vector (exact-sized: it counts before it copies); the
// analysis pipeline itself never copies records, it walks the columnar
// store (see AnalysisPipeline::Run).
#pragma once

#include <span>
#include <vector>

#include "trace/log_record.h"

namespace mcloud {

/// Keep only records matching a predicate; preserves order. Two passes:
/// count, reserve exactly, copy — no growth overshoot.
template <typename Pred>
[[nodiscard]] std::vector<LogRecord> Filter(std::span<const LogRecord> trace,
                                            Pred&& pred) {
  std::size_t n = 0;
  for (const auto& r : trace) {
    if (pred(r)) ++n;
  }
  std::vector<LogRecord> out;
  out.reserve(n);
  for (const auto& r : trace) {
    if (pred(r)) out.push_back(r);
  }
  return out;
}

/// Records from mobile devices only (Android + iOS).
[[nodiscard]] std::vector<LogRecord> MobileOnly(
    std::span<const LogRecord> trace);

}  // namespace mcloud
