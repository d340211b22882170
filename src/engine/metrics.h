#ifndef TIP_ENGINE_METRICS_H_
#define TIP_ENGINE_METRICS_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "common/status.h"

namespace tip::engine {

/// One subsystem's counters as (name, value) pairs, in display order,
/// read on demand from the counters the hot paths maintain. Each counter
/// is named once, in the function that builds its subsystem's list;
/// every SQL surface (`tip_X()` and `tip_X('name')`) is generated from
/// that list, so a name the formatted line prints is a name the by-name
/// overload accepts. Names point at string literals.
using Metrics = std::vector<std::pair<std::string_view, uint64_t>>;

/// `name=value name=value ...`, in list order.
std::string FormatMetrics(const Metrics& metrics);

/// The value of the counter called `name`, compared case-insensitively;
/// InvalidArgument("unknown <subsystem> counter '<name>'") when the list
/// has no such counter.
Result<uint64_t> FindMetric(const Metrics& metrics,
                            std::string_view subsystem,
                            std::string_view name);

}  // namespace tip::engine

#endif  // TIP_ENGINE_METRICS_H_
