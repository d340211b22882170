#include "engine/metrics.h"

#include "common/string_util.h"

namespace tip::engine {

std::string FormatMetrics(const Metrics& metrics) {
  std::string out;
  for (const auto& [name, value] : metrics) {
    if (!out.empty()) out += ' ';
    out.append(name);
    out += '=';
    out += std::to_string(value);
  }
  return out;
}

Result<uint64_t> FindMetric(const Metrics& metrics,
                            std::string_view subsystem,
                            std::string_view name) {
  for (const auto& [metric, value] : metrics) {
    if (EqualsIgnoreCase(metric, name)) return value;
  }
  return Status::InvalidArgument("unknown " + std::string(subsystem) +
                                 " counter '" + ToLowerAscii(name) + "'");
}

}  // namespace tip::engine
