// tipbench: one run of one benchmark workload. Prints a single JSON
// object on its last line — every metric by name with its unit, plus the
// seed and environment stamp and the correctness verdict. run.py builds
// this binary, runs it, and turns that object into the benchmark result.
//
//   tipbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//            --work-dir <dir> [--rev <git revision>]

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include "workloads.h"

namespace {

using tipbench::Options;
using tipbench::RunData;

/// Linear interpolation between closest ranks; 0 for no samples.
double Percentile(std::vector<double> values, double p) {
  if (values.empty()) return 0;
  std::sort(values.begin(), values.end());
  const double rank = p * static_cast<double>(values.size() - 1);
  const size_t lo = static_cast<size_t>(std::floor(rank));
  const size_t hi = std::min(lo + 1, values.size() - 1);
  return values[lo] + (values[hi] - values[lo]) * (rank - static_cast<double>(lo));
}

std::vector<double> Concat(const RunData& data,
                           std::initializer_list<const char*> kinds) {
  std::vector<double> all;
  for (const char* kind : kinds) {
    auto it = data.latency_ms.find(kind);
    if (it != data.latency_ms.end()) {
      all.insert(all.end(), it->second.begin(), it->second.end());
    }
  }
  return all;
}

std::string Json(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      out += ' ';
    } else {
      out += c;
    }
  }
  return out + "\"";
}

std::string Number(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.12g", v);
  return buf;
}

struct Metric {
  std::string name;
  double value;
  const char* unit;
};

/// The per-layer metrics' units; every traced run reports all of them.
const std::pair<const char*, const char*> kLayerUnits[] = {
    {"core.union_ns_per_period", "ns"},
    {"core.intersect_ns_per_period", "ns"},
    {"core.ground_ns_per_period", "ns"},
    {"sql.parse_us", "us"},
    {"exec.compile_us", "us"},
    {"exec.plan_cache_hit_ratio", "ratio"},
    {"exec.eval_ns_per_row", "ns"},
    {"index.candidates_per_result", "count"},
    {"index.overlay_builds_per_probe", "count"},
    {"index.absolute_builds_per_write", "count"},
    {"index.rows_scanned_per_probe", "count"},
    {"storage.wal_bytes_per_write", "B"},
    {"storage.fsyncs_per_write", "count"},
    {"storage.checkpoint_ms", "ms"},
    {"server.gate_wait_shared_ms_per_stmt", "ms"},
    {"server.gate_wait_exclusive_ms_per_stmt", "ms"},
    {"server.busy_rejections", "count"},
    {"wire.overhead_us", "us"},
    {"wire.bytes_out_per_op", "B"},
    {"browser.view_build_us", "us"},
};

std::vector<Metric> EndToEnd(const RunData& data) {
  std::vector<Metric> m;
  std::vector<double> ops;
  for (const auto& [kind, samples] : data.latency_ms) {
    ops.insert(ops.end(), samples.begin(), samples.end());
  }
  const double done = static_cast<double>(data.attempted - data.failed);
  m.push_back({"setup_s", Percentile(data.setup_s, 0.5), "s"});
  m.push_back({"ops_per_s", data.window_s > 0 ? done / data.window_s : 0,
               "1/s"});
  m.push_back({"op_p50_ms", Percentile(ops, 0.5), "ms"});
  m.push_back({"op_p99_ms", Percentile(ops, 0.99), "ms"});
  for (const char* q : {"q1", "q2", "q3"}) {
    if (data.latency_ms.count(q)) {
      m.push_back({std::string(q) + "_p50_ms",
                   Percentile(data.latency_ms.at(q), 0.5), "ms"});
    }
  }
  if (data.latency_ms.count("read_patient")) {
    const std::vector<double> reads =
        Concat(data, {"read_patient", "read_window"});
    const std::vector<double> writes = Concat(data, {"insert", "update"});
    m.push_back({"read_p50_ms", Percentile(reads, 0.5), "ms"});
    m.push_back({"read_p99_ms", Percentile(reads, 0.99), "ms"});
    m.push_back({"write_p50_ms", Percentile(writes, 0.5), "ms"});
    m.push_back({"write_p99_ms", Percentile(writes, 0.99), "ms"});
  }
  m.push_back({"failed_frac",
               data.attempted > 0 ? static_cast<double>(data.failed) /
                                        static_cast<double>(data.attempted)
                                  : 0,
               "ratio"});
  m.push_back({"peak_rss_mb", data.peak_rss_mb, "MB"});
  return m;
}

int Usage(const char* why) {
  std::fprintf(stderr,
               "tipbench: %s\nusage: tipbench --workload <name> --seed <n> "
               "--seconds <s> --trace <0|1> --work-dir <dir> [--rev <rev>]\n",
               why);
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  Options options;
  std::string rev = "unknown";
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const char* value = argv[i + 1];
    if (flag == "--workload") {
      options.workload = value;
    } else if (flag == "--seed") {
      options.seed = std::strtoull(value, nullptr, 10);
    } else if (flag == "--seconds") {
      options.seconds = std::atof(value);
    } else if (flag == "--trace") {
      options.trace = std::strcmp(value, "0") != 0;
    } else if (flag == "--work-dir") {
      options.work_dir = value;
    } else if (flag == "--rev") {
      rev = value;
    } else {
      return Usage(("unknown flag " + flag).c_str());
    }
  }
  if (argc % 2 == 0) return Usage("every flag takes a value");
  if (options.workload.empty() || options.work_dir.empty()) {
    return Usage("--workload and --work-dir are required");
  }
  if (!(options.seconds > 0)) {
    return Usage("--seconds must be positive");
  }

  RunData data;
  const tip::Status status = tipbench::RunWorkload(options, &data);
  if (!status.ok()) {
    std::fprintf(stderr, "tipbench: %s\n", status.ToString().c_str());
    return 1;
  }

  std::vector<Metric> metrics = EndToEnd(data);
  if (options.trace) {
    for (const auto& [name, unit] : kLayerUnits) {
      auto it = data.layer.find(name);
      if (it != data.layer.end()) metrics.push_back({name, it->second, unit});
    }
  }

  std::string out = "{\"workload\": " + Json(options.workload) +
                    ", \"seed\": " + std::to_string(options.seed) +
                    ", \"trace\": " + (options.trace ? "1" : "0") +
                    ", \"nproc\": " +
                    std::to_string(std::thread::hardware_concurrency()) +
                    ", \"build_type\": " + Json(TIPBENCH_BUILD_TYPE) +
                    ", \"rev\": " + Json(rev) +
                    ", \"sessions\": " + std::to_string(data.sessions) +
                    ", \"seconds\": " + Number(options.seconds) +
                    ", \"window_s\": " + Number(data.window_s) +
                    ", \"attempted\": " + std::to_string(data.attempted) +
                    ", \"failed\": " + std::to_string(data.failed) +
                    ", \"checks_run\": " + std::to_string(data.checks_run) +
                    ", \"check_failures\": [";
  for (size_t i = 0; i < data.check_failures.size(); ++i) {
    out += (i ? ", " : "") + Json(data.check_failures[i]);
  }
  out += "], \"setup_samples_s\": [";
  for (size_t i = 0; i < data.setup_s.size(); ++i) {
    out += (i ? ", " : "") + Number(data.setup_s[i]);
  }
  out += "], \"samples\": {";
  bool first = true;
  for (const auto& [kind, samples] : data.latency_ms) {
    out += (first ? "" : ", ") + Json(kind) + ": " +
           std::to_string(samples.size());
    first = false;
  }
  out += "}, \"span_file\": " + Json(data.span_file) + ", \"metrics\": {";
  for (size_t i = 0; i < metrics.size(); ++i) {
    out += (i ? ", " : "") + Json(metrics[i].name) +
           ": {\"value\": " + Number(metrics[i].value) +
           ", \"unit\": " + Json(metrics[i].unit) + "}";
  }
  out += "}}";
  std::printf("%s\n", out.c_str());
  return 0;
}
