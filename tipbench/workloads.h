#ifndef TIPBENCH_WORKLOADS_H_
#define TIPBENCH_WORKLOADS_H_

// The three benchmark workloads (README.md): paper_queries,
// browse_whatif and rx_mixed_durable. Each is a closed-loop load
// generator over a generated prescription table; a run sets the
// workload up several times, measures one window, optionally probes
// each layer (the traced run), and checks its own answers.

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "common/status.h"

namespace tipbench {

struct Options {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  /// Scratch directory for the durable database and the span file.
  std::string work_dir;
};

/// What one run measured, before main turns it into named metrics.
struct RunData {
  int sessions = 0;
  std::vector<double> setup_s;  // one sample per set-up
  double window_s = 0;          // wall-clock length of the measured window
  uint64_t attempted = 0;       // operations issued in the window
  uint64_t failed = 0;          // operations that returned an error
  /// Resident-set high-water mark at the end of the window (set-ups
  /// included, verification excluded), in MB.
  double peak_rss_mb = 0;
  /// Latency of each successful operation in the window, by kind
  /// ("q1", "window", "insert", ...), in milliseconds.
  std::map<std::string, std::vector<double>> latency_ms;
  /// Per-layer metrics (traced runs only): name -> value.
  std::map<std::string, double> layer;
  uint64_t checks_run = 0;
  /// One line per failed correctness check; empty means correct.
  std::vector<std::string> check_failures;
  std::string span_file;  // traced runs: where the spans were written
};

/// Runs one workload. A non-OK status means the run could not be
/// carried out at all (unknown workload, set-up failure); wrong answers
/// are reported through RunData::check_failures instead.
tip::Status RunWorkload(const Options& options, RunData* out);

}  // namespace tipbench

#endif  // TIPBENCH_WORKLOADS_H_
