#ifndef TIPBENCH_TRACE_H_
#define TIPBENCH_TRACE_H_

// Span recording for the traced benchmark run. The benchmark wraps each
// of its own calls into an engine layer's public function in a span;
// spans live in per-thread buffers and are summarized (and written out)
// only after the measured window ends. A null Tracer* means tracing is
// off: ScopedSpan then costs one branch.

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace tipbench {

/// Monotonic nanoseconds (steady_clock).
int64_t NowNs();

struct SpanRecord {
  const char* name = "";  // a string literal
  uint64_t op = 0;        // spans of one operation share this id
  int32_t parent = -1;    // index in the same buffer; -1 for a root
  int64_t start_ns = 0;
  int64_t end_ns = 0;
};

/// One thread's span buffer. Not thread-safe: each session thread owns
/// its own.
class Tracer {
 public:
  int32_t Open(const char* name, uint64_t op);
  void Close(int32_t id);
  const std::vector<SpanRecord>& spans() const { return spans_; }

 private:
  std::vector<SpanRecord> spans_;
  std::vector<int32_t> open_;  // stack of open span indices
};

class ScopedSpan {
 public:
  ScopedSpan(Tracer* tracer, const char* name, uint64_t op)
      : tracer_(tracer), id_(tracer ? tracer->Open(name, op) : -1) {}
  ~ScopedSpan() {
    if (tracer_ != nullptr) tracer_->Close(id_);
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  Tracer* tracer_;
  int32_t id_;
};

/// Per span name: how many, and their durations and self times (the
/// duration minus the time covered by child spans), in microseconds.
struct SpanStats {
  std::vector<double> duration_us;
  std::vector<double> self_us;
};

std::map<std::string, SpanStats> Summarize(
    const std::vector<const Tracer*>& tracers);

/// Writes every span as one JSON object per line: id, parent, thread,
/// op, name, start_ns, end_ns. Returns false when the file cannot be
/// written.
bool WriteSpans(const std::string& path,
                const std::vector<const Tracer*>& tracers);

}  // namespace tipbench

#endif  // TIPBENCH_TRACE_H_
