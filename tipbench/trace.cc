#include "trace.h"

#include <chrono>
#include <cstdio>

namespace tipbench {

int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

int32_t Tracer::Open(const char* name, uint64_t op) {
  SpanRecord span;
  span.name = name;
  span.op = op;
  span.parent = open_.empty() ? -1 : open_.back();
  span.start_ns = NowNs();
  spans_.push_back(span);
  const int32_t id = static_cast<int32_t>(spans_.size() - 1);
  open_.push_back(id);
  return id;
}

void Tracer::Close(int32_t id) {
  spans_[static_cast<size_t>(id)].end_ns = NowNs();
  open_.pop_back();
}

std::map<std::string, SpanStats> Summarize(
    const std::vector<const Tracer*>& tracers) {
  std::map<std::string, SpanStats> out;
  for (const Tracer* tracer : tracers) {
    const std::vector<SpanRecord>& spans = tracer->spans();
    // Children of one parent never overlap (one thread, nested spans),
    // so a parent's self time is its duration minus its children's.
    std::vector<int64_t> child_ns(spans.size(), 0);
    for (const SpanRecord& span : spans) {
      if (span.parent >= 0) {
        child_ns[static_cast<size_t>(span.parent)] +=
            span.end_ns - span.start_ns;
      }
    }
    for (size_t i = 0; i < spans.size(); ++i) {
      const int64_t duration = spans[i].end_ns - spans[i].start_ns;
      SpanStats& stats = out[spans[i].name];
      stats.duration_us.push_back(duration / 1e3);
      stats.self_us.push_back((duration - child_ns[i]) / 1e3);
    }
  }
  return out;
}

bool WriteSpans(const std::string& path,
                const std::vector<const Tracer*>& tracers) {
  std::FILE* file = std::fopen(path.c_str(), "w");
  if (file == nullptr) return false;
  for (size_t t = 0; t < tracers.size(); ++t) {
    const std::vector<SpanRecord>& spans = tracers[t]->spans();
    for (size_t i = 0; i < spans.size(); ++i) {
      const SpanRecord& s = spans[i];
      const std::string parent =
          s.parent < 0 ? "null"
                       : "\"" + std::to_string(t) + "." +
                             std::to_string(s.parent) + "\"";
      std::fprintf(file,
                   "{\"id\": \"%zu.%zu\", \"parent\": %s, \"thread\": %zu, "
                   "\"op\": %llu, \"name\": \"%s\", \"start_ns\": %lld, "
                   "\"end_ns\": %lld}\n",
                   t, i, parent.c_str(), t,
                   static_cast<unsigned long long>(s.op), s.name,
                   static_cast<long long>(s.start_ns),
                   static_cast<long long>(s.end_ns));
    }
  }
  return std::fclose(file) == 0;
}

}  // namespace tipbench
