// In-memory span recorder for the benchmark's traced run.  A span is one
// timed call into a layer: name, start, end, the span open around it, and
// the workload-run id it belongs to.  Spans are kept in memory and written
// out once, as Chrome trace-event JSON, when the run ends.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

struct Span {
  std::string name;
  std::uint64_t start_ns = 0;
  std::uint64_t end_ns = 0;
  int parent = -1;       // index into the recorder's spans, -1 = root
  std::uint64_t run = 0; // workload-run id
};

class SpanRecorder {
 public:
  SpanRecorder() : t0_(Clock::now()) {}

  // Opens a span as a child of the innermost open span.
  int open(std::string name, std::uint64_t run);
  // Closes span `id` (the innermost open one) and returns its length in ms.
  double close(int id);

  const std::vector<Span>& spans() const { return spans_; }

  // Self time per span name in ms: each span's duration minus the time its
  // direct children cover, summed over all spans of that name.
  std::map<std::string, double> self_ms() const;

  // {"traceEvents": [...]} with one complete ("X") event per span.
  std::string chrome_json() const;

 private:
  using Clock = std::chrono::steady_clock;
  std::uint64_t now_ns() const;

  Clock::time_point t0_;
  std::vector<Span> spans_;
  std::vector<int> open_;
};

// Times one call as a span: opened on construction, closed by close() or
// on destruction.
class SpanScope {
 public:
  SpanScope(SpanRecorder& rec, std::string name, std::uint64_t run)
      : rec_(rec), id_(rec.open(std::move(name), run)) {}
  ~SpanScope() { close(); }
  SpanScope(const SpanScope&) = delete;
  SpanScope& operator=(const SpanScope&) = delete;

  double close() {
    if (id_ < 0) return ms_;
    ms_ = rec_.close(id_);
    id_ = -1;
    return ms_;
  }

 private:
  SpanRecorder& rec_;
  int id_;
  double ms_ = 0.0;
};

}  // namespace perfbench
