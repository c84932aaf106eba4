#include "spans.hpp"

#include <cstdio>
#include <stdexcept>

namespace perfbench {

std::uint64_t SpanRecorder::now_ns() const {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() - t0_)
          .count());
}

int SpanRecorder::open(std::string name, std::uint64_t run) {
  Span s;
  s.name = std::move(name);
  s.run = run;
  s.parent = open_.empty() ? -1 : open_.back();
  const int id = static_cast<int>(spans_.size());
  spans_.push_back(std::move(s));
  open_.push_back(id);
  spans_.back().start_ns = now_ns();
  return id;
}

double SpanRecorder::close(int id) {
  const std::uint64_t end = now_ns();
  if (open_.empty() || open_.back() != id) {
    throw std::logic_error("span closed out of order: " + spans_[id].name);
  }
  open_.pop_back();
  Span& s = spans_[static_cast<std::size_t>(id)];
  s.end_ns = end;
  return static_cast<double>(end - s.start_ns) / 1e6;
}

std::map<std::string, double> SpanRecorder::self_ms() const {
  std::vector<std::uint64_t> child_ns(spans_.size(), 0);
  for (const Span& s : spans_) {
    if (s.parent >= 0) {
      child_ns[static_cast<std::size_t>(s.parent)] += s.end_ns - s.start_ns;
    }
  }
  std::map<std::string, double> out;
  for (std::size_t k = 0; k < spans_.size(); ++k) {
    const Span& s = spans_[k];
    out[s.name] += static_cast<double>(s.end_ns - s.start_ns - child_ns[k]) / 1e6;
  }
  return out;
}

std::string SpanRecorder::chrome_json() const {
  std::string out = "{\"traceEvents\": [\n";
  for (std::size_t k = 0; k < spans_.size(); ++k) {
    const Span& s = spans_[k];
    char buf[256];
    std::snprintf(buf, sizeof buf,
                  "%s  {\"name\": \"%s\", \"ph\": \"X\", \"pid\": 1, "
                  "\"tid\": 1, \"ts\": %.3f, \"dur\": %.3f, \"args\": "
                  "{\"id\": %zu, \"parent\": %d, \"run\": %llu}}",
                  k == 0 ? "" : ",\n", s.name.c_str(),
                  static_cast<double>(s.start_ns) / 1e3,
                  static_cast<double>(s.end_ns - s.start_ns) / 1e3, k,
                  s.parent, static_cast<unsigned long long>(s.run));
    out += buf;
  }
  out += "\n]}\n";
  return out;
}

}  // namespace perfbench
