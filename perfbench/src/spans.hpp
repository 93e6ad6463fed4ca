// In-memory span log for the benchmark's traced run.
//
// Spans are recorded from the benchmark's own code around calls into the
// program's modules: name, start, end, parent span and a request id that
// every span of one request shares. Nothing is written while the run is
// timed; write_chrome_trace() dumps the log when the run ends. With the
// log disabled a Scope reads no clock and stores nothing, which is the
// untraced baseline the tracing overhead is measured against.
#pragma once

#include <chrono>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace perfbench {

struct Span {
  /// "<module>.<function>", or "op.<op>" for a request's root span; the
  /// characters must outlive the log.
  std::string_view name;
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  std::int64_t parent = -1;  ///< index into the log, -1 for a root span
  std::uint64_t request = 0;

  double micros() const { return static_cast<double>(end_ns - start_ns) / 1e3; }
};

class SpanLog {
 public:
  explicit SpanLog(bool enabled) : enabled_(enabled) { spans_.reserve(1u << 16); }

  bool enabled() const { return enabled_; }
  const std::vector<Span>& spans() const { return spans_; }

  /// Spans opened from now on carry this request id.
  void begin_request(std::uint64_t id) { request_ = id; }

  /// RAII span; nests under the innermost open Scope of the same log.
  class Scope {
   public:
    Scope(SpanLog& log, std::string_view name);
    ~Scope();
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    SpanLog* log_;
    std::int64_t index_ = -1;
    std::int64_t saved_parent_ = -1;
  };

  /// Every span named `name`, in recording order.
  std::vector<const Span*> named(std::string_view name) const;
  /// Sum of the durations of the spans named `name`, in microseconds.
  double total_us(std::string_view name) const;
  /// Median duration of the spans named `name`, in microseconds.
  double median_us(std::string_view name) const;

  /// Chrome trace-event JSON (open in ui.perfetto.dev); parent and request
  /// id ride in each event's args.
  void write_chrome_trace(const std::string& path) const;

 private:
  static std::int64_t now_ns();

  bool enabled_;
  std::vector<Span> spans_;
  std::int64_t open_ = -1;
  std::uint64_t request_ = 0;
};

}  // namespace perfbench
