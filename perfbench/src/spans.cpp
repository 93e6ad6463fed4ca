#include "spans.hpp"

#include <algorithm>
#include <fstream>
#include <stdexcept>

namespace perfbench {

std::int64_t SpanLog::now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

SpanLog::Scope::Scope(SpanLog& log, std::string_view name) : log_(&log) {
  if (!log.enabled_) return;
  index_ = static_cast<std::int64_t>(log.spans_.size());
  saved_parent_ = log.open_;
  log.spans_.push_back(Span{name, now_ns(), 0, log.open_, log.request_});
  log.open_ = index_;
}

SpanLog::Scope::~Scope() {
  if (index_ < 0) return;
  log_->spans_[static_cast<std::size_t>(index_)].end_ns = now_ns();
  log_->open_ = saved_parent_;
}

std::vector<const Span*> SpanLog::named(std::string_view name) const {
  std::vector<const Span*> out;
  for (const Span& span : spans_) {
    if (span.name == name) out.push_back(&span);
  }
  return out;
}

double SpanLog::total_us(std::string_view name) const {
  double total = 0;
  for (const Span* span : named(name)) total += span->micros();
  return total;
}

double SpanLog::median_us(std::string_view name) const {
  std::vector<double> sample;
  for (const Span* span : named(name)) sample.push_back(span->micros());
  if (sample.empty()) return 0;
  const auto mid = sample.begin() + static_cast<std::ptrdiff_t>(sample.size() / 2);
  std::nth_element(sample.begin(), mid, sample.end());
  return *mid;
}

void SpanLog::write_chrome_trace(const std::string& path) const {
  std::ofstream out{path};
  if (!out) throw std::runtime_error{"cannot write " + path};
  const std::int64_t origin = spans_.empty() ? 0 : spans_.front().start_ns;
  out << "{\"traceEvents\":[";
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& span = spans_[i];
    out << (i == 0 ? "" : ",") << "\n{\"name\":\"" << span.name
        << "\",\"ph\":\"X\",\"pid\":1,\"tid\":1,\"ts\":"
        << static_cast<double>(span.start_ns - origin) / 1e3
        << ",\"dur\":" << span.micros() << ",\"args\":{\"id\":" << i
        << ",\"parent\":" << span.parent << ",\"request\":" << span.request
        << "}}";
  }
  out << "\n]}\n";
}

}  // namespace perfbench
