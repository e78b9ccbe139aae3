#include "common.h"

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <set>

namespace perfbench {

void Checker::expect(bool ok, const std::string& check, const std::string& detail) {
  if (!ok) failures_.emplace_back(check, detail);
}

std::vector<std::string> Checker::failed_checks() const {
  std::set<std::string> names;
  for (const auto& [check, detail] : failures_) names.insert(check);
  return {names.begin(), names.end()};
}

std::vector<std::string> Checker::describe(std::size_t limit) const {
  std::vector<std::string> out;
  for (const auto& [check, detail] : failures_) {
    if (out.size() == limit) break;
    out.push_back(check + ": " + detail);
  }
  return out;
}

SpanLog::Span::Span(SpanLog* log, const char* name, const char* layer)
    : log_(log), start_(Clock::now()) {
  index_ = log_->events_.size();
  Event event{name, layer};
  event.start_us = seconds_between(log_->origin_, start_) * 1e6;
  event.parent = log_->open_.empty() ? -1 : long(log_->open_.back());
  log_->events_.push_back(event);
  log_->open_.push_back(index_);
}

SpanLog::Span::~Span() {
  log_->events_[index_].dur_us = seconds_since(start_) * 1e6;
  log_->open_.pop_back();
}

bool SpanLog::write(const std::string& path) const {
  std::ofstream out(path);
  if (!out) return false;
  out << "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[";
  char buf[512];
  for (std::size_t i = 0; i < events_.size(); ++i) {
    const Event& e = events_[i];
    std::snprintf(buf, sizeof buf,
                  "%s{\"name\":\"%s\",\"cat\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":1,"
                  "\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"id\":%zu,\"parent\":%ld}}",
                  i ? "," : "", e.name, e.layer, e.start_us, e.dur_us, i, e.parent);
    out << buf << '\n';
  }
  out << "]}\n";
  return bool(out);
}

double quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0;
  std::sort(values.begin(), values.end());
  const double rank = q * double(values.size() - 1);
  const std::size_t lo = std::size_t(rank);
  const std::size_t hi = std::min(lo + 1, values.size() - 1);
  return values[lo] + (values[hi] - values[lo]) * (rank - double(lo));
}

}  // namespace perfbench
