// Shared pieces of the whole-run benchmark: wall clocks, the benchmark's
// own input generator, correctness checks with planted faults, the span
// log written as a Perfetto-loadable Chrome trace, and the per-round record
// every workload fills in.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <utility>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double seconds_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}
inline double seconds_since(Clock::time_point a) { return seconds_between(a, Clock::now()); }

/// The benchmark's input generator (splitmix64). Inputs depend only on the
/// seed given on the command line; the program under test never sees it.
class Gen {
 public:
  explicit Gen(std::uint64_t seed) : state_(seed ^ 0x6a09e667f3bcc909ULL) {}
  std::uint64_t next() {
    std::uint64_t z = (state_ += 0x9e3779b97f4a7c15ULL);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
  }
  /// Uniform integer in [lo, hi].
  std::int64_t range(std::int64_t lo, std::int64_t hi) {
    return lo + std::int64_t(next() % std::uint64_t(hi - lo + 1));
  }
  template <typename T>
  void shuffle(std::vector<T>& items) {
    for (std::size_t i = items.size(); i > 1; --i) std::swap(items[i - 1], items[next() % i]);
  }

 private:
  std::uint64_t state_;
};

/// Collects the failures of a round's correctness checks. A self-test run
/// names one check to plant a wrong expectation into; the check's code
/// asks planted() and corrupts its own expectation when it is the target.
class Checker {
 public:
  explicit Checker(std::string planted = {}) : planted_(std::move(planted)) {}
  bool planted(const std::string& check) const { return planted_ == check; }
  void expect(bool ok, const std::string& check, const std::string& detail);
  bool ok() const { return failures_.empty(); }
  /// Distinct names of the checks that failed.
  std::vector<std::string> failed_checks() const;
  /// "check: detail" lines, at most `limit` of them.
  std::vector<std::string> describe(std::size_t limit) const;

 private:
  std::string planted_;
  std::vector<std::pair<std::string, std::string>> failures_;  ///< (check, detail)
};

/// Spans recorded around the benchmark's calls into each layer, kept in
/// memory and written once as Chrome-trace JSON (loads in Perfetto).
class SpanLog {
 public:
  class Span {
   public:
    Span(SpanLog* log, const char* name, const char* layer);
    ~Span();
    Span(const Span&) = delete;
    Span& operator=(const Span&) = delete;

   private:
    SpanLog* log_;
    std::size_t index_ = 0;
    Clock::time_point start_;
  };

  SpanLog() : origin_(Clock::now()) {}
  /// Writes {"traceEvents": [...]} to `path`; returns false on I/O error.
  bool write(const std::string& path) const;
  std::size_t size() const { return events_.size(); }

 private:
  struct Event {
    const char* name;
    const char* layer;
    double start_us = 0;
    double dur_us = 0;
    long parent = -1;  ///< index of the enclosing span, -1 at the top
  };
  Clock::time_point origin_;
  std::vector<Event> events_;
  std::vector<std::size_t> open_;  ///< stack of open span indices
};

/// A span that costs nothing when the round is untraced.
class MaybeSpan {
 public:
  MaybeSpan(SpanLog* log, const char* name, const char* layer) {
    if (log) span_.emplace(log, name, layer);
  }

 private:
  std::optional<SpanLog::Span> span_;
};

/// Per-layer metric values by name; units live in the metric table of
/// main.cpp, which is the same list BENCHMARK.json declares.
using LayerMetrics = std::map<std::string, double>;

/// What one round of a workload reports. A round is set-up, the timed
/// operations, final in-program steps (convergence, teardown), and the
/// checks, which are timed by nobody.
struct Round {
  double setup_s = 0;  ///< set-up phase wall time
  double run_s = 0;    ///< first timed op to the end of the last in-program step
  double op_wall_s = 0;  ///< wall time spent sending ops (interleaved sync included)
  std::vector<double> op_ms;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  LayerMetrics layer;  ///< filled by traced rounds only
};

struct RoundContext {
  std::uint64_t seed = 1;
  int index = 0;             ///< round number within the run
  int rounds = 1;            ///< rounds in the run
  bool quick = false;        ///< self-test size: a few ops per round
  SpanLog* spans = nullptr;  ///< non-null in traced rounds
  Checker* checker = nullptr;
};

using RoundFn = Round (*)(const RoundContext&);

struct WorkloadDef {
  const char* name;
  RoundFn round;
  double nominal_round_s;  ///< wall time of one round on the reference machine
  std::vector<std::string> checks;  ///< check names the self-test plants into
};

Round transform_round(const RoundContext& ctx);
Round ingest_round(const RoundContext& ctx);
Round read_round(const RoundContext& ctx);
Round sim_round(const RoundContext& ctx);

/// Quantile by linear interpolation between order statistics.
double quantile(std::vector<double> values, double q);
inline double median(std::vector<double> values) { return quantile(std::move(values), 0.5); }

}  // namespace perfbench
