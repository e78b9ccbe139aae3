#include "stages.h"

#include <optional>

#include "edgstr/analysis.h"
#include "edgstr/pipeline.h"
#include "minijs/parser.h"
#include "minijs/printer.h"
#include "refactor/codegen.h"
#include "refactor/dependence.h"
#include "refactor/extract.h"
#include "refactor/normalize.h"
#include "trace/fuzzer.h"
#include "util/rng.h"

namespace perfbench {

using namespace edgstr;

namespace {

/// Adds the wall time of its scope to `into` and records a span.
class Stage {
 public:
  Stage(SpanLog* spans, const char* name, const char* layer, double* into)
      : span_(spans, name, layer), into_(into), start_(Clock::now()) {}
  ~Stage() { *into_ += seconds_since(start_); }
  Stage(const Stage&) = delete;
  Stage& operator=(const Stage&) = delete;

 private:
  MaybeSpan span_;
  double* into_;
  Clock::time_point start_;
};

}  // namespace

void replay_stages(const std::string& app_name, const std::string& source,
                   const std::vector<http::HttpRequest>& client_requests, StageTotals& totals,
                   SpanLog* spans) {
  MaybeSpan whole(spans, "transform.replay", "core");
  http::TrafficRecorder traffic;
  {
    Stage s(spans, "http.capture", "http", &totals.capture_s);
    traffic = core::record_traffic(source, client_requests);
  }
  const Clock::time_point start = Clock::now();

  std::vector<http::ServiceProfile> profiles;
  minijs::Program normalized;
  std::string cloud_source;
  {
    MaybeSpan s(spans, "refactor.normalize", "refactor");
    profiles = traffic.infer_services();
    normalized = refactor::normalize(minijs::parse_program(source));
    cloud_source = minijs::print_program(normalized);
  }
  std::optional<trace::ProfilingHarness> harness;
  {
    Stage s(spans, "trace.harness_init", "trace", &totals.harness_init_s);
    harness.emplace(cloud_source);
  }
  totals.snapshot_bytes += double(harness->init_snapshot().size_bytes());
  const minijs::Program& program = harness->interpreter().program();
  refactor::DependenceAnalyzer analyzer(program);
  trace::Fuzzer fuzzer(*harness, util::Rng(17));
  {
    MaybeSpan s(spans, "trace.live_replay", "trace");
    harness->restore_init();
    for (const http::TrafficRecord& record : traffic.records()) {
      trace::RwCollector collector;
      try {
        harness->invoke(http::Route{record.request.verb, record.request.path}, record.request,
                        &collector);
      } catch (const minijs::JsError&) {
        continue;
      }
      totals.rw_events += double(collector.events().size());
    }
    harness->restore_init();
  }

  std::vector<refactor::ServiceCodegen> replicable;
  for (const http::ServiceProfile& profile : profiles) {
    trace::FuzzReport report;
    {
      Stage s(spans, "trace.fuzz", "trace", &totals.fuzz_s);
      report = fuzzer.fuzz(profile, core::PipelineConfig().fuzz_runs);
      harness->invoke_isolated(profile.route, report.runs.front().request);
    }
    for (const trace::FuzzRun& run : report.runs) totals.rw_events += double(run.events.size());
    refactor::ExtractionPlan plan;
    {
      Stage s(spans, "datalog.analyze", "datalog", &totals.analyze_s);
      plan = analyzer.analyze(report);
      if (plan.ok) core::summarize_state(program, plan, report);
    }
    totals.facts += double(plan.fact_count);
    if (!plan.ok) continue;
    Stage s(spans, "refactor.extract", "refactor", &totals.extract_s);
    refactor::ExtractedFunction function = refactor::extract_function(program, plan);
    if (!function.ok) continue;
    replicable.push_back(refactor::ServiceCodegen{plan, std::move(function)});
  }
  {
    Stage s(spans, "refactor.codegen", "refactor", &totals.extract_s);
    refactor::ReplicaCodegen().generate(app_name, program, replicable);
  }
  totals.steps += double(harness->interpreter().steps());
  {
    MaybeSpan s(spans, "trace.harness_teardown", "trace");
    harness.reset();
  }
  totals.stages_s += seconds_since(start);
  ++totals.transforms;
}

void stage_metrics(const StageTotals& t, double untraced_op_s, LayerMetrics& layer) {
  if (t.transforms == 0) return;
  const double n = t.transforms;
  layer["http.capture_ms"] = t.capture_s * 1e3 / n;
  layer["trace.harness_init_ms"] = t.harness_init_s * 1e3 / n;
  layer["trace.fuzz_ms"] = t.fuzz_s * 1e3 / n;
  layer["trace.rw_events"] = t.rw_events / n;
  layer["minijs.steps"] = t.steps / n;
  layer["datalog.analyze_ms"] = t.analyze_s * 1e3 / n;
  layer["datalog.facts"] = t.facts / n;
  layer["refactor.extract_ms"] = t.extract_s * 1e3 / n;
  layer["trace.snapshot_kb"] = t.snapshot_bytes / 1024.0 / n;
  if (untraced_op_s > 0) layer["trace.stage_coverage"] = t.stages_s / n / untraced_op_s;
}

}  // namespace perfbench
