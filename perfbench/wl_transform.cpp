// transform: the developer-facing cost of the EdgStr pipeline. One op is
// Pipeline::transform of one of the seven subject apps; a round records
// every app's traffic, runs one warm pass over the seven (set-up), then
// several timed passes.
//
// A timed pass transforms each text-only app (bookworm, med-chem-rules,
// sensor-hub, text-notes: dominated by Datalog, 7-14 ms) once and each app
// with an upload payload (mnist-rest, geo-tagger, fobojet: dominated by
// fuzzing and RW-log hashing, 80-200 ms) twice. Op times form one cluster
// per app; with these weights op_ms.p50 falls in the middle of the
// mnist-rest cluster and op_ms.p90 in the middle of the fobojet cluster.
// Neither quantile falls among the Datalog-dominated ops, on purpose: on
// the reference machine their time follows its memory-bound noise three
// times as strongly as the rest (their median moved 20-40% between
// identical runs while run_s moved 5-13%). They still count in run_s and
// ops_per_s, and the traced run's datalog.analyze_ms shows them.
//
// The inputs — the seven apps and their own client traffic — do not depend
// on --seed, and the op order is fixed.

#include "apps/app.h"
#include "common.h"
#include "edgstr/deployment.h"
#include "edgstr/pipeline.h"
#include "stages.h"

namespace perfbench {

using namespace edgstr;

namespace {

constexpr int kPasses = 3;
constexpr int kPayloadRepeats = 2;

int repeats(const apps::SubjectApp& app) {
  return app.typical_payload_bytes > 0 ? kPayloadRepeats : 1;
}
/// The paper's count of remote services across the seven subjects.
constexpr std::size_t kPaperServices = 42;

/// RQ1: the app's client requests give equal status and body on a fresh
/// two-tier and a fresh three-tier deployment, and every request is served
/// at the edge.
void check_equivalence(const apps::SubjectApp& app, const core::TransformResult& result,
                       bool first_app, Checker& check) {
  core::DeploymentConfig config;
  config.start_sync = false;
  core::TwoTierDeployment two(result.cloud_source, config);
  core::ThreeTierDeployment three(result, config);
  bool first = first_app;
  for (const http::HttpRequest& req : app.workload) {
    http::HttpResponse expected = two.request_sync(req);
    if (first && check.planted("transform.rq1")) {
      expected.body = json::Value::object({{"planted", expected.body}});
    }
    first = false;
    const http::HttpResponse got = three.request_sync(req);
    check.expect(got.status == expected.status && got.body == expected.body, "transform.rq1",
                 app.name + " " + req.path + ": two-tier " + expected.body.dump() +
                     " vs three-tier " + got.body.dump());
  }
  const runtime::PathStats& stats = three.proxy(0).stats();
  std::uint64_t expected_local = app.workload.size();
  if (first_app && check.planted("transform.edge_local")) ++expected_local;
  check.expect(stats.requests == app.workload.size() && stats.served_at_edge == expected_local,
               "transform.edge_local",
               app.name + ": " + std::to_string(stats.served_at_edge) + " of " +
                   std::to_string(stats.requests) + " requests served at the edge");
}

}  // namespace

Round transform_round(const RoundContext& ctx) {
  const std::vector<const apps::SubjectApp*>& subjects = apps::all_subject_apps();
  const int passes = ctx.quick ? 1 : kPasses;
  // One pass: every app in registry order, then the payload apps again.
  std::vector<std::size_t> pass;
  for (int repeat = 0; repeat < kPayloadRepeats; ++repeat) {
    for (std::size_t i = 0; i < subjects.size(); ++i) {
      if (repeat < repeats(*subjects[i])) pass.push_back(i);
    }
  }
  const std::vector<std::vector<std::size_t>> orders(passes, pass);
  Round round;

  // ---- set-up: capture every app's traffic, one warm pass -----------------
  const Clock::time_point setup_start = Clock::now();
  std::vector<http::TrafficRecorder> traffic;
  for (const apps::SubjectApp* app : subjects) {
    traffic.push_back(core::record_traffic(app->server_source, app->workload));
  }
  const core::Pipeline pipeline;
  for (std::size_t i = 0; i < subjects.size(); ++i) {
    pipeline.transform(subjects[i]->name, subjects[i]->server_source, traffic[i]);
  }
  round.setup_s = seconds_since(setup_start);

  // ---- timed: passes of transforms -----------------------------------------
  std::vector<core::TransformResult> last(subjects.size());
  std::vector<std::pair<std::size_t, std::size_t>> replicable;  ///< (app, count) per op
  std::vector<double> app_op_s(subjects.size(), 0.0);            ///< summed op time per app
  const Clock::time_point run_start = Clock::now();
  for (const std::vector<std::size_t>& order : orders) {
    for (std::size_t i : order) {
      const apps::SubjectApp& app = *subjects[i];
      const Clock::time_point op_start = Clock::now();
      core::TransformResult result;
      {
        MaybeSpan span(ctx.spans, "core.transform", "core");
        result = pipeline.transform(app.name, app.server_source, traffic[i]);
      }
      round.op_ms.push_back(seconds_since(op_start) * 1e3);
      app_op_s[i] += round.op_ms.back() / 1e3;
      ++round.attempted;
      if (!result.ok) ++round.failed;
      replicable.emplace_back(i, result.replicable_count());
      last[i] = std::move(result);
    }
  }
  round.op_wall_s = seconds_since(run_start);
  round.run_s = round.op_wall_s;

  // ---- traced rounds: per-stage replay of each app ---------------------------
  if (ctx.spans) {
    StageTotals totals;
    for (const apps::SubjectApp* app : subjects) {
      replay_stages(app->name, app->server_source, app->workload, totals, ctx.spans);
    }
    // Coverage base: the mean over the seven apps of each app's mean op time,
    // the same weighting as the replay's one transform per app.
    double per_app_mean_s = 0;
    for (std::size_t i = 0; i < subjects.size(); ++i) {
      per_app_mean_s += app_op_s[i] / double(repeats(*subjects[i]) * passes) / double(subjects.size());
    }
    stage_metrics(totals, per_app_mean_s, round.layer);
  }

  // ---- checks ---------------------------------------------------------------
  Checker& check = *ctx.checker;
  for (const auto& [i, count] : replicable) {
    check.expect(count == subjects[i]->services.size(), "transform.services",
                 subjects[i]->name + ": " + std::to_string(count) + " replicable services, " +
                     std::to_string(subjects[i]->services.size()) + " documented");
  }
  std::size_t expected_total = kPaperServices, total = 0;
  if (check.planted("transform.services")) ++expected_total;
  for (const core::TransformResult& result : last) total += result.replicable_count();
  check.expect(total == expected_total, "transform.services",
               std::to_string(total) + " replicable services in all, expected " +
                   std::to_string(expected_total));
  for (std::size_t i = 0; i < subjects.size(); ++i) {
    const apps::SubjectApp& app = *subjects[i];
    const core::TransformResult& result = last[i];
    check.expect(result.ok, "transform.services", app.name + ": " + result.error);
    if (!result.ok) continue;
    for (const http::Route& route : app.services) {
      const core::ServiceAnalysis* service = result.find_service(route);
      check.expect(service && service->replicable, "transform.services",
                   app.name + " " + route.to_string() + " not found replicable");
    }
    check_equivalence(app, result, i == 0, check);
  }

  // ---- teardown -------------------------------------------------------------
  const Clock::time_point teardown_start = Clock::now();
  last.clear();
  traffic.clear();
  round.run_s += seconds_since(teardown_start);
  return round;
}

}  // namespace perfbench
