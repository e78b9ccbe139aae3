// Whole-run benchmark runner.
//
//   edgstr_wholerun --workload <name> --seed <n> --seconds <s> --trace <0|1>
//   edgstr_wholerun --selftest [--workload <name>]
//
// A run repeats whole rounds of its workload (set-up, timed ops, final
// in-program steps, checks). The number of rounds is fixed by --seconds and
// the workload's nominal round time on the reference machine, so every run
// of a workload does the same work: a faster program finishes sooner, and
// memory that grows with work done shows the same way in every run.
//
// The last line of standard output is one JSON object: {"correct",
// "attempted", "failed", "metrics"}. Untraced runs report the end-to-end
// metrics; traced runs (--trace 1) alternate untraced and traced rounds,
// write the traced rounds' spans as a Chrome trace under
// $CARGO_TARGET_DIR/traces (default .bench_build/traces), and report the
// per-layer metrics. The exit code is non-zero when any check fails.
#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <filesystem>
#include <string>
#include <vector>

#include "common.h"

namespace perfbench {
namespace {

constexpr int kMinRounds = 3;

const std::vector<WorkloadDef>& workloads() {
  static const std::vector<WorkloadDef> defs = {
      {"transform", transform_round, 3.3,
       {"transform.services", "transform.rq1", "transform.edge_local"}},
      {"ingest_hierarchy", ingest_round, 2.3, {"ingest.tables", "ingest.responses"}},
      {"read_star", read_round, 2.4,
       {"read.book", "read.reviews", "read.books", "read.recommend", "read.edge_local"}},
      {"sim_sweep", sim_round, 2.1, {"sim.invariants", "sim.determinism"}},
  };
  return defs;
}

struct MetricDef {
  const char* name;
  const char* unit;
};

/// Per-layer metrics, in the order BENCHMARK.json lists them. Every traced
/// run prints all of them; a layer a workload does not exercise reads 0.
const std::vector<MetricDef>& layer_metric_defs() {
  static const std::vector<MetricDef> defs = {
      {"http.capture_ms", "ms"},          {"trace.harness_init_ms", "ms"},
      {"trace.fuzz_ms", "ms"},            {"trace.rw_events", "count"},
      {"minijs.steps", "count"},          {"datalog.analyze_ms", "ms"},
      {"datalog.facts", "count"},         {"refactor.extract_ms", "ms"},
      {"trace.snapshot_kb", "KB"},        {"trace.stage_coverage", "ratio"},
      {"runtime.sync_round_ms", "ms"},    {"runtime.sync_rounds", "count"},
      {"runtime.converge_ms", "ms"},      {"runtime.converge_rounds", "count"},
      {"crdt.state_digest_ms", "ms"},     {"crdt.ops_minted", "count"},
      {"crdt.wire_bytes_per_op", "B/op"}, {"runtime.sync_messages", "count"},
      {"runtime.digest_hit_ratio", "ratio"}, {"durability.fsyncs", "count"},
      {"durability.kb_appended", "KB"},   {"netsim.sim_s", "s"},
      {"runtime.local_ratio", "ratio"},   {"minijs.exec_ms", "ms"},
      {"minijs.steps_per_op", "count"},   {"sqldb.query_ms", "ms"},
      {"runtime.response_kb", "KB"},      {"sim.requests", "count"},
      {"sim.quiesce_rounds", "count"},    {"sim.crashes", "count"},
      {"runtime.variant_checks", "count"}, {"durability.recovered_ops", "count"},
      {"sim.shadow_share", "ratio"},      {"bench.trace_overhead", "ratio"},
  };
  return defs;
}

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  bool selftest = false;
};

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return double(usage.ru_maxrss) / 1024.0;  // ru_maxrss is in KiB on Linux
}

std::string number(double v) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

const WorkloadDef* find_workload(const std::string& name) {
  for (const WorkloadDef& def : workloads()) {
    if (name == def.name) return &def;
  }
  return nullptr;
}

void print_result(bool correct, std::uint64_t attempted, std::uint64_t failed,
                  const std::vector<std::pair<MetricDef, double>>& metrics) {
  std::string out = std::string("{\"correct\": ") + (correct ? "true" : "false") +
                    ", \"attempted\": " + std::to_string(attempted) +
                    ", \"failed\": " + std::to_string(failed) + ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    const auto& [def, value] = metrics[i];
    out += std::string(i ? ", " : "") + "\"" + def.name + "\": {\"value\": " + number(value) +
           ", \"unit\": \"" + def.unit + "\"}";
  }
  out += "}}";
  std::printf("%s\n", out.c_str());
  std::fflush(stdout);
}

int run(const Options& opt, const WorkloadDef& def) {
  Checker checker;
  SpanLog spans;
  std::vector<Round> untraced, traced;
  std::uint64_t attempted = 0, failed = 0;
  const int rounds = std::max(kMinRounds, int(std::lround(opt.seconds / def.nominal_round_s)));
  for (int i = 0; i < rounds; ++i) {
    const bool trace_this = opt.trace && i % 2 == 1;
    RoundContext ctx;
    ctx.seed = opt.seed;
    ctx.index = i;
    ctx.rounds = rounds;
    ctx.spans = trace_this ? &spans : nullptr;
    ctx.checker = &checker;
    Round round = def.round(ctx);
    std::fprintf(stderr, "round %d%s: setup_s=%.4f run_s=%.4f ops=%zu peak_rss_mb=%.1f\n", i,
                 trace_this ? " (traced)" : "", round.setup_s, round.run_s, round.op_ms.size(),
                 peak_rss_mb());
    attempted += round.attempted;
    failed += round.failed;
    (trace_this ? traced : untraced).push_back(std::move(round));
  }
  const bool correct = checker.ok();
  for (const std::string& line : checker.describe(20)) {
    std::fprintf(stderr, "CHECK FAILED %s\n", line.c_str());
  }

  std::vector<std::pair<MetricDef, double>> metrics;
  auto collect = [](const std::vector<Round>& rounds, auto field) {
    std::vector<double> values;
    for (const Round& r : rounds) values.push_back(r.*field);
    return values;
  };
  const double untraced_run_s = median(collect(untraced, &Round::run_s));
  if (!opt.trace) {
    // setup_s, run_s and ops_per_s are medians over rounds, so a slow spell
    // of the machine that covers fewer than half of the rounds does not
    // move them.
    std::vector<double> op_ms, ops_per_s;
    for (const Round& r : untraced) {
      op_ms.insert(op_ms.end(), r.op_ms.begin(), r.op_ms.end());
      ops_per_s.push_back(double(r.op_ms.size()) / r.op_wall_s);
    }
    metrics = {
        {{"setup_s", "s"}, median(collect(untraced, &Round::setup_s))},
        {{"run_s", "s"}, untraced_run_s},
        {{"ops_per_s", "1/s"}, median(ops_per_s)},
        {{"op_ms.p50", "ms"}, quantile(op_ms, 0.5)},
        {{"op_ms.p90", "ms"}, quantile(op_ms, 0.9)},
        {{"peak_rss_mb", "MB"}, peak_rss_mb()},
    };
    std::printf("workload=%s seed=%llu rounds=%zu ops=%zu attempted=%llu failed=%llu\n",
                def.name, (unsigned long long)opt.seed, untraced.size(), op_ms.size(),
                (unsigned long long)attempted, (unsigned long long)failed);
  } else {
    for (const MetricDef& m : layer_metric_defs()) {
      std::vector<double> values;
      for (const Round& r : traced) {
        auto it = r.layer.find(m.name);
        values.push_back(it == r.layer.end() ? 0.0 : it->second);
      }
      metrics.push_back({m, median(values)});
    }
    for (auto& [m, value] : metrics) {
      if (std::strcmp(m.name, "bench.trace_overhead") == 0) {
        value = median(collect(traced, &Round::run_s)) / untraced_run_s;
      }
    }
    const char* build_dir = std::getenv("CARGO_TARGET_DIR");
    const std::string out_dir =
        std::string(build_dir && *build_dir ? build_dir : ".bench_build") + "/traces";
    std::filesystem::create_directories(out_dir);
    const std::string path =
        out_dir + "/" + def.name + ".seed" + std::to_string(opt.seed) + ".trace.json";
    const bool written = spans.write(path);
    std::printf("workload=%s seed=%llu untraced_rounds=%zu traced_rounds=%zu attempted=%llu "
                "failed=%llu spans=%zu trace=%s%s\n",
                def.name, (unsigned long long)opt.seed, untraced.size(), traced.size(),
                (unsigned long long)attempted, (unsigned long long)failed, spans.size(),
                path.c_str(), written ? "" : " (write failed)");
  }
  print_result(correct, attempted, failed, metrics);
  return correct ? 0 : 1;
}

/// Runs each check once with a wrong expectation planted into it and
/// confirms that check fails, after one clean round that must pass.
int selftest(const Options& opt) {
  int bad = 0;
  for (const WorkloadDef& def : workloads()) {
    if (!opt.workload.empty() && opt.workload != def.name) continue;
    std::vector<std::string> plants = {""};
    plants.insert(plants.end(), def.checks.begin(), def.checks.end());
    for (const std::string& plant : plants) {
      Checker checker(plant);
      RoundContext ctx;
      ctx.seed = opt.seed;
      ctx.quick = true;
      ctx.checker = &checker;
      const Round round = def.round(ctx);
      const std::vector<std::string> failed = checker.failed_checks();
      const bool ok = plant.empty() ? failed.empty()
                                    : failed == std::vector<std::string>{plant};
      bad += ok ? 0 : 1;
      std::printf("selftest %-16s plant=%-20s ops=%llu failed_checks=%zu %s\n", def.name,
                  plant.empty() ? "(none)" : plant.c_str(), (unsigned long long)round.attempted,
                  failed.size(), ok ? "ok" : "WRONG");
      if (!ok) {
        for (const std::string& line : checker.describe(5)) std::printf("  %s\n", line.c_str());
      }
    }
  }
  std::printf("selftest %s\n", bad ? "FAILED" : "passed");
  return bad ? 1 : 0;
}

int usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s --workload <name> --seed <n> --seconds <s> --trace <0|1>\n"
               "       %s --selftest [--workload <name>] [--seed <n>]\n"
               "workloads:",
               argv0, argv0);
  for (const WorkloadDef& def : workloads()) std::fprintf(stderr, " %s", def.name);
  std::fprintf(stderr, "\n");
  return 2;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  Options opt;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const bool has_value = i + 1 < argc;
    if (arg == "--selftest") {
      opt.selftest = true;
    } else if (arg == "--workload" && has_value) {
      opt.workload = argv[++i];
    } else if (arg == "--seed" && has_value) {
      opt.seed = std::strtoull(argv[++i], nullptr, 10);
    } else if (arg == "--seconds" && has_value) {
      opt.seconds = std::atof(argv[++i]);
    } else if (arg == "--trace" && has_value) {
      opt.trace = std::string(argv[++i]) == "1";
    } else {
      return usage(argv[0]);
    }
  }
  try {
    if (opt.selftest) return selftest(opt);
    const WorkloadDef* def = find_workload(opt.workload);
    if (!def) return usage(argv[0]);
    return run(opt, *def);
  } catch (const std::exception& err) {
    std::fprintf(stderr, "edgstr_wholerun: %s\n", err.what());
    return 3;
  }
}
