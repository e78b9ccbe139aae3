// sim_sweep: the project's correctness harness as a workload. One op is
// sim::run_schedule for one seed of a fixed range, run once with the
// default config (variant shadows on) and once with the durable arm
// (durable op logs, crash recovery, snapshot rejoin).
#include "common.h"
#include "sim/schedule.h"

namespace perfbench {

using namespace edgstr;

namespace {

constexpr std::uint64_t kSeeds = 10;  ///< sim seeds per round; two ops each

sim::ScheduleConfig arm(std::uint64_t sim_seed, bool durable, bool variant_check = true) {
  sim::ScheduleConfig config;
  config.seed = sim_seed;
  config.durable = durable;
  config.variant_check = variant_check;
  return config;
}

}  // namespace

Round sim_round(const RoundContext& ctx) {
  Round round;
  const std::uint64_t n_seeds = ctx.quick ? 1 : kSeeds;
  // The run sweeps the fixed range 1..rounds x kSeeds in slices of kSeeds
  // seeds, one slice per round; --seed decides which round sweeps which
  // slice, and the order within it. Every round of every run does the
  // work of one fixed slice.
  Gen gen(ctx.seed);
  std::vector<std::uint64_t> slices(std::size_t(ctx.rounds));
  for (std::size_t i = 0; i < slices.size(); ++i) slices[i] = i;
  gen.shuffle(slices);
  std::vector<std::uint64_t> sim_seeds;
  for (std::uint64_t i = 0; i < n_seeds; ++i) {
    sim_seeds.push_back(slices[std::size_t(ctx.index)] * n_seeds + i + 1);
  }
  gen.shuffle(sim_seeds);
  std::vector<sim::ScheduleConfig> configs;
  for (std::uint64_t sim_seed : sim_seeds) {
    configs.push_back(arm(sim_seed, false));
    configs.push_back(arm(sim_seed, true));
  }

  // ---- set-up: one warm-up schedule ------------------------------------------
  const Clock::time_point setup_start = Clock::now();
  sim::run_schedule(configs.front());
  round.setup_s = seconds_since(setup_start);

  // ---- timed: the sweep ------------------------------------------------------
  std::vector<sim::ScheduleResult> results;
  const Clock::time_point run_start = Clock::now();
  for (const sim::ScheduleConfig& config : configs) {
    const Clock::time_point op_start = Clock::now();
    {
      MaybeSpan span(ctx.spans, config.durable ? "sim.schedule.durable" : "sim.schedule", "sim");
      results.push_back(sim::run_schedule(config));
    }
    round.op_ms.push_back(seconds_since(op_start) * 1e3);
    ++round.attempted;
    if (!results.back().passed) ++round.failed;
  }
  round.op_wall_s = seconds_since(run_start);
  round.run_s = round.op_wall_s;

  // ---- traced rounds: counters and the shadows' share of the sweep ----------
  if (ctx.spans) {
    LayerMetrics& m = round.layer;
    for (const sim::ScheduleResult& r : results) {
      m["sim.requests"] += double(r.requests);
      m["sim.quiesce_rounds"] += double(r.quiesce_rounds);
      m["sim.crashes"] += double(r.crashes);
      m["runtime.variant_checks"] += double(r.variant_checks);
      m["durability.recovered_ops"] += double(r.recovered_ops);
    }
    const Clock::time_point bare_start = Clock::now();
    for (const sim::ScheduleConfig& config : configs) {
      MaybeSpan span(ctx.spans, "sim.schedule.no_shadows", "sim");
      sim::run_schedule(arm(config.seed, config.durable, false));
    }
    m["sim.shadow_share"] = 1.0 - seconds_since(bare_start) / round.op_wall_s;
  }

  // ---- checks ---------------------------------------------------------------
  Checker& check = *ctx.checker;
  for (std::size_t i = 0; i < results.size(); ++i) {
    const sim::ScheduleResult& r = results[i];
    std::size_t expected_violations = 0;
    if (i == 0 && check.planted("sim.invariants")) expected_violations = 1;
    check.expect(r.passed == (expected_violations == 0) &&
                     r.violations.size() == expected_violations,
                 "sim.invariants", r.summary());
  }
  // Determinism: the first seed of each arm, re-run, repeats its digests.
  for (std::size_t i = 0; i < 2 && i < configs.size(); ++i) {
    const sim::ScheduleResult again = sim::run_schedule(configs[i]);
    std::uint64_t expected_trace = results[i].trace_digest;
    if (i == 0 && check.planted("sim.determinism")) expected_trace ^= 1;
    check.expect(again.trace_digest == expected_trace &&
                     again.state_digest == results[i].state_digest,
                 "sim.determinism",
                 "seed " + std::to_string(configs[i].seed) + " re-run gave other digests");
  }
  return round;
}

}  // namespace perfbench
