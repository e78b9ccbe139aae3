// ingest_hierarchy: the whole replication path under writes. sensor-hub
// starts from a generated reading history, deployed on a hierarchy of 8
// durable edges under regional aggregators. One op is a POST /ingest batch
// at a rotating edge; a sync round (tick + clock drain) runs after every
// kSyncEvery writes, and the round ends with sync_until_converged.
#include <algorithm>
#include <stdexcept>

#include "apps/app.h"
#include "common.h"
#include "edgstr/deployment.h"
#include "edgstr/pipeline.h"
#include "stages.h"

namespace perfbench {

using namespace edgstr;

namespace {

constexpr int kEdges = 8;
constexpr int kFanout = 2;
constexpr int kSensors = 16;
constexpr int kHistory = 1000;  ///< preloaded readings
constexpr int kBatches = 100;   ///< ops per round
constexpr int kSyncEvery = 10;  ///< writes between sync rounds
constexpr int kMaxConvergeRounds = 64;

struct Reading {
  std::string sensor;
  double value = 0;
  bool operator<(const Reading& o) const {
    return sensor != o.sensor ? sensor < o.sensor : value < o.value;
  }
  bool operator==(const Reading& o) const { return sensor == o.sensor && value == o.value; }
};

struct Batch {
  std::string sensor;
  std::vector<int> values;
};

struct Inputs {
  std::string source;             ///< sensor-hub with the history preloaded
  std::vector<Reading> history;
  std::vector<Batch> batches;
};

std::string sensor_name(std::int64_t i) {
  return std::string("s") + char('a' + i / 10) + char('0' + i % 10);
}

void replace_once(std::string& text, const std::string& from, const std::string& to) {
  const std::size_t at = text.find(from);
  if (at == std::string::npos) throw std::runtime_error("sensor-hub source lacks: " + from);
  text.replace(at, from.size(), to);
}

Inputs generate(std::uint64_t seed, bool quick) {
  Gen gen(seed * 0x100000001b3ULL + 11);
  Inputs in;
  const int history = quick ? 40 : kHistory;
  std::string inserts;
  for (int i = 0; i < history; ++i) {
    Reading r{sensor_name(gen.range(0, kSensors - 1)), double(gen.range(0, 99))};
    inserts += "db.query(\"INSERT INTO readings (seq, sensor, value, unit) VALUES (" +
               std::to_string(i + 1) + ", '" + r.sensor + "', " +
               std::to_string(int(r.value)) + ", 'C')\");\n";
    in.history.push_back(r);
  }
  in.source = apps::sensor_hub().server_source;
  replace_once(in.source, "var ingested = 0;", "var ingested = " + std::to_string(history) + ";");
  const std::string anchor = "db.query(\"CREATE TABLE calibrations (sensor, offset)\");\n";
  replace_once(in.source, anchor, anchor + inserts);
  // Batch sizes are a shuffled fixed multiset (2..6, mean 4), so every seed
  // replicates the same number of rows.
  const int batches = quick ? 2 * kSyncEvery : kBatches;
  std::vector<int> sizes;
  for (int b = 0; b < batches; ++b) sizes.push_back(2 + b % 5);
  gen.shuffle(sizes);
  for (int n : sizes) {
    Batch batch{sensor_name(gen.range(0, kSensors - 1)), {}};
    for (int k = 0; k < n; ++k) batch.values.push_back(int(gen.range(0, 99)));
    in.batches.push_back(std::move(batch));
  }
  return in;
}

std::vector<Reading> table_readings(runtime::ReplicaState& state) {
  const sqldb::ResultSet rows =
      state.service().database().execute("SELECT sensor, value FROM readings");
  std::vector<Reading> out;
  for (const auto& row : rows.rows) out.push_back({row.at(0).as_text(), row.at(1).as_double()});
  std::sort(out.begin(), out.end());
  return out;
}

double durable_bytes(core::ThreeTierDeployment& d) {
  double total = 0;
  for (int i = 0; i < kEdges; ++i) total += double(d.durable_store(i)->bytes());
  return total;
}

}  // namespace

Round ingest_round(const RoundContext& ctx) {
  Round round;
  const apps::SubjectApp& app = apps::sensor_hub();

  // ---- set-up: inputs, transform, deployment --------------------------------
  const Clock::time_point setup_start = Clock::now();
  const Inputs in = generate(ctx.seed, ctx.quick);
  const core::TransformResult transformed = core::Pipeline().transform(
      app.name, in.source, core::record_traffic(in.source, app.workload));
  if (!transformed.ok) throw std::runtime_error("sensor-hub transform failed: " + transformed.error);
  core::DeploymentConfig config;
  config.start_sync = false;
  config.seed = ctx.seed;
  config.topology = core::SyncTopology::kHierarchy;
  config.hierarchy_fanout = kFanout;
  config.edge_devices.assign(kEdges, cluster::DeviceProfile::rpi4());
  config.durable_edges = true;
  auto deployment = std::make_unique<core::ThreeTierDeployment>(transformed, config);
  core::ThreeTierDeployment& d = *deployment;
  d.sync().tick();  // warm-up round: opens every link's digest exchange
  d.network().clock().run();
  round.setup_s = seconds_since(setup_start);
  const double durable_bytes_start = durable_bytes(d);
  d.sync().reset_traffic_stats();

  // ---- timed: ingest batches with sync rounds at a fixed write cadence -------
  std::vector<http::HttpResponse> responses;
  double sync_s = 0;
  int sync_rounds = 0;
  const Clock::time_point run_start = Clock::now();
  for (std::size_t b = 0; b < in.batches.size(); ++b) {
    const Batch& batch = in.batches[b];
    json::Array values;
    for (int v : batch.values) values.push_back(json::Value(v));
    const http::HttpRequest req = apps::make_request(
        app.primary_route,
        json::Value::object({{"sensor", batch.sensor}, {"values", json::Value(values)}}));
    const Clock::time_point op_start = Clock::now();
    {
      MaybeSpan span(ctx.spans, "request.ingest", "runtime");
      responses.push_back(d.request_sync(req, b % kEdges));
    }
    round.op_ms.push_back(seconds_since(op_start) * 1e3);
    ++round.attempted;
    if (!responses.back().ok()) ++round.failed;
    if ((b + 1) % kSyncEvery == 0) {
      MaybeSpan span(ctx.spans, "runtime.sync_round", "runtime");
      const Clock::time_point sync_start = Clock::now();
      d.sync().tick();
      d.network().clock().run();
      sync_s += seconds_since(sync_start);
      ++sync_rounds;
    }
  }
  round.op_wall_s = seconds_since(run_start);
  int converge_rounds = 0;
  const Clock::time_point converge_start = Clock::now();
  {
    MaybeSpan span(ctx.spans, "runtime.converge", "runtime");
    converge_rounds = d.sync().sync_until_converged(kMaxConvergeRounds);
  }
  const double converge_s = seconds_since(converge_start);
  round.run_s = seconds_since(run_start);

  // ---- traced rounds: layer counters ----------------------------------------
  if (ctx.spans) {
    LayerMetrics& m = round.layer;
    const Clock::time_point digest_start = Clock::now();
    {
      MaybeSpan span(ctx.spans, "crdt.state_digest", "crdt");
      d.cloud_state().state_digest();
    }
    m["crdt.state_digest_ms"] = seconds_since(digest_start) * 1e3;
    m["runtime.sync_round_ms"] = sync_rounds ? sync_s * 1e3 / sync_rounds : 0;
    m["runtime.sync_rounds"] = sync_rounds;
    m["runtime.converge_ms"] = converge_s * 1e3;
    m["runtime.converge_rounds"] = converge_rounds;
    double minted = 0;
    for (const auto& [doc, vector] : d.cloud_state().versions()) {
      for (const auto& [origin, seq] : vector) minted += double(seq);
    }
    m["crdt.ops_minted"] = minted;
    m["crdt.wire_bytes_per_op"] = double(d.sync().total_sync_bytes()) / double(round.attempted);
    m["runtime.sync_messages"] = double(d.sync().sync_messages());
    const util::MetricsRegistry& sync = d.replication().metrics();
    const double hits = sync.value("sync.digest.hit"), misses = sync.value("sync.digest.miss");
    m["runtime.digest_hit_ratio"] = hits + misses > 0 ? hits / (hits + misses) : 0;
    double fsyncs = 0;
    for (int i = 0; i < kEdges; ++i) fsyncs += double(d.durable_store(i)->fsyncs());
    m["durability.fsyncs"] = fsyncs;
    m["durability.kb_appended"] = (durable_bytes(d) - durable_bytes_start) / 1024.0;
    m["netsim.sim_s"] = d.network().clock().now();
    StageTotals stages;
    replay_stages(app.name, in.source, app.workload, stages, ctx.spans);
    stage_metrics(stages, 0, m);
  }

  // ---- checks ---------------------------------------------------------------
  Checker& check = *ctx.checker;
  for (std::size_t b = 0; b < in.batches.size(); ++b) {
    const Batch& batch = in.batches[b];
    double sum = 0;
    for (int v : batch.values) sum += v;
    double mean = sum / double(batch.values.size());
    if (b == 0 && check.planted("ingest.responses")) mean += 1;
    const json::Value& body = responses[b].body;
    const json::Value* accepted = body.find("accepted");
    const json::Value* got_mean = body.find("batchMean");
    check.expect(responses[b].status == 200 && accepted && accepted->is_number() &&
                     accepted->as_number() == double(batch.values.size()) && got_mean &&
                     got_mean->is_number() && got_mean->as_number() == mean,
                 "ingest.responses", "batch " + std::to_string(b) + ": " + body.dump());
  }
  check.expect(converge_rounds >= 1 && d.converged(), "ingest.tables",
               "not converged after " + std::to_string(kMaxConvergeRounds) + " rounds");
  std::vector<Reading> expected = in.history;
  for (const Batch& batch : in.batches) {
    for (int v : batch.values) expected.push_back({batch.sensor, double(v)});
  }
  if (check.planted("ingest.tables")) expected.push_back({"planted", 0});
  std::sort(expected.begin(), expected.end());
  std::vector<std::pair<std::string, runtime::ReplicaState*>> replicas = {
      {"cloud", &d.cloud_state()}};
  for (std::size_t r = 0; r < d.regional_count(); ++r) {
    replicas.push_back({core::regional_host(r), &d.regional_state(r)});
  }
  for (int i = 0; i < kEdges; ++i) replicas.push_back({core::edge_host(i), &d.edge_state(i)});
  for (const auto& [host, state] : replicas) {
    const std::vector<Reading> got = table_readings(*state);
    check.expect(got == expected, "ingest.tables",
                 host + " holds " + std::to_string(got.size()) + " readings, expected " +
                     std::to_string(expected.size()));
  }

  // ---- teardown -------------------------------------------------------------
  const Clock::time_point teardown_start = Clock::now();
  deployment.reset();
  round.run_s += seconds_since(teardown_start);
  return round;
}

}  // namespace perfbench
