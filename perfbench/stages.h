// Per-stage replay of one transformation for the traced rounds.
//
// Pipeline::transform is a single call, so a traced round re-runs its
// stages one by one through their public entry points — traffic capture,
// profiling harness, live replay, fuzzing, Datalog dependence analysis,
// extraction and codegen — with a span around each and the counts each
// stage produces. The replay is a measurement aid only; the untraced
// rounds time Pipeline::transform itself.
#pragma once

#include <string>
#include <vector>

#include "common.h"
#include "http/message.h"

namespace perfbench {

struct StageTotals {
  double capture_s = 0;       ///< record_traffic
  double harness_init_s = 0;  ///< ProfilingHarness construction
  double fuzz_s = 0;          ///< Fuzzer::fuzz
  double analyze_s = 0;       ///< DependenceAnalyzer::analyze
  double extract_s = 0;       ///< extract_function + ReplicaCodegen
  double stages_s = 0;        ///< every stage of the replayed transform (capture excluded)
  double rw_events = 0;       ///< RW events logged by fuzzing and live replay
  double steps = 0;           ///< interpreter steps of the profiling harness
  double facts = 0;           ///< Datalog facts across services
  double snapshot_bytes = 0;  ///< Snapshot::size_bytes of the init snapshot
  int transforms = 0;
};

/// Replays the stages of transforming `source` with `client_requests` as
/// captured traffic, adding into `totals`.
void replay_stages(const std::string& app_name, const std::string& source,
                   const std::vector<edgstr::http::HttpRequest>& client_requests,
                   StageTotals& totals, SpanLog* spans);

/// Writes the per-op averages of `totals` into `layer`; `untraced_op_s` is
/// the mean untraced Pipeline::transform time, the base of stage coverage.
void stage_metrics(const StageTotals& totals, double untraced_op_s, LayerMetrics& layer);

}  // namespace perfbench
