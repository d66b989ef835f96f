// Micro-benchmarks for detection scoring on a replayed 10k-bot campaign
// (the campaign shape and replay populations of perfbench's
// roc_sweep_10k_batch workload):
//
//   BM_FlowScorerStream  one FlowScorer pass over a recorded streamed
//                        replay (the calls are captured once, so
//                        emission is not timed), at the default flow
//                        grid; reports ns_per_flow.
//   BM_RocSweepBatch     the family-resolved 68-cell RocSweep over the
//                        batch replay, on up to four threads; reports
//                        the point count.
#include <benchmark/benchmark.h>

#include <algorithm>
#include <chrono>
#include <thread>
#include <variant>
#include <vector>

#include "detection/replay.hpp"
#include "detection/replay_grid.hpp"
#include "detection/roc.hpp"
#include "scenario/engine.hpp"

namespace {

using namespace onion;
using namespace onion::detection;

const scenario::CampaignTrace& campaign() {
  static const scenario::CampaignTrace trace = [] {
    scenario::ScenarioSpec spec;
    spec.seed = 0xbe7c;
    spec.initial_size = 10'000;
    spec.degree = 10;
    spec.horizon = kHour;
    spec.churn.joins_per_hour = 500.0;
    spec.churn.leaves_per_hour = 500.0;
    scenario::AttackPhase takedown;
    takedown.kind = scenario::AttackKind::RandomTakedown;
    takedown.start = 15 * kMinute;
    takedown.stop = 45 * kMinute;
    takedown.takedowns_per_hour = 600.0;
    spec.attacks.push_back(takedown);
    spec.metrics.period = 5 * kMinute;
    scenario::CampaignTrace out;
    scenario::CampaignEngine(spec, out, &out).run();
    return out;
  }();
  return trace;
}

ReplayConfig populations() {
  ReplayConfig rc;
  rc.seed = 0x5ca1e;
  rc.benign_web = 500;
  rc.benign_tor = 100;
  rc.centralized_bots = 50;
  rc.dga_bots = 50;
  rc.fastflux_bots = 50;
  rc.p2p_bots = 50;
  rc.onion_mean_gap = kMinute;
  return rc;
}

/// A captured sink call sequence: relays, then flows and host-done
/// marks in delivery order.
struct Recording final : FlowSink {
  std::vector<HostId> relays;
  std::vector<std::variant<FlowRecord, HostId>> calls;
  std::size_t flows = 0;

  void on_relays(const std::vector<HostId>& r) override { relays = r; }
  void on_flow(const FlowRecord& f) override {
    calls.emplace_back(f);
    ++flows;
  }
  void on_host_done(HostId host) override { calls.emplace_back(host); }
};

void BM_FlowScorerStream(benchmark::State& state) {
  Recording rec;
  replay_trace_streaming(campaign(), populations(), rec);
  const RocConfig axes;
  const FlowGrid grid(axes.flow_size_cv, axes.flow_gap_cv,
                      FlowDetectorConfig{}.min_flows, axes.tor_min_flows);
  double ns = 0.0;
  for (auto _ : state) {
    const auto start = std::chrono::steady_clock::now();
    FlowScorer scorer(grid.thresholds);
    scorer.on_relays(rec.relays);
    for (const auto& call : rec.calls) {
      if (const FlowRecord* f = std::get_if<FlowRecord>(&call))
        scorer.on_flow(*f);
      else
        scorer.on_host_done(std::get<HostId>(call));
    }
    scorer.finish();
    benchmark::DoNotOptimize(scorer.flagged().data());
    ns += std::chrono::duration<double, std::nano>(
              std::chrono::steady_clock::now() - start)
              .count();
  }
  state.counters["flows"] = static_cast<double>(rec.flows);
  state.counters["ns_per_flow"] =
      ns / (static_cast<double>(rec.flows) *
            static_cast<double>(state.iterations()));
}
BENCHMARK(BM_FlowScorerStream)->Unit(benchmark::kMillisecond);

void BM_RocSweepBatch(benchmark::State& state) {
  const ReplayResult batch = replay_trace(campaign(), populations());
  const GroundTruth truth = replay_ground_truth(batch);
  RocConfig config;
  config.threads =
      std::clamp<std::size_t>(std::thread::hardware_concurrency(), 1, 4);
  const RocSweep sweep(config);
  std::size_t points = 0;
  for (auto _ : state) {
    const RocReport report = sweep.run(batch.trace, truth);
    points = report.points.size();
    benchmark::DoNotOptimize(report.fingerprint.data());
  }
  state.counters["points"] = static_cast<double>(points);
  state.counters["flows"] = static_cast<double>(batch.trace.flows.size());
}
BENCHMARK(BM_RocSweepBatch)->Unit(benchmark::kMillisecond)->UseRealTime();

}  // namespace
