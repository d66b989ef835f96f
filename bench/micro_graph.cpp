// Micro-benchmarks for the graph substrate: generation, the DDSR repair
// operation itself, the connectivity maintenance behind it, and the
// metric estimators used by the figure harnesses (sampled closeness,
// double-sweep diameter, components).
#include <benchmark/benchmark.h>

#include <chrono>
#include <cstdint>
#include <memory>
#include <vector>

#include "core/ddsr.hpp"
#include "graph/dynamic_connectivity.hpp"
#include "graph/generators.hpp"
#include "graph/metrics.hpp"

namespace {

using onion::Rng;
using onion::core::DdsrEngine;
using onion::core::DdsrPolicy;
using onion::graph::DynamicConnectivity;
using onion::graph::Graph;
using onion::graph::NodeId;

void BM_RandomRegular(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  Rng rng(1);
  for (auto _ : state)
    benchmark::DoNotOptimize(onion::graph::random_regular(n, 10, rng));
}
BENCHMARK(BM_RandomRegular)->Arg(1000)->Arg(5000)->Arg(15000);

void BM_DdsrRemoveNode(benchmark::State& state) {
  // Cost of one deletion + repair + prune + refill at k=10.
  Rng rng(2);
  DdsrPolicy policy;
  policy.dmin = 10;
  policy.dmax = 10;
  auto g = std::make_unique<Graph>(onion::graph::random_regular(5000, 10, rng));
  auto engine = std::make_unique<DdsrEngine>(*g, policy, rng);
  auto alive = g->alive_nodes();
  std::size_t cursor = 0;
  Rng order(3);
  order.shuffle(alive);
  for (auto _ : state) {
    if (cursor >= alive.size() - 100) {  // keep the graph big enough
      state.PauseTiming();
      g = std::make_unique<Graph>(
          onion::graph::random_regular(5000, 10, rng));
      engine = std::make_unique<DdsrEngine>(*g, policy, rng);
      alive = g->alive_nodes();
      order.shuffle(alive);
      cursor = 0;
      state.ResumeTiming();
    }
    engine->remove_node(alive[cursor++]);
  }
}
BENCHMARK(BM_DdsrRemoveNode);

/// Mirrors every mutation of a graph into DynamicConnectivity (the
/// scenario tracker's connectivity half, without its counts) and times
/// the edge deletions, which is where the replacement searches run.
class ConnectivityMirror final : public onion::graph::MutationObserver {
 public:
  explicit ConnectivityMirror(Graph& g) : graph_(g) {
    std::vector<std::uint8_t> track(g.capacity());
    for (NodeId u = 0; u < g.capacity(); ++u) track[u] = g.alive(u) ? 1 : 0;
    dc_.bulk_load(g, track);
    g.set_observer(this);
  }
  ~ConnectivityMirror() override { graph_.set_observer(nullptr); }
  ConnectivityMirror(const ConnectivityMirror&) = delete;
  ConnectivityMirror& operator=(const ConnectivityMirror&) = delete;

  void on_node_added(NodeId u) override {
    dc_.ensure_capacity(graph_.capacity());
    dc_.insert_vertex(u);
  }
  void on_node_removed(NodeId u) override { dc_.remove_vertex(u); }
  void on_edge_added(NodeId u, NodeId v) override { dc_.insert_edge(u, v); }
  void on_edge_removed(NodeId u, NodeId v) override {
    const auto start = std::chrono::steady_clock::now();
    dc_.remove_edge(u, v);
    remove_ns_ += std::chrono::duration<double, std::nano>(
                      std::chrono::steady_clock::now() - start)
                      .count();
  }

  std::uint64_t search_steps() const { return dc_.search_steps(); }
  double remove_ns() const { return remove_ns_; }

 private:
  Graph& graph_;
  DynamicConnectivity dc_;
  double remove_ns_ = 0;
};

void BM_DynConnRemoveEdge(benchmark::State& state) {
  // One DDSR deletion per iteration (remove, clique repair, prune,
  // refill) on a 10-regular 50k overlay whose adjacency has been churned
  // by 2000 earlier deletions. ns_per_search_step divides the time spent
  // inside DynamicConnectivity::remove_edge by the BFS vertices it
  // expanded: the per-step cost of the replacement search.
  constexpr std::size_t kNodes = 50'000;
  constexpr std::size_t kWarmup = 2'000;
  constexpr std::size_t kRemovals = 10'000;  // per overlay, warm-up included
  DdsrPolicy policy;
  policy.dmin = 10;
  policy.dmax = 10;
  Rng rng(10);
  std::unique_ptr<Graph> g;
  std::unique_ptr<ConnectivityMirror> mirror;
  std::unique_ptr<DdsrEngine> engine;
  std::vector<NodeId> victims;
  std::size_t cursor = 0;
  std::uint64_t steps = 0;
  double remove_ns = 0;
  std::uint64_t removals = 0;
  std::uint64_t steps_at_start = 0;
  double ns_at_start = 0;
  const auto settle = [&] {  // fold the finished overlay's totals in
    if (!mirror) return;
    steps += mirror->search_steps() - steps_at_start;
    remove_ns += mirror->remove_ns() - ns_at_start;
  };
  const auto build = [&] {
    settle();
    engine.reset();
    mirror.reset();
    g = std::make_unique<Graph>(onion::graph::random_regular(kNodes, 10, rng));
    mirror = std::make_unique<ConnectivityMirror>(*g);
    engine = std::make_unique<DdsrEngine>(*g, policy, rng);
    victims = g->alive_nodes();
    rng.shuffle(victims);
    for (cursor = 0; cursor < kWarmup; ++cursor)
      engine->remove_node(victims[cursor]);
    steps_at_start = mirror->search_steps();
    ns_at_start = mirror->remove_ns();
  };
  build();
  for (auto _ : state) {
    if (cursor == kRemovals) {
      state.PauseTiming();
      build();
      state.ResumeTiming();
    }
    engine->remove_node(victims[cursor++]);
    ++removals;
  }
  settle();
  state.counters["ns_per_search_step"] =
      steps == 0 ? 0.0 : remove_ns / static_cast<double>(steps);
  state.counters["search_steps_per_removal"] =
      removals == 0
          ? 0.0
          : static_cast<double>(steps) / static_cast<double>(removals);
}
BENCHMARK(BM_DynConnRemoveEdge)->Unit(benchmark::kMicrosecond);

void BM_ClosenessSampled(benchmark::State& state) {
  Rng rng(4);
  const Graph g = onion::graph::random_regular(
      static_cast<std::size_t>(state.range(0)), 10, rng);
  Rng mrng(5);
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        onion::graph::average_closeness_sampled(g, 250, mrng));
  }
}
BENCHMARK(BM_ClosenessSampled)->Arg(5000)->Arg(15000);

void BM_DiameterDoubleSweep(benchmark::State& state) {
  Rng rng(6);
  const Graph g = onion::graph::random_regular(
      static_cast<std::size_t>(state.range(0)), 10, rng);
  Rng mrng(7);
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        onion::graph::diameter_double_sweep(g, 4, mrng));
  }
}
BENCHMARK(BM_DiameterDoubleSweep)->Arg(5000)->Arg(15000);

void BM_ConnectedComponents(benchmark::State& state) {
  Rng rng(8);
  const Graph g = onion::graph::random_regular(
      static_cast<std::size_t>(state.range(0)), 10, rng);
  for (auto _ : state)
    benchmark::DoNotOptimize(onion::graph::connected_components(g));
}
BENCHMARK(BM_ConnectedComponents)->Arg(5000)->Arg(15000);

void BM_BfsDistances(benchmark::State& state) {
  Rng rng(9);
  const Graph g = onion::graph::random_regular(5000, 10, rng);
  for (auto _ : state)
    benchmark::DoNotOptimize(onion::graph::bfs_distances(g, 0));
}
BENCHMARK(BM_BfsDistances);

}  // namespace
