// Micro-benchmarks (google-benchmark) for the kernels on K-dash's hot
// paths: SpMV, the O(1) estimate update, sparse triangular solves, BFS,
// LU factorization, and a full K-dash query.
#include <benchmark/benchmark.h>

#include "common/random.h"
#include "core/estimator.h"
#include "core/kdash_index.h"
#include "core/kdash_searcher.h"
#include "graph/bfs.h"
#include "graph/generators.h"
#include "lu/sparse_lu.h"
#include "lu/triangular.h"
#include "sparse/permute.h"
#include "rwr/power_iteration.h"

namespace kdash {
namespace {

graph::Graph BenchGraph(NodeId n) {
  Rng rng(42);
  return graph::PowerLawCluster(n, 5, 0.6, /*directed=*/true, 0.4, rng);
}

void BM_SpMV(benchmark::State& state) {
  const auto g = BenchGraph(static_cast<NodeId>(state.range(0)));
  const auto a = g.NormalizedAdjacency();
  std::vector<Scalar> x(static_cast<std::size_t>(a.cols()), 1.0 / a.cols());
  std::vector<Scalar> y(x.size());
  for (auto _ : state) {
    a.MultiplyVector(x, y);
    benchmark::DoNotOptimize(y.data());
  }
  state.SetItemsProcessed(state.iterations() * a.nnz());
}
BENCHMARK(BM_SpMV)->Arg(1000)->Arg(4000);

void BM_EstimateUpdate(benchmark::State& state) {
  // The Definition-2 O(1) update, isolated.
  const NodeId n = 1 << 16;
  std::vector<Scalar> amax_of_node(static_cast<std::size_t>(n), 0.25);
  std::vector<Scalar> c_prime(static_cast<std::size_t>(n), 0.05);
  core::ProximityEstimator estimator(0.5, &amax_of_node, &c_prime);
  estimator.Reset();
  estimator.RecordQuery(0, 0.95);
  NodeId u = 1;
  NodeId layer = 1;
  Scalar acc = 0.0;
  for (auto _ : state) {
    acc += estimator.EstimateNext(u, layer);
    estimator.RecordSelected(u, 1e-6);
    if (++u == n) {  // restart the protocol
      estimator.Reset();
      estimator.RecordQuery(0, 0.95);
      u = 1;
      layer = 0;
    }
    if ((u & 1023) == 0) ++layer;
  }
  benchmark::DoNotOptimize(acc);
}
BENCHMARK(BM_EstimateUpdate);

void BM_Bfs(benchmark::State& state) {
  const auto g = BenchGraph(static_cast<NodeId>(state.range(0)));
  for (auto _ : state) {
    const auto tree = graph::BreadthFirstTree(g, 0);
    benchmark::DoNotOptimize(tree.order.data());
  }
  state.SetItemsProcessed(state.iterations() *
                          (g.num_nodes() + g.num_edges()));
}
BENCHMARK(BM_Bfs)->Arg(1000)->Arg(4000);

void BM_LuFactorize(benchmark::State& state) {
  // The LU of a hybrid-reordered graph, as the index build runs it. Arg is
  // the thread count of the dense tail; the dense_tail counter is the
  // number of columns it factored (0 = the sparse path alone ran).
  const auto g = BenchGraph(4000);
  const auto index_order =
      reorder::ComputeReordering(g, reorder::Method::kHybrid);
  const auto a =
      sparse::PermuteSymmetric(g.NormalizedAdjacency(), index_order.new_of_old);
  const auto w = lu::BuildRwrSystemMatrix(a, 0.95);
  const int threads = static_cast<int>(state.range(0));
  NodeId dense_begin = w.rows();
  for (auto _ : state) {
    auto factors = lu::FactorizeLu(w, threads);
    dense_begin = factors.dense_begin;
    benchmark::DoNotOptimize(factors.lower.nnz());
  }
  state.counters["dense_tail"] = static_cast<double>(w.rows() - dense_begin);
}
BENCHMARK(BM_LuFactorize)->Arg(1)->Arg(2)->Arg(4);

void BM_TriangularSolve(benchmark::State& state) {
  const auto g = BenchGraph(static_cast<NodeId>(state.range(0)));
  const auto w = lu::BuildRwrSystemMatrix(g.NormalizedAdjacency(), 0.95);
  const auto factors = lu::FactorizeLu(w);
  std::vector<Scalar> b(static_cast<std::size_t>(g.num_nodes()), 0.0);
  for (auto _ : state) {
    std::fill(b.begin(), b.end(), 0.0);
    b[0] = 0.95;
    lu::SolveLowerInPlace(factors.lower, b);
    lu::SolveUpperInPlace(factors.upper, b);
    benchmark::DoNotOptimize(b.data());
  }
}
BENCHMARK(BM_TriangularSolve)->Arg(1000)->Arg(4000);

// The factors of a hybrid-reordered graph, as the index build sees them.
lu::LuFactors InvertBenchFactors() {
  const auto g = BenchGraph(2000);
  const auto index_order =
      reorder::ComputeReordering(g, reorder::Method::kHybrid);
  const auto a =
      sparse::PermuteSymmetric(g.NormalizedAdjacency(), index_order.new_of_old);
  return lu::FactorizeLu(lu::BuildRwrSystemMatrix(a, 0.95));
}

void BM_TriangularInvert(benchmark::State& state) {
  // The parallelized precompute stage, isolated: L⁻¹. Arg is the thread
  // count.
  const auto factors = InvertBenchFactors();
  const int threads = static_cast<int>(state.range(0));
  for (auto _ : state) {
    const auto inv = lu::InvertLowerTriangular(factors.lower, threads);
    benchmark::DoNotOptimize(inv.nnz());
  }
}
BENCHMARK(BM_TriangularInvert)->Arg(1)->Arg(2)->Arg(4);

void BM_TriangularInvertUpper(benchmark::State& state) {
  // U⁻¹, the other half of the inverse stage. Arg is the thread count.
  const auto factors = InvertBenchFactors();
  const int threads = static_cast<int>(state.range(0));
  for (auto _ : state) {
    const auto inv = lu::InvertUpperTriangular(factors.upper, threads);
    benchmark::DoNotOptimize(inv.nnz());
  }
}
BENCHMARK(BM_TriangularInvertUpper)->Arg(1)->Arg(2)->Arg(4);

void BM_ProximityRowDot(benchmark::State& state) {
  // The dense-gather side of the adaptive proximity kernel: U⁻¹ row · y
  // (a ColumnDot over the stored transpose) with y scattered dense. Arg is
  // the graph size.
  const auto g = BenchGraph(static_cast<NodeId>(state.range(0)));
  const auto index = core::KDashIndex::Build(g, {});
  const auto& uinv_t = index.upper_inverse();
  std::vector<Scalar> y(static_cast<std::size_t>(index.num_nodes()), 0.01);
  Rng rng(3);
  Scalar acc = 0.0;
  for (auto _ : state) {
    acc += uinv_t.ColumnDot(rng.NextNode(index.num_nodes()), y);
  }
  benchmark::DoNotOptimize(acc);
}
BENCHMARK(BM_ProximityRowDot)->Arg(1000)->Arg(4000);

void BM_ProximityRowDotSparse(benchmark::State& state) {
  // The sparse-intersection side: same rows, y restricted to a small
  // support (every 64th node), the shape a short L⁻¹ column produces.
  const auto g = BenchGraph(static_cast<NodeId>(state.range(0)));
  const auto index = core::KDashIndex::Build(g, {});
  const auto& uinv_t = index.upper_inverse();
  std::vector<Scalar> y(static_cast<std::size_t>(index.num_nodes()), 0.0);
  std::vector<NodeId> support;
  for (NodeId i = 0; i < index.num_nodes(); i += 64) {
    support.push_back(i);
    y[static_cast<std::size_t>(i)] = 0.01;
  }
  Rng rng(3);
  Scalar acc = 0.0;
  for (auto _ : state) {
    acc +=
        uinv_t.ColumnDotSparse(rng.NextNode(index.num_nodes()), y, support);
  }
  benchmark::DoNotOptimize(acc);
}
BENCHMARK(BM_ProximityRowDotSparse)->Arg(1000)->Arg(4000);

void BM_KDashQuery(benchmark::State& state) {
  const auto g = BenchGraph(static_cast<NodeId>(state.range(0)));
  const auto index = core::KDashIndex::Build(g, {});
  core::KDashSearcher searcher(&index);
  Rng rng(7);
  Query query = Query::Single(0, 5);
  for (auto _ : state) {
    query.sources.front() = rng.NextNode(g.num_nodes());
    const auto result = searcher.Search(query);
    benchmark::DoNotOptimize(result.top.data());
  }
}
BENCHMARK(BM_KDashQuery)->Arg(1000)->Arg(4000);

void BM_PowerIterationQuery(benchmark::State& state) {
  const auto g = BenchGraph(static_cast<NodeId>(state.range(0)));
  const auto a = g.NormalizedAdjacency();
  Rng rng(7);
  for (auto _ : state) {
    const auto top =
        rwr::TopKByPowerIteration(a, rng.NextNode(g.num_nodes()), 5, {});
    benchmark::DoNotOptimize(top.data());
  }
}
BENCHMARK(BM_PowerIterationQuery)->Arg(1000)->Arg(4000);

}  // namespace
}  // namespace kdash

BENCHMARK_MAIN();
