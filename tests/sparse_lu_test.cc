#include "lu/sparse_lu.h"

#include <gtest/gtest.h>

#include <cmath>
#include <functional>
#include <ostream>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "common/random.h"
#include "datasets/datasets.h"
#include "graph/graph.h"
#include "linalg/dense_matrix.h"
#include "reorder/reorder.h"
#include "sparse/coo_builder.h"
#include "sparse/permute.h"
#include "test_util.h"

namespace kdash::lu {
namespace {

using sparse::CooBuilder;
using sparse::CscMatrix;

TEST(BuildRwrSystemMatrixTest, Definition) {
  // W = I - (1-c)A entrywise.
  CooBuilder builder(3, 3);
  builder.Add(1, 0, 0.6);
  builder.Add(2, 0, 0.4);
  builder.Add(0, 1, 1.0);
  builder.Add(1, 2, 0.5);
  builder.Add(2, 2, 0.5);  // self transition
  const CscMatrix a = builder.BuildCsc();
  const CscMatrix w = BuildRwrSystemMatrix(a, 0.9);
  EXPECT_NEAR(w.At(0, 0), 1.0, 1e-15);
  EXPECT_NEAR(w.At(1, 0), -0.1 * 0.6, 1e-15);
  EXPECT_NEAR(w.At(2, 0), -0.1 * 0.4, 1e-15);
  EXPECT_NEAR(w.At(0, 1), -0.1, 1e-15);
  EXPECT_NEAR(w.At(2, 2), 1.0 - 0.1 * 0.5, 1e-15);
}

// W = I − (1−c)·A equals the COO assembly of the identity's 1s and the
// scaled entries of A, bit for bit: a self-loop's diagonal is the same
// two-term sum either way.
TEST(BuildRwrSystemMatrixTest, MatchesCooAssembly) {
  Rng rng(3);
  for (const NodeId n : {1, 3, 12, 60}) {
    CooBuilder builder(n, n);
    // Column 0 holds only its diagonal; for n > 2, column n − 1 is empty.
    builder.Add(0, 0, 0.5);
    const int entries = static_cast<int>(n) * 4;
    for (int e = 0; e < entries && n > 2; ++e) {
      const NodeId row = rng.NextNode(n);
      const NodeId col = rng.NextBounded(3) == 0
                             ? row
                             : 1 + rng.NextNode(n - 2);
      if (col == 0 || col == n - 1) continue;
      builder.Add(row, col, rng.NextDouble());
    }
    const CscMatrix a = builder.BuildCsc();
    for (const Scalar c : {0.05, 0.5, 0.95}) {
      CooBuilder oracle(n, n);
      for (NodeId col = 0; col < n; ++col) {
        oracle.Add(col, col, 1.0);
        for (Index k = a.ColBegin(col); k < a.ColEnd(col); ++k) {
          oracle.Add(a.RowIndex(k), col, -(1.0 - c) * a.Value(k));
        }
      }
      EXPECT_TRUE(
          test::SameCscBits(BuildRwrSystemMatrix(a, c), oracle.BuildCsc()))
          << "n = " << n << ", c = " << c;
    }
  }
}

TEST(SparseLuTest, IdentityFactorsTrivially) {
  CooBuilder builder(4, 4);
  for (NodeId i = 0; i < 4; ++i) builder.Add(i, i, 1.0);
  const CscMatrix identity = builder.BuildCsc();
  const LuFactors factors = FactorizeLu(identity);
  EXPECT_EQ(factors.lower.nnz(), 4);
  EXPECT_EQ(factors.upper.nnz(), 4);
  for (NodeId i = 0; i < 4; ++i) {
    EXPECT_DOUBLE_EQ(factors.lower.At(i, i), 1.0);
    EXPECT_DOUBLE_EQ(factors.upper.At(i, i), 1.0);
  }
}

TEST(SparseLuTest, KnownSmallFactorization) {
  // W = [2 1; 1 3]: L = [1 0; 0.5 1], U = [2 1; 0 2.5].
  CooBuilder builder(2, 2);
  builder.Add(0, 0, 2.0);
  builder.Add(1, 0, 1.0);
  builder.Add(0, 1, 1.0);
  builder.Add(1, 1, 3.0);
  const LuFactors factors = FactorizeLu(builder.BuildCsc());
  EXPECT_DOUBLE_EQ(factors.lower.At(1, 0), 0.5);
  EXPECT_DOUBLE_EQ(factors.upper.At(0, 0), 2.0);
  EXPECT_DOUBLE_EQ(factors.upper.At(0, 1), 1.0);
  EXPECT_DOUBLE_EQ(factors.upper.At(1, 1), 2.5);
}

TEST(SparseLuTest, FactorsAreTriangularWithUnitLowerDiagonal) {
  const auto g = test::RandomDirectedGraph(60, 400, 3);
  const CscMatrix w = BuildRwrSystemMatrix(g.NormalizedAdjacency(), 0.9);
  const LuFactors factors = FactorizeLu(w);
  for (NodeId j = 0; j < w.cols(); ++j) {
    for (Index k = factors.lower.ColBegin(j); k < factors.lower.ColEnd(j); ++k) {
      EXPECT_GE(factors.lower.RowIndex(k), j);
    }
    EXPECT_DOUBLE_EQ(factors.lower.At(j, j), 1.0);
    for (Index k = factors.upper.ColBegin(j); k < factors.upper.ColEnd(j); ++k) {
      EXPECT_LE(factors.upper.RowIndex(k), j);
    }
    EXPECT_NE(factors.upper.At(j, j), 0.0);
  }
}

// The RWR system matrix exactly as KDashIndex::Build stages it: reorder,
// symmetric permutation, W = I - (1-c)A.
CscMatrix ReorderedRwrSystem(const graph::Graph& graph, reorder::Method method,
                             Scalar restart_prob) {
  const auto order = reorder::ComputeReordering(graph, method);
  const auto a_perm =
      sparse::PermuteSymmetric(graph.NormalizedAdjacency(), order.new_of_old);
  return BuildRwrSystemMatrix(a_perm, restart_prob);
}

// A directed path: the elimination DAG is one chain.
graph::Graph PathGraph() {
  constexpr NodeId kNodes = 64;
  graph::GraphBuilder builder(kNodes);
  for (NodeId u = 0; u + 1 < kNodes; ++u) builder.AddEdge(u, u + 1);
  return std::move(builder).Build();
}

// A star: one hub column with maximal fan-in and fan-out.
graph::Graph StarGraph() {
  constexpr NodeId kNodes = 101;
  graph::GraphBuilder builder(kNodes);
  for (NodeId leaf = 1; leaf < kNodes; ++leaf) {
    builder.AddUndirectedEdge(0, leaf);
  }
  return std::move(builder).Build();
}

// Two dense blocks plus 3 isolated nodes at the end.
graph::Graph TwoBlocksGraph() {
  constexpr NodeId kBlock = 20;
  graph::GraphBuilder builder(2 * kBlock + 3);
  for (NodeId block = 0; block < 2; ++block) {
    const NodeId base = block * kBlock;
    for (NodeId i = 0; i < kBlock; ++i) {
      for (NodeId j = 0; j < kBlock; ++j) {
        if (i != j && (i + 2 * j + block) % 3 == 0) {
          builder.AddEdge(base + i, base + j);
        }
      }
    }
  }
  return std::move(builder).Build();
}

// A synthetic dataset stand-in in hybrid order, as KDashIndex::Build
// stages it.
CscMatrix HybridStandIn(datasets::DatasetId id, double scale) {
  return ReorderedRwrSystem(datasets::MakeDataset(id, scale).graph,
                            reorder::Method::kHybrid, 0.95);
}

// One LTimesUEqualsW input: a named recipe for the system matrix W (built
// lazily, inside the test, so reordering never runs at registration time).
// `dense_tail` marks inputs on which FactorizeLu must take its dense tail.
struct ReconstructionCase {
  std::string name;
  std::function<CscMatrix()> make_w;
  bool dense_tail = false;
};

void PrintTo(const ReconstructionCase& c, std::ostream* os) { *os << c.name; }

std::vector<ReconstructionCase> ReconstructionCases() {
  std::vector<ReconstructionCase> cases;
  // Unordered random graphs across restart probabilities.
  for (const auto& [n, m, c] :
       {std::tuple{10, 30, 0.95}, std::tuple{25, 120, 0.95},
        std::tuple{40, 300, 0.9}, std::tuple{60, 200, 0.5},
        std::tuple{80, 700, 0.99}, std::tuple{50, 50, 0.95},
        std::tuple{30, 600, 0.2}}) {
    cases.push_back(
        {"random_n" + std::to_string(n) + "_m" + std::to_string(m) + "_c" +
             std::to_string(static_cast<int>(c * 100)),
         [n = n, m = m, c = c] {
           const auto g = test::RandomDirectedGraph(
               static_cast<NodeId>(n), static_cast<Index>(m),
               static_cast<std::uint64_t>(n * m));
           return BuildRwrSystemMatrix(g.NormalizedAdjacency(), c);
         }});
  }
  // Random graphs under the paper's three reorder heuristics, whose
  // elimination structures differ widely.
  for (const auto& [n, m, seed] : {std::tuple{120, 700, 5},
                                   std::tuple{300, 2600, 6},
                                   std::tuple{80, 1200, 7}}) {
    for (const auto method : {reorder::Method::kDegree,
                              reorder::Method::kCluster,
                              reorder::Method::kHybrid}) {
      cases.push_back({"random_n" + std::to_string(n) + "_" +
                           reorder::MethodName(method),
                       [n = n, m = m, seed = seed, method] {
                         const auto g = test::RandomDirectedGraph(
                             static_cast<NodeId>(n), static_cast<Index>(m),
                             static_cast<std::uint64_t>(seed));
                         return ReorderedRwrSystem(g, method, 0.95);
                       }});
    }
  }
  // Structured shapes, raw and reordered.
  cases.push_back({"path_raw", [] {
                     return BuildRwrSystemMatrix(
                         PathGraph().NormalizedAdjacency(), 0.9);
                   }});
  cases.push_back({"path_degree", [] {
                     return ReorderedRwrSystem(PathGraph(),
                                               reorder::Method::kDegree, 0.9);
                   }});
  cases.push_back({"star_raw", [] {
                     return BuildRwrSystemMatrix(
                         StarGraph().NormalizedAdjacency(), 0.95);
                   }});
  cases.push_back({"star_hybrid", [] {
                     return ReorderedRwrSystem(StarGraph(),
                                               reorder::Method::kHybrid, 0.95);
                   }});
  cases.push_back({"two_blocks_raw", [] {
                     return BuildRwrSystemMatrix(
                         TwoBlocksGraph().NormalizedAdjacency(), 0.9);
                   }});
  cases.push_back({"two_blocks_cluster", [] {
                     return ReorderedRwrSystem(TwoBlocksGraph(),
                                               reorder::Method::kCluster, 0.9);
                   }});
  cases.push_back({"single_node", [] {
                     return BuildRwrSystemMatrix(
                         graph::GraphBuilder(1).Build().NormalizedAdjacency(),
                         0.95);
                   }});
  // Inputs whose factor turns dense: the sparse columns hand over to the
  // dense tail part-way (the stand-ins) or almost at once (the dense graph).
  cases.push_back({"social_hybrid",
                   [] { return HybridStandIn(datasets::DatasetId::kSocial, 0.2); },
                   /*dense_tail=*/true});
  cases.push_back(
      {"citation_hybrid",
       [] { return HybridStandIn(datasets::DatasetId::kCitation, 0.2); },
       /*dense_tail=*/true});
  cases.push_back({"dense_random", [] {
                     const auto g = test::RandomDirectedGraph(600, 12000, 8);
                     return BuildRwrSystemMatrix(g.NormalizedAdjacency(), 0.95);
                   },
                   /*dense_tail=*/true});
  return cases;
}

class LuReconstructionTest
    : public ::testing::TestWithParam<ReconstructionCase> {};

TEST_P(LuReconstructionTest, LTimesUEqualsW) {
  const CscMatrix w = GetParam().make_w();
  const LuFactors factors = FactorizeLu(w);
  if (GetParam().dense_tail) {
    EXPECT_LT(factors.dense_begin, w.rows());
  }

  const auto dense_l = test::ToDense(factors.lower);
  const auto dense_u = test::ToDense(factors.upper);
  const auto product = linalg::MatMul(dense_l, dense_u);
  const auto dense_w = test::ToDense(w);
  EXPECT_LT(test::MaxAbsDiff(product, dense_w), 1e-12);
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, LuReconstructionTest, ::testing::ValuesIn(ReconstructionCases()),
    [](const ::testing::TestParamInfo<ReconstructionCase>& info) {
      return info.param.name;
    });

TEST(SparseLuTest, EmailStandInStaysSparse) {
  // No L column of the Email stand-in reaches a quarter of the remaining
  // rows, unreordered (as the updatable engine factors it) or hybrid.
  const auto email = datasets::MakeDataset(datasets::DatasetId::kEmail, 1.0);
  const CscMatrix identity =
      BuildRwrSystemMatrix(email.graph.NormalizedAdjacency(), 0.95);
  EXPECT_EQ(FactorizeLu(identity).dense_begin, identity.rows());
  const CscMatrix hybrid =
      ReorderedRwrSystem(email.graph, reorder::Method::kHybrid, 0.95);
  EXPECT_EQ(FactorizeLu(hybrid).dense_begin, hybrid.rows());
}

// The textbook dense LU without pivoting, in place: L (unit diagonal
// implicit) below the diagonal, U on and above it.
void DenseNoPivotLu(linalg::DenseMatrix& a) {
  const int n = a.rows();
  for (int p = 0; p < n; ++p) {
    for (int i = p + 1; i < n; ++i) {
      const Scalar l = a(i, p) /= a(p, p);
      for (int q = p + 1; q < n; ++q) a(i, q) -= l * a(p, q);
    }
  }
}

// The sparse columns and the dense tail together must reproduce the dense
// factorization: the same nonzero pattern, and every value within
// `tolerance` relative, by default a few ulps (W's off-diagonals all share
// one sign, so nothing cancels).
void ExpectMatchesDenseLu(const CscMatrix& w, int num_threads = 0,
                          Scalar tolerance = 1e-13) {
  const LuFactors factors = FactorizeLu(w, num_threads);
  ASSERT_LT(factors.dense_begin, w.rows());
  ASSERT_GT(factors.dense_begin, 0);

  auto oracle = test::ToDense(w);
  DenseNoPivotLu(oracle);
  const auto lower = test::ToDense(factors.lower);
  const auto upper = test::ToDense(factors.upper);
  for (const CscMatrix* m : {&factors.lower, &factors.upper}) {
    for (const Scalar v : m->values()) ASSERT_NE(v, 0.0) << "stored zero";
  }
  const int n = w.rows();
  for (int i = 0; i < n; ++i) {
    for (int j = 0; j < n; ++j) {
      const Scalar got = i > j ? lower(i, j) : upper(i, j);
      const Scalar want = oracle(i, j);
      ASSERT_EQ(got != 0.0, want != 0.0) << "pattern at (" << i << ", " << j
                                         << ")";
      ASSERT_LE(std::abs(got - want), tolerance * std::abs(want))
          << "(" << i << ", " << j << "): " << got << " vs " << want;
    }
    ASSERT_EQ(lower(i, i), 1.0);
  }
}

TEST(SparseLuTest, BothPathsMatchDenseLuEntryByEntry) {
  // The Social stand-in switches late; the dense random graph switches at
  // once, and its trailing block spans several panels and row tiles.
  ExpectMatchesDenseLu(HybridStandIn(datasets::DatasetId::kSocial, 0.2));
  const auto g = test::RandomDirectedGraph(600, 12000, 8);
  ExpectMatchesDenseLu(BuildRwrSystemMatrix(g.NormalizedAdjacency(), 0.95));
}

TEST(SparseLuTest, DenseTailKeepsTheTextbookUpdateOrder) {
  // Node 0 links to every other node, so L(:, 0) is dense and the dense
  // tail takes over at column 1, its m = 599 rows spanning several panels
  // and row tiles. Each entry must receive the textbook loop's updates in
  // its order, so every value is equal, not just close, at every thread
  // count.
  const auto g = test::RandomDirectedGraph(600, 12000, 8);
  graph::GraphBuilder builder(g.num_nodes());
  for (NodeId u = 0; u < g.num_nodes(); ++u) {
    for (const graph::Neighbor& nb : g.OutNeighbors(u)) {
      builder.AddEdge(u, nb.node, nb.weight);
    }
  }
  for (NodeId v = 1; v < g.num_nodes(); ++v) builder.AddEdge(0, v);
  const CscMatrix w = BuildRwrSystemMatrix(
      std::move(builder).Build().NormalizedAdjacency(), 0.95);
  ASSERT_EQ(FactorizeLu(w, 1).dense_begin, 1);
  for (const int threads : {1, 3, 8}) {
    SCOPED_TRACE("threads=" + std::to_string(threads));
    ExpectMatchesDenseLu(w, threads, /*tolerance=*/0.0);
  }
}

TEST(SparseLuTest, SingleNode) {
  const CscMatrix w = BuildRwrSystemMatrix(
      graph::GraphBuilder(1).Build().NormalizedAdjacency(), 0.95);
  const LuFactors factors = FactorizeLu(w);
  EXPECT_EQ(factors.lower.nnz(), 1);
  EXPECT_EQ(factors.upper.nnz(), 1);
  EXPECT_DOUBLE_EQ(factors.upper.At(0, 0), 1.0);
}

TEST(SparseLuTest, SolvesMatchDenseInverse) {
  // W x = e_j solved via the factors must equal column j of the dense
  // inverse.
  const auto g = test::RandomDirectedGraph(25, 120, 7);
  const CscMatrix w = BuildRwrSystemMatrix(g.NormalizedAdjacency(), 0.9);
  const LuFactors factors = FactorizeLu(w);
  const auto dense_w = test::ToDense(w);
  const auto w_inv = linalg::InvertDense(dense_w);

  const auto dense_l = test::ToDense(factors.lower);
  const auto dense_u = test::ToDense(factors.upper);
  const auto lu_product = linalg::MatMul(dense_l, dense_u);
  const auto lu_inv = linalg::InvertDense(lu_product);
  EXPECT_LT(test::MaxAbsDiff(lu_inv, w_inv), 1e-10);
}

TEST(SparseLuTest, DiagonalDominanceKeepsPivotsLarge) {
  // All pivots of W = I - (1-c)A must stay ≥ c (Gershgorin-style bound),
  // which is what makes pivot-free LU safe for RWR systems.
  const auto g = test::RandomDirectedGraph(100, 800, 11);
  const Scalar c = 0.8;
  const CscMatrix w = BuildRwrSystemMatrix(g.NormalizedAdjacency(), c);
  const LuFactors factors = FactorizeLu(w);
  for (NodeId j = 0; j < w.cols(); ++j) {
    EXPECT_GE(factors.upper.At(j, j), c - 1e-12) << "pivot " << j;
  }
}

}  // namespace
}  // namespace kdash::lu
