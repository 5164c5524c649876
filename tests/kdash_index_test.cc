#include "core/kdash_index.h"

#include <gtest/gtest.h>

#include <string>
#include <utility>

#include "head_run_csc.h"
#include "linalg/dense_matrix.h"
#include "lu/sparse_lu.h"
#include "lu/triangular.h"
#include "sparse/permute.h"
#include "test_util.h"

namespace kdash::core {
namespace {

TEST(KDashIndexTest, PrecomputedEstimatorValues) {
  const auto g = test::SmallDirectedGraph();
  const auto index = KDashIndex::Build(g, {});
  const auto a = g.NormalizedAdjacency();
  EXPECT_DOUBLE_EQ(index.amax(), a.MaxValue());
  const auto col_max = a.ColumnMax();
  ASSERT_EQ(index.amax_of_node().size(), col_max.size());
  for (std::size_t u = 0; u < col_max.size(); ++u) {
    EXPECT_DOUBLE_EQ(index.amax_of_node()[u], col_max[u]);
  }
  // No self loops ⇒ c′ = 1 - c everywhere.
  for (const Scalar cp : index.c_prime_of_node()) {
    EXPECT_NEAR(cp, 1.0 - index.restart_prob(), 1e-15);
  }
}

TEST(KDashIndexTest, PermutationsAreInverse) {
  const auto g = test::RandomDirectedGraph(100, 500, 21);
  KDashOptions options;
  options.reorder_method = reorder::Method::kHybrid;
  const auto index = KDashIndex::Build(g, options);
  sparse::ValidatePermutation(index.new_of_old());
  for (NodeId u = 0; u < g.num_nodes(); ++u) {
    EXPECT_EQ(index.old_of_new()[static_cast<std::size_t>(
                  index.new_of_old()[static_cast<std::size_t>(u)])],
              u);
  }
}

TEST(KDashIndexTest, InverseFactorsReconstructSystemInverse) {
  // U⁻¹ L⁻¹ must equal (P W Pᵀ)⁻¹ in the reordered space, and the index
  // must store exactly what the inverse builders make of W's factors:
  // L⁻¹, and U⁻¹ᵀ as upper_inverse(). The second input spans three
  // 16-solve blocks and a partial fourth, built on three threads.
  for (const auto& [n, threads] : {std::pair{NodeId{40}, 0},
                                   std::pair{NodeId{16 * 3 + 5}, 3}}) {
    SCOPED_TRACE("n=" + std::to_string(n));
    const auto g = test::RandomDirectedGraph(n, 11 * n / 2, 22);
    KDashOptions options;
    options.restart_prob = 0.9;
    options.num_threads = threads;
    const auto index = KDashIndex::Build(g, options);

    const auto a_perm = sparse::PermuteSymmetric(g.NormalizedAdjacency(),
                                                 index.new_of_old());
    const auto w = lu::BuildRwrSystemMatrix(a_perm, 0.9);
    const auto inverse_product = linalg::MatMul(
        test::ToDense(test::ToCsc(index.upper_inverse()).Transposed()),
        test::ToDense(test::ToCsc(index.lower_inverse())));
    const auto should_be_identity =
        linalg::MatMul(test::ToDense(w), inverse_product);
    EXPECT_LT(test::MaxAbsDiff(should_be_identity,
                               linalg::DenseMatrix::Identity(n)),
              1e-11);

    const lu::LuFactors factors = lu::FactorizeLu(w);
    EXPECT_TRUE(test::SameBits(index.lower_inverse(),
                               lu::InvertLowerTriangular(factors.lower)));
    EXPECT_TRUE(test::SameBits(index.upper_inverse(),
                               lu::InvertUpperTriangular(factors.upper)));
  }
}

TEST(KDashIndexTest, AdjacencyMirrorsGraph) {
  const auto g = test::SmallDirectedGraph();
  const auto index = KDashIndex::Build(g, {});
  for (NodeId u = 0; u < g.num_nodes(); ++u) {
    const auto expected = g.OutNeighbors(u);
    const auto actual = index.OutNeighbors(u);
    ASSERT_EQ(actual.size(), expected.size());
    for (std::size_t i = 0; i < expected.size(); ++i) {
      EXPECT_EQ(actual[i], expected[i].node);
    }
  }
}

TEST(KDashIndexTest, StatsAreFilled) {
  const auto g = test::RandomDirectedGraph(150, 700, 23);
  KDashOptions options;
  options.reorder_method = reorder::Method::kHybrid;
  const auto index = KDashIndex::Build(g, options);
  const PrecomputeStats& stats = index.stats();
  EXPECT_GT(stats.nnz_lower, 0);
  EXPECT_GT(stats.nnz_upper, 0);
  EXPECT_GE(stats.nnz_lower_inverse, stats.nnz_lower);
  EXPECT_GT(stats.total_seconds, 0.0);
  EXPECT_GT(stats.num_partitions, 0);
}

TEST(KDashIndexTest, ReorderMethodsProduceSameProximities) {
  // The ordering affects sparsity, never values: proximities of every node
  // must agree across orderings.
  const auto g = test::RandomDirectedGraph(60, 350, 24);
  std::vector<std::vector<Scalar>> per_method;
  for (const auto method :
       {reorder::Method::kIdentity, reorder::Method::kRandom,
        reorder::Method::kDegree, reorder::Method::kCluster,
        reorder::Method::kHybrid}) {
    KDashOptions options;
    options.reorder_method = method;
    const auto index = KDashIndex::Build(g, options);
    // p = c U⁻¹ L⁻¹ e_q in reordered space, mapped back.
    const NodeId q = 5;
    const NodeId qr = index.new_of_old()[static_cast<std::size_t>(q)];
    const sparse::CscMatrix linv = test::ToCsc(index.lower_inverse());
    std::vector<Scalar> y(60, 0.0);
    for (Index k = linv.ColBegin(qr); k < linv.ColEnd(qr); ++k) {
      y[static_cast<std::size_t>(linv.RowIndex(k))] = linv.Value(k);
    }
    std::vector<Scalar> p(60, 0.0);
    for (NodeId u = 0; u < 60; ++u) {
      const NodeId ur = index.new_of_old()[static_cast<std::size_t>(u)];
      p[static_cast<std::size_t>(u)] =
          index.restart_prob() * index.upper_inverse().ColumnDot(ur, y);
    }
    per_method.push_back(std::move(p));
  }
  for (std::size_t m = 1; m < per_method.size(); ++m) {
    for (std::size_t u = 0; u < per_method[0].size(); ++u) {
      EXPECT_NEAR(per_method[m][u], per_method[0][u], 1e-11)
          << "method " << m << " node " << u;
    }
  }
}

}  // namespace
}  // namespace kdash::core
