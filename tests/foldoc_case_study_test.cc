#include "datasets/foldoc_case_study.h"

#include <gtest/gtest.h>

#include <set>

#include "core/kdash_index.h"
#include "core/kdash_searcher.h"
#include "rwr/power_iteration.h"

namespace kdash::datasets {
namespace {

TEST(FoldocCaseStudyTest, AllQueryTermsExist) {
  const TermGraph tg = MakeFoldocCaseStudy();
  for (const std::string& query : CaseStudyQueries()) {
    EXPECT_NE(tg.IdOf(query), kInvalidNode) << query;
  }
}

TEST(FoldocCaseStudyTest, NamesMatchIds) {
  const TermGraph tg = MakeFoldocCaseStudy();
  ASSERT_EQ(tg.names.size(), static_cast<std::size_t>(tg.graph.num_nodes()));
  const NodeId ms = tg.IdOf("Microsoft");
  ASSERT_NE(ms, kInvalidNode);
  EXPECT_EQ(tg.names[static_cast<std::size_t>(ms)], "Microsoft");
  EXPECT_EQ(tg.IdOf("no-such-term"), kInvalidNode);
}

TEST(FoldocCaseStudyTest, GraphIsDirectedWithFiller) {
  const TermGraph tg = MakeFoldocCaseStudy();
  EXPECT_GT(tg.graph.num_nodes(), 400);
  EXPECT_FALSE(tg.graph.IsSymmetric());
  EXPECT_NE(tg.IdOf("term-0"), kInvalidNode);
}

TEST(FoldocCaseStudyTest, MicrosoftNeighborhoodMatchesTable2) {
  // The paper's Table 2, row "Microsoft" (K-dash): Microsoft, MS-DOS,
  // IBM PC, Microsoft Windows, Microsoft Corporation.
  const TermGraph tg = MakeFoldocCaseStudy();
  const auto index = core::KDashIndex::Build(tg.graph, {});
  core::KDashSearcher searcher(&index);
  const auto top = searcher.Search(Query::Single(tg.IdOf("Microsoft"), 5)).top;
  ASSERT_EQ(top.size(), 5u);
  EXPECT_EQ(top[0].node, tg.IdOf("Microsoft"));

  std::set<NodeId> expected{tg.IdOf("MS-DOS"), tg.IdOf("IBM PC"),
                            tg.IdOf("Microsoft Windows"),
                            tg.IdOf("Microsoft Corporation")};
  std::set<NodeId> got;
  for (std::size_t i = 1; i < top.size(); ++i) got.insert(top[i].node);
  EXPECT_EQ(got, expected);
}

TEST(FoldocCaseStudyTest, AllFiveQueriesRankSelfFirst) {
  const TermGraph tg = MakeFoldocCaseStudy();
  const auto index = core::KDashIndex::Build(tg.graph, {});
  core::KDashSearcher searcher(&index);
  for (const std::string& query : CaseStudyQueries()) {
    const auto top = searcher.Search(Query::Single(tg.IdOf(query), 5)).top;
    ASSERT_FALSE(top.empty()) << query;
    EXPECT_EQ(top[0].node, tg.IdOf(query)) << query;
  }
}

TEST(FoldocCaseStudyTest, AllFiveTable2ListsReproduced) {
  // The paper's Table 2, K-dash rows, verbatim (rank 1 is the query term).
  const struct {
    const char* query;
    const char* expected[4];
  } kTable2[] = {
      {"Microsoft",
       {"MS-DOS", "IBM PC", "Microsoft Windows", "Microsoft Corporation"}},
      {"APPLE",
       {"Apple Attachment Unit Interface", "Apple II", "Apple Computer, Inc.",
        "APPC"}},
      {"Microsoft Windows",
       {"W2K", "Windows/386", "Windows 3.0", "Windows 3.11"}},
      {"Mac OS",
       {"Macintosh user interface", "Macintosh file system", "multitasking",
        "Macintosh Operating System"}},
      {"Linux",
       {"Linux Documentation Project", "Unix", "lint",
        "Linux Network Administrators' Guide"}},
  };

  const TermGraph tg = MakeFoldocCaseStudy();
  const auto index = core::KDashIndex::Build(tg.graph, {});
  core::KDashSearcher searcher(&index);
  for (const auto& row : kTable2) {
    const auto top = searcher.Search(Query::Single(tg.IdOf(row.query), 5)).top;
    ASSERT_EQ(top.size(), 5u) << row.query;
    EXPECT_EQ(tg.names[static_cast<std::size_t>(top[0].node)], row.query);
    for (int i = 0; i < 4; ++i) {
      EXPECT_EQ(tg.names[static_cast<std::size_t>(top[static_cast<std::size_t>(i + 1)].node)],
                row.expected[i])
          << row.query << " rank " << i + 2;
    }
  }
}

TEST(FoldocCaseStudyTest, KDashMatchesGroundTruthOnTermGraph) {
  const TermGraph tg = MakeFoldocCaseStudy();
  const auto a = tg.graph.NormalizedAdjacency();
  const auto index = core::KDashIndex::Build(tg.graph, {});
  core::KDashSearcher searcher(&index);
  for (const std::string& query : CaseStudyQueries()) {
    const NodeId q = tg.IdOf(query);
    const auto got = searcher.Search(Query::Single(q, 5)).top;
    const auto truth = rwr::TopKByPowerIteration(a, q, 5, {});
    ASSERT_EQ(got.size(), 5u) << query;
    for (std::size_t i = 0; i < 5; ++i) {
      EXPECT_EQ(got[i].node, truth[i].node) << query << " rank " << i;
    }
  }
}

}  // namespace
}  // namespace kdash::datasets
