// Synthetic stand-ins for the paper's five public evaluation datasets.
//
// The originals (FOLDOC, Oregon AS, cond-mat, Epinions, email-EuAll) are
// public downloads the paper cites; this offline reproduction synthesizes
// graphs from the same structural families at a configurable scale, so
// every benchmark runs without a download (each DatasetId below names the
// family its stand-in reproduces). `scale = 1.0` is the default
// benchmark size (≈ 1/4 of the paper's node counts so the O(n²)/O(n³)
// baselines finish on a laptop); `scale = 4.0` reproduces the paper's
// sizes. Real edge lists can be used instead via graph::ReadEdgeListFile.
#ifndef KDASH_DATASETS_DATASETS_H_
#define KDASH_DATASETS_DATASETS_H_

#include <cstdint>
#include <string>
#include <vector>

#include "graph/graph.h"

namespace kdash::datasets {

enum class DatasetId {
  kDictionary,  // FOLDOC word graph: directed, power-law, clustered
  kInternet,    // AS-level Internet: undirected, BA-style power law
  kCitation,    // cond-mat co-authorship: undirected, weighted, communities
  kSocial,      // Epinions trust: directed, R-MAT-skewed
  kEmail,       // email-EuAll: directed, extreme skew, many leaves
};

std::vector<DatasetId> AllDatasets();

std::string DatasetName(DatasetId id);

struct Dataset {
  DatasetId id;
  std::string name;
  graph::Graph graph;
};

// True when `scale` is positive and sizes the stand-in within NodeId's
// range.
bool ScaleFits(DatasetId id, double scale);

// Builds the synthetic stand-in. Deterministic in (id, scale, seed). Aborts
// unless ScaleFits(id, scale).
Dataset MakeDataset(DatasetId id, double scale = 1.0,
                    std::uint64_t seed = 42);

}  // namespace kdash::datasets

#endif  // KDASH_DATASETS_DATASETS_H_
