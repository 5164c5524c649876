// Command-line front end for the K-dash library, built on kdash::Engine —
// every failure (missing file, corrupt index, bad node id) is reported and
// exits nonzero; nothing aborts.
//
//   kdash_cli build <edges.txt> <index.kdash> [--c=0.95] [--reorder=hybrid]
//                   [--undirected]
//       Reads a `src dst [weight]` edge list, precomputes the index, and
//       writes it to disk.
//
//   kdash_cli query <index.kdash> <node> [<node> ...] [--k=5]
//       Opens an index and prints the exact top-k for each query node.
//       Multiple nodes with --personalized run one restart-set query.
//
//   kdash_cli stats <index.kdash>
//       Prints the index's size and precompute accounting.
//
//   kdash_cli generate <dataset> <edges.txt> [--scale=1.0] [--seed=42]
//       Writes one of the synthetic dataset stand-ins as an edge list
//       (dictionary | internet | citation | social | email).
//
// JSON-lines serving (one query per input line, one record per answer) is
// `kdash_server <index.kdash>`, which reads stdin when given no --port.
#include <cstdio>
#include <filesystem>
#include <string>
#include <vector>

#include "common/parse_number.h"
#include "common/timer.h"
#include "core/engine.h"
#include "datasets/datasets.h"
#include "graph/io.h"
#include "json_lines.h"
#include "serving/sharded_engine.h"

namespace kdash {
namespace {

int Usage() {
  std::fprintf(
      stderr,
      "usage:\n"
      "  kdash_cli build <edges.txt> <index.kdash> [--c=0.95]\n"
      "            [--reorder=hybrid|cluster|degree|random|identity]\n"
      "            [--undirected] [--shards=P  (writes a sharded dir)]\n"
      "  kdash_cli query <index.kdash> <node> [<node>...] [--k=5]\n"
      "            [--personalized]\n"
      "  kdash_cli stats <index.kdash>\n"
      "  kdash_cli generate <dictionary|internet|citation|social|email>\n"
      "            <edges.txt> [--scale=1.0] [--seed=42]\n");
  return 2;
}

int Fail(const Status& status) {
  std::fprintf(stderr, "error: %s\n", status.ToString().c_str());
  return 1;
}

// query/stats read single-index files; catch a sharded directory
// early with a pointed message instead of a confusing stream error.
Result<Engine> OpenIndexFile(const std::string& path) {
  if (std::filesystem::is_directory(path)) {
    return Status::FailedPrecondition(
        path + " is a sharded index directory (built with --shards); serve "
               "it with kdash_server, which fans queries across the shards");
  }
  return Engine::Open(path);
}

using tools::FlagValue;

bool ParseReorder(const std::string& name, reorder::Method* method) {
  if (name == "hybrid") *method = reorder::Method::kHybrid;
  else if (name == "cluster") *method = reorder::Method::kCluster;
  else if (name == "degree") *method = reorder::Method::kDegree;
  else if (name == "random") *method = reorder::Method::kRandom;
  else if (name == "identity") *method = reorder::Method::kIdentity;
  else return false;
  return true;
}

int CmdBuild(const std::vector<std::string>& args) {
  if (args.size() < 2) return Usage();
  EngineOptions options;
  bool undirected = false;
  int shards = 0;
  for (std::size_t i = 2; i < args.size(); ++i) {
    std::string value;
    if (FlagValue(args[i], "--c", &value)) {
      if (!ParseNumber(value, &options.index.restart_prob)) return Usage();
    } else if (FlagValue(args[i], "--reorder", &value)) {
      if (!ParseReorder(value, &options.index.reorder_method)) return Usage();
    } else if (FlagValue(args[i], "--shards", &value)) {
      if (!ParseNumber(value, &shards, 1)) return Usage();
    } else if (args[i] == "--undirected") {
      undirected = true;
    } else {
      return Usage();
    }
  }

  WallTimer timer;
  auto loaded = graph::ReadEdgeListFile(args[0], undirected);
  if (!loaded.ok()) return Fail(loaded.status());
  const graph::Graph& graph = *loaded;
  std::printf("loaded %s: %s (%.2fs)\n", args[0].c_str(),
              graph::DescribeGraph(graph).c_str(), timer.Seconds());

  // --shards=P: write a sharded index directory (kdash_server opens it and
  // fans queries across the shards) instead of one index file.
  if (shards > 0) {
    timer.Restart();
    serving::ShardedEngineOptions sharded_options;
    sharded_options.num_shards = shards;
    sharded_options.index = options.index;
    auto sharded = serving::ShardedEngine::Build(graph, sharded_options);
    if (!sharded.ok()) return Fail(sharded.status());
    std::printf("built %d-shard index in %.2fs\n", sharded->num_shards(),
                timer.Seconds());
    if (const Status saved = sharded->Save(args[1]); !saved.ok()) {
      return Fail(saved);
    }
    std::printf("wrote sharded index directory %s\n", args[1].c_str());
    return 0;
  }

  timer.Restart();
  auto engine = Engine::Build(graph, options);
  if (!engine.ok()) return Fail(engine.status());
  const auto& stats = engine->index().stats();
  std::printf(
      "built index in %.2fs (reorder %.2fs, LU %.2fs, inverses %.2fs)\n",
      stats.total_seconds, stats.reorder_seconds, stats.lu_seconds,
      stats.inverse_seconds);
  std::printf("nnz: L=%lld U=%lld L^-1=%lld U^-1=%lld, partitions=%d\n",
              static_cast<long long>(stats.nnz_lower),
              static_cast<long long>(stats.nnz_upper),
              static_cast<long long>(stats.nnz_lower_inverse),
              static_cast<long long>(stats.nnz_upper_inverse),
              stats.num_partitions);
  if (const Status saved = engine->Save(args[1]); !saved.ok()) {
    return Fail(saved);
  }
  std::printf("wrote %s\n", args[1].c_str());
  return 0;
}

void PrintResult(const std::string& label, const SearchResult& result) {
  std::printf("%s:\n", label.c_str());
  for (std::size_t i = 0; i < result.top.size(); ++i) {
    std::printf("  #%zu node %d proximity %.8f\n", i + 1, result.top[i].node,
                result.top[i].score);
  }
  std::printf("  (visited %d, computed %d proximities, pruned=%s)\n",
              result.stats.nodes_visited, result.stats.proximity_computations,
              result.stats.terminated_early ? "yes" : "no");
}

int CmdQuery(const std::vector<std::string>& args) {
  if (args.size() < 2) return Usage();
  std::size_t k = 5;
  bool personalized = false;
  std::vector<NodeId> nodes;
  for (std::size_t i = 1; i < args.size(); ++i) {
    std::string value;
    if (FlagValue(args[i], "--k", &value)) {
      if (!ParseNumber(value, &k, 1)) return Usage();
    } else if (args[i] == "--personalized") {
      personalized = true;
    } else {
      NodeId id = 0;
      if (!ParseNumber(args[i], &id)) {
        std::fprintf(stderr, "error: bad node id '%s'\n", args[i].c_str());
        return Usage();
      }
      nodes.push_back(id);
    }
  }
  if (nodes.empty()) return Usage();

  auto engine = OpenIndexFile(args[0]);
  if (!engine.ok()) return Fail(engine.status());

  if (personalized) {
    const auto result = engine->Search(Query::Personalized(nodes, k));
    if (!result.ok()) return Fail(result.status());
    PrintResult("personalized top-" + std::to_string(k), *result);
  } else {
    for (const NodeId q : nodes) {
      const auto result = engine->Search(Query::Single(q, k));
      if (!result.ok()) return Fail(result.status());
      PrintResult(
          "top-" + std::to_string(k) + " for node " + std::to_string(q),
          *result);
    }
  }
  return 0;
}

int CmdStats(const std::vector<std::string>& args) {
  if (args.size() != 1) return Usage();
  auto engine = OpenIndexFile(args[0]);
  if (!engine.ok()) return Fail(engine.status());
  const auto& index = engine->index();
  const auto& stats = index.stats();
  std::printf("nodes            : %d\n", index.num_nodes());
  std::printf("restart prob (c) : %.4f\n", index.restart_prob());
  std::printf("reordering       : %s\n",
              reorder::MethodName(index.options().reorder_method).c_str());
  std::printf("nnz L^-1 / U^-1  : %lld / %lld\n",
              static_cast<long long>(stats.nnz_lower_inverse),
              static_cast<long long>(stats.nnz_upper_inverse));
  std::printf("partitions (κ)   : %d\n", stats.num_partitions);
  std::printf("precompute [s]   : %.3f (reorder %.3f, LU %.3f, inv %.3f)\n",
              stats.total_seconds, stats.reorder_seconds, stats.lu_seconds,
              stats.inverse_seconds);
  return 0;
}

int CmdGenerate(const std::vector<std::string>& args) {
  if (args.size() < 2) return Usage();
  double scale = 1.0;
  std::uint64_t seed = 42;
  for (std::size_t i = 2; i < args.size(); ++i) {
    std::string value;
    if (FlagValue(args[i], "--scale", &value)) {
      if (!ParseNumber(value, &scale) || scale <= 0) return Usage();
    } else if (FlagValue(args[i], "--seed", &value)) {
      if (!ParseNumber(value, &seed)) return Usage();
    } else {
      return Usage();
    }
  }
  datasets::DatasetId id;
  if (args[0] == "dictionary") id = datasets::DatasetId::kDictionary;
  else if (args[0] == "internet") id = datasets::DatasetId::kInternet;
  else if (args[0] == "citation") id = datasets::DatasetId::kCitation;
  else if (args[0] == "social") id = datasets::DatasetId::kSocial;
  else if (args[0] == "email") id = datasets::DatasetId::kEmail;
  else return Usage();

  const auto dataset = datasets::MakeDataset(id, scale, seed);
  graph::WriteEdgeListFile(dataset.graph, args[1]);
  std::printf("wrote %s: %s\n", args[1].c_str(),
              graph::DescribeGraph(dataset.graph).c_str());
  return 0;
}

int Main(int argc, char** argv) {
  if (argc < 2) return Usage();
  const std::string command = argv[1];
  std::vector<std::string> args(argv + 2, argv + argc);
  if (command == "build") return CmdBuild(args);
  if (command == "query") return CmdQuery(args);
  if (command == "stats") return CmdStats(args);
  if (command == "generate") return CmdGenerate(args);
  return Usage();
}

}  // namespace
}  // namespace kdash

int main(int argc, char** argv) { return kdash::Main(argc, argv); }
