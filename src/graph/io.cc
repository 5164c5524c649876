#include "graph/io.h"

#include <algorithm>
#include <charconv>
#include <cmath>
#include <fstream>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "common/atomic_file.h"
#include "common/check.h"
#include "common/parse_number.h"

namespace kdash::graph {

Result<Graph> ReadEdgeList(std::istream& in, bool undirected) {
  std::unordered_map<long long, NodeId> dense_id;
  std::vector<NodeId> src, dst;
  std::vector<Scalar> weight;
  auto densify = [&](long long raw) {
    const auto [it, inserted] =
        dense_id.try_emplace(raw, static_cast<NodeId>(dense_id.size()));
    return it->second;
  };

  std::string line;
  std::size_t line_no = 0;
  while (std::getline(in, line)) {
    ++line_no;
    const std::string_view text =
        std::string_view(line).substr(0, line.find('#'));
    // Up to one field past the three a line may hold, so a fourth is seen.
    std::string_view fields[4];
    std::size_t count = 0;
    for (std::size_t at = 0; count < 4;) {
      at = text.find_first_not_of(" \t\r\f\v", at);
      if (at == std::string_view::npos) break;
      const std::size_t end = std::min(text.find_first_of(" \t\r\f\v", at),
                                       text.size());
      fields[count++] = text.substr(at, end - at);
      at = end;
    }
    if (count == 0) continue;  // blank/comment line
    long long raw_src = 0, raw_dst = 0;
    double w = 1.0;
    if (count < 2 || count > 3 || !ParseNumber(fields[0], &raw_src, 0) ||
        !ParseNumber(fields[1], &raw_dst, 0) ||
        (count == 3 && !(ParseNumber(fields[2], &w) && w > 0.0))) {
      return Status::DataLoss(
          "malformed edge at line " + std::to_string(line_no) + ": \"" +
          line + "\" (want `src dst [weight]`: ids in [0, 2^63), weight "
          "finite and > 0)");
    }
    const NodeId u = densify(raw_src);
    const NodeId v = densify(raw_dst);
    src.push_back(u);
    dst.push_back(v);
    weight.push_back(w);
    if (undirected && u != v) {
      src.push_back(v);
      dst.push_back(u);
      weight.push_back(w);
    }
  }
  // The node count is known only once every id is densified.
  GraphBuilder builder(static_cast<NodeId>(dense_id.size()));
  for (std::size_t e = 0; e < src.size(); ++e) {
    builder.AddEdge(src[e], dst[e], weight[e]);
  }
  Graph graph = std::move(builder).Build();
  // Finite weights can still sum to +inf (a merged duplicate edge is part
  // of its node's total), which would normalize the node's edges to NaN or
  // 0. Only on that error is the node's file id looked up.
  for (NodeId u = 0; u < graph.num_nodes(); ++u) {
    if (std::isfinite(graph.OutWeight(u))) continue;
    for (const auto& [raw, dense] : dense_id) {
      if (dense == u) {
        return Status::DataLoss("the out-weight total of node " +
                                std::to_string(raw) +
                                " overflows to infinity");
      }
    }
  }
  return graph;
}

Result<Graph> ReadEdgeListFile(const std::string& path, bool undirected) {
  std::ifstream in(path);
  if (!in.good()) return Status::NotFound("cannot open edge list " + path);
  return ReadEdgeList(in, undirected);
}

Status WriteEdgeList(const Graph& graph, std::ostream& out) {
  // Shortest form that parses back to the same double. A stream's default
  // 6 significant digits would change the graph (1/3 → 0.333333).
  char weight[32];
  for (NodeId u = 0; u < graph.num_nodes(); ++u) {
    for (const Neighbor& nb : graph.OutNeighbors(u)) {
      const auto written =
          std::to_chars(weight, weight + sizeof(weight), nb.weight);
      KDASH_CHECK(written.ec == std::errc());
      out << u << ' ' << nb.node << ' '
          << std::string_view(weight, written.ptr) << '\n';
    }
  }
  return out.good() ? Status::Ok() : Status::DataLoss("edge list write failed");
}

Status WriteEdgeListFile(const Graph& graph, const std::string& path) {
  return WriteFileAtomically(
      path, [&graph](std::ostream& out) { return WriteEdgeList(graph, out); });
}

}  // namespace kdash::graph
