#include "graph/generators.h"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <unordered_set>
#include <vector>

#include "common/check.h"

namespace kdash::graph {

namespace {

// Packs a directed edge into one 64-bit key for duplicate detection.
std::uint64_t EdgeKey(NodeId u, NodeId v) {
  return (static_cast<std::uint64_t>(static_cast<std::uint32_t>(u)) << 32) |
         static_cast<std::uint32_t>(v);
}

}  // namespace

Graph BarabasiAlbert(NodeId num_nodes, NodeId edges_per_node, Rng& rng) {
  KDASH_CHECK(num_nodes > edges_per_node);
  KDASH_CHECK(edges_per_node >= 1);
  GraphBuilder builder(num_nodes);
  // `targets` holds one entry per edge endpoint, so sampling uniformly from
  // it is degree-proportional sampling.
  std::vector<NodeId> endpoints;
  endpoints.reserve(static_cast<std::size_t>(num_nodes) *
                    static_cast<std::size_t>(edges_per_node) * 2);

  // Seed clique over the first edges_per_node + 1 nodes.
  const NodeId seed_size = edges_per_node + 1;
  for (NodeId u = 0; u < seed_size; ++u) {
    for (NodeId v = static_cast<NodeId>(u + 1); v < seed_size; ++v) {
      builder.AddUndirectedEdge(u, v);
      endpoints.push_back(u);
      endpoints.push_back(v);
    }
  }

  std::unordered_set<NodeId> picked;
  for (NodeId u = seed_size; u < num_nodes; ++u) {
    picked.clear();
    while (static_cast<NodeId>(picked.size()) < edges_per_node) {
      const NodeId target =
          endpoints[rng.NextBounded(endpoints.size())];
      picked.insert(target);
    }
    for (const NodeId target : picked) {
      builder.AddUndirectedEdge(u, target);
      endpoints.push_back(u);
      endpoints.push_back(target);
    }
  }
  return std::move(builder).Build();
}

Graph PowerLawCluster(NodeId num_nodes, NodeId edges_per_node,
                      double triad_prob, bool directed, double one_way_prob,
                      Rng& rng) {
  KDASH_CHECK(num_nodes > edges_per_node);
  KDASH_CHECK(edges_per_node >= 1);
  KDASH_CHECK(triad_prob >= 0.0 && triad_prob <= 1.0);

  // First build the undirected Holme–Kim edge set.
  std::vector<std::pair<NodeId, NodeId>> edges;
  std::vector<std::vector<NodeId>> adjacency(static_cast<std::size_t>(num_nodes));
  std::vector<NodeId> endpoints;
  std::unordered_set<std::uint64_t> seen;
  auto add_edge = [&](NodeId u, NodeId v) {
    if (u == v) return false;
    const std::uint64_t key = EdgeKey(std::min(u, v), std::max(u, v));
    if (!seen.insert(key).second) return false;
    edges.emplace_back(u, v);
    adjacency[static_cast<std::size_t>(u)].push_back(v);
    adjacency[static_cast<std::size_t>(v)].push_back(u);
    endpoints.push_back(u);
    endpoints.push_back(v);
    return true;
  };

  const NodeId seed_size = edges_per_node + 1;
  for (NodeId u = 0; u < seed_size; ++u) {
    for (NodeId v = static_cast<NodeId>(u + 1); v < seed_size; ++v) add_edge(u, v);
  }

  for (NodeId u = seed_size; u < num_nodes; ++u) {
    NodeId last_target = kInvalidNode;
    NodeId made = 0;
    int attempts = 0;
    while (made < edges_per_node && attempts < 50 * edges_per_node) {
      ++attempts;
      NodeId target;
      if (last_target != kInvalidNode && rng.NextDouble() < triad_prob &&
          !adjacency[static_cast<std::size_t>(last_target)].empty()) {
        // Triad step: attach to a random neighbor of the previous target.
        const auto& nbrs = adjacency[static_cast<std::size_t>(last_target)];
        target = nbrs[rng.NextBounded(nbrs.size())];
      } else {
        target = endpoints[rng.NextBounded(endpoints.size())];
      }
      if (add_edge(u, target)) {
        last_target = target;
        ++made;
      }
    }
  }

  GraphBuilder builder(num_nodes);
  for (const auto& [u, v] : edges) {
    if (directed) {
      // Keep both directions by default; with probability one_way_prob keep
      // only a random one (dictionary-style asymmetric "describes" links).
      if (rng.NextDouble() < one_way_prob) {
        if (rng.NextDouble() < 0.5) {
          builder.AddEdge(u, v);
        } else {
          builder.AddEdge(v, u);
        }
      } else {
        builder.AddEdge(u, v);
        builder.AddEdge(v, u);
      }
    } else {
      builder.AddUndirectedEdge(u, v);
    }
  }
  return std::move(builder).Build();
}

Graph WattsStrogatz(NodeId num_nodes, NodeId k, double beta, Rng& rng) {
  KDASH_CHECK(k >= 1 && num_nodes > 2 * k);
  std::unordered_set<std::uint64_t> seen;
  std::vector<std::pair<NodeId, NodeId>> edges;
  auto key_of = [](NodeId a, NodeId b) {
    return EdgeKey(std::min(a, b), std::max(a, b));
  };
  for (NodeId u = 0; u < num_nodes; ++u) {
    for (NodeId j = 1; j <= k; ++j) {
      const NodeId v = static_cast<NodeId>((u + j) % num_nodes);
      if (rng.NextDouble() < beta) {
        // Rewire: keep u, choose a random new endpoint.
        for (int attempt = 0; attempt < 100; ++attempt) {
          const NodeId w = rng.NextNode(num_nodes);
          if (w == u) continue;
          if (seen.insert(key_of(u, w)).second) {
            edges.emplace_back(u, w);
            break;
          }
        }
      } else if (seen.insert(key_of(u, v)).second) {
        edges.emplace_back(u, v);
      }
    }
  }
  GraphBuilder builder(num_nodes);
  for (const auto& [u, v] : edges) builder.AddUndirectedEdge(u, v);
  return std::move(builder).Build();
}

Graph PlantedPartition(NodeId num_nodes, NodeId num_communities,
                       double avg_in_degree, double avg_out_degree,
                       bool weighted, Rng& rng) {
  KDASH_CHECK(num_communities >= 1 && num_nodes >= 2 * num_communities);
  const NodeId community_size = num_nodes / num_communities;
  auto community_of = [&](NodeId u) {
    return std::min<NodeId>(u / community_size, num_communities - 1);
  };
  auto community_begin = [&](NodeId community) {
    return static_cast<NodeId>(community * community_size);
  };
  auto community_end = [&](NodeId community) {
    return community == num_communities - 1
               ? num_nodes
               : static_cast<NodeId>((community + 1) * community_size);
  };

  const Index within_edges =
      static_cast<Index>(static_cast<double>(num_nodes) * avg_in_degree / 2.0);
  const Index cross_edges =
      static_cast<Index>(static_cast<double>(num_nodes) * avg_out_degree / 2.0);
  // The loops below draw distinct pairs until each budget is met, so a
  // budget above the pairs available would never be met.
  const auto pairs = [](Index size) { return size * (size - 1) / 2; };
  Index within_pairs = 0;
  for (NodeId c = 0; c < num_communities; ++c) {
    within_pairs += pairs(community_end(c) - community_begin(c));
  }
  const Index cross_pairs = pairs(num_nodes) - within_pairs;
  KDASH_CHECK(within_edges <= within_pairs)
      << within_edges << " within-community edges asked for, "
      << within_pairs << " pairs available";
  KDASH_CHECK(cross_edges <= cross_pairs)
      << cross_edges << " cross-community edges asked for, " << cross_pairs
      << " pairs available";

  std::unordered_set<std::uint64_t> seen;
  GraphBuilder builder(num_nodes);
  auto try_add = [&](NodeId u, NodeId v, Scalar w) {
    if (u == v) return false;
    if (!seen.insert(EdgeKey(std::min(u, v), std::max(u, v))).second) return false;
    builder.AddUndirectedEdge(u, v, w);
    return true;
  };

  // Collaboration-style weights: simulate "papers" with 1/(k-1) credit per
  // co-author pair, à la Newman's cond-mat weighting.
  auto next_weight = [&]() -> Scalar {
    if (!weighted) return 1.0;
    const int coauthors = 2 + static_cast<int>(rng.NextBounded(4));  // 2..5
    return 1.0 / static_cast<Scalar>(coauthors - 1);
  };

  Index added = 0;
  while (added < within_edges) {
    const NodeId community = static_cast<NodeId>(rng.NextBounded(
        static_cast<std::uint64_t>(num_communities)));
    const NodeId lo = community_begin(community);
    const NodeId hi = community_end(community);
    const NodeId u = static_cast<NodeId>(lo + rng.NextBounded(
                                                  static_cast<std::uint64_t>(hi - lo)));
    const NodeId v = static_cast<NodeId>(lo + rng.NextBounded(
                                                  static_cast<std::uint64_t>(hi - lo)));
    if (try_add(u, v, next_weight())) ++added;
  }
  added = 0;
  while (added < cross_edges) {
    const NodeId u = rng.NextNode(num_nodes);
    const NodeId v = rng.NextNode(num_nodes);
    if (community_of(u) == community_of(v)) continue;
    if (try_add(u, v, next_weight())) ++added;
  }
  return std::move(builder).Build();
}

Graph DirectedScaleFree(NodeId num_nodes, double alpha, double beta,
                        double gamma, double delta_in, double delta_out,
                        Rng& rng) {
  KDASH_CHECK(std::abs(alpha + beta + gamma - 1.0) < 1e-9)
      << "alpha + beta + gamma must be 1";
  KDASH_CHECK(num_nodes >= 3);

  std::vector<std::pair<NodeId, NodeId>> edges;
  std::vector<Index> in_degree, out_degree;
  NodeId n = 0;
  auto new_node = [&]() {
    in_degree.push_back(0);
    out_degree.push_back(0);
    return n++;
  };
  auto add_edge = [&](NodeId u, NodeId v) {
    edges.emplace_back(u, v);
    ++out_degree[static_cast<std::size_t>(u)];
    ++in_degree[static_cast<std::size_t>(v)];
  };

  // Sampling ∝ degree + delta via rejection over "degree mass + delta mass".
  auto sample_by_in = [&]() -> NodeId {
    const double total = static_cast<double>(edges.size()) +
                         delta_in * static_cast<double>(n);
    double r = rng.NextDouble() * total;
    if (r < delta_in * static_cast<double>(n)) {
      return rng.NextNode(n);
    }
    // Pick the head endpoint of a uniform random edge (∝ in-degree).
    return edges[rng.NextBounded(edges.size())].second;
  };
  auto sample_by_out = [&]() -> NodeId {
    const double total = static_cast<double>(edges.size()) +
                         delta_out * static_cast<double>(n);
    double r = rng.NextDouble() * total;
    if (r < delta_out * static_cast<double>(n)) {
      return rng.NextNode(n);
    }
    return edges[rng.NextBounded(edges.size())].first;
  };

  // Seed triangle.
  const NodeId a = new_node(), b = new_node(), c = new_node();
  add_edge(a, b);
  add_edge(b, c);
  add_edge(c, a);

  while (n < num_nodes) {
    const double r = rng.NextDouble();
    if (r < alpha) {
      const NodeId w = sample_by_in();
      const NodeId v = new_node();
      add_edge(v, w);
    } else if (r < alpha + beta) {
      const NodeId v = sample_by_out();
      const NodeId w = sample_by_in();
      if (v != w) add_edge(v, w);
    } else {
      const NodeId v = sample_by_out();
      const NodeId w = new_node();
      add_edge(v, w);
    }
  }

  GraphBuilder builder(num_nodes);
  for (const auto& [u, v] : edges) builder.AddEdge(u, v);
  return std::move(builder).Build();
}

Graph RMat(int scale, Index num_edges, double a, double b, double c, double d,
           Rng& rng) {
  KDASH_CHECK(scale >= 1 && scale < 31);
  KDASH_CHECK(std::abs(a + b + c + d - 1.0) < 1e-9);
  const NodeId num_nodes = static_cast<NodeId>(1) << scale;
  GraphBuilder builder(num_nodes);
  std::unordered_set<std::uint64_t> seen;
  Index added = 0;
  Index attempts = 0;
  const Index max_attempts = num_edges * 20;
  while (added < num_edges && attempts < max_attempts) {
    ++attempts;
    NodeId row = 0, col = 0;
    for (int level = 0; level < scale; ++level) {
      const double r = rng.NextDouble();
      row <<= 1;
      col <<= 1;
      if (r < a) {
        // top-left quadrant
      } else if (r < a + b) {
        col |= 1;
      } else if (r < a + b + c) {
        row |= 1;
      } else {
        row |= 1;
        col |= 1;
      }
    }
    if (row == col) continue;
    if (!seen.insert(EdgeKey(row, col)).second) continue;
    builder.AddEdge(row, col);
    ++added;
  }
  return std::move(builder).Build();
}

Graph BipartiteRatings(NodeId num_users, NodeId num_items, Index num_ratings,
                       Rng& rng) {
  KDASH_CHECK(num_users >= 1 && num_items >= 1);
  const NodeId n = static_cast<NodeId>(num_users + num_items);
  GraphBuilder builder(n);
  std::unordered_set<std::uint64_t> seen;
  Index added = 0;
  while (added < num_ratings) {
    const NodeId user = rng.NextNode(num_users);
    // Zipf-skewed item popularity: item index ∝ u^2 biases toward low ids.
    const double u01 = rng.NextDouble();
    const NodeId item = static_cast<NodeId>(
        num_users +
        std::min<NodeId>(static_cast<NodeId>(u01 * u01 * num_items),
                         static_cast<NodeId>(num_items - 1)));
    if (!seen.insert(EdgeKey(user, item)).second) continue;
    const Scalar rating = static_cast<Scalar>(1 + rng.NextBounded(5));
    builder.AddUndirectedEdge(user, item, rating);
    ++added;
  }
  return std::move(builder).Build();
}

}  // namespace kdash::graph
