// Random graph generators.
//
// These synthesize the structural families of the paper's five public
// datasets (see datasets/): power-law degree graphs, community-structured
// graphs, small-world graphs, and skewed directed graphs. All generators are
// deterministic given the Rng seed.
#ifndef KDASH_GRAPH_GENERATORS_H_
#define KDASH_GRAPH_GENERATORS_H_

#include "common/random.h"
#include "common/types.h"
#include "graph/graph.h"

namespace kdash::graph {

// Barabási–Albert preferential attachment. Each new node attaches
// `edges_per_node` undirected edges to existing nodes with probability
// proportional to their current degree. Produces the power-law degree
// distribution characteristic of the Internet AS graph.
Graph BarabasiAlbert(NodeId num_nodes, NodeId edges_per_node, Rng& rng);

// Holme–Kim power-law cluster model: Barabási–Albert with a triad-formation
// step (probability `triad_prob` of closing a triangle after each
// preferential attachment), yielding power-law degrees *and* high
// clustering — the FOLDOC dictionary's structure. If `directed`, each
// undirected edge is emitted in both directions and additionally a fraction
// of one-way semantic links is produced by dropping one direction at random
// with probability `one_way_prob`.
Graph PowerLawCluster(NodeId num_nodes, NodeId edges_per_node,
                      double triad_prob, bool directed, double one_way_prob,
                      Rng& rng);

// Watts–Strogatz small world: ring lattice with `k` neighbors per side,
// each edge rewired with probability `beta`.
Graph WattsStrogatz(NodeId num_nodes, NodeId k, double beta, Rng& rng);

// Planted partition / stochastic block model with `num_communities` equal
// communities. Expected within-community degree `avg_in_degree` and
// cross-community degree `avg_out_degree` per node. If `weighted`, edge
// weights are Newman-style collaboration weights (1/k accumulated over
// simulated joint papers) instead of 1. Undirected.
Graph PlantedPartition(NodeId num_nodes, NodeId num_communities,
                       double avg_in_degree, double avg_out_degree,
                       bool weighted, Rng& rng);

// Bollobás et al. directed scale-free graph. At each step:
//   with prob alpha: new node v, edge v→w, w chosen ∝ in-degree + delta_in
//   with prob beta : edge v→w between existing nodes (out-pref → in-pref)
//   with prob gamma: new node w, edge v→w, v chosen ∝ out-degree + delta_out
// Grows until `num_nodes` nodes exist. Produces heavy-tailed in- AND
// out-degree sequences with many degree-1 leaves (the Email graph family).
Graph DirectedScaleFree(NodeId num_nodes, double alpha, double beta,
                        double gamma, double delta_in, double delta_out,
                        Rng& rng);

// R-MAT (recursive matrix) generator: 2^scale nodes, `num_edges` directed
// edges dropped by recursive quadrant selection with probabilities
// (a, b, c, d), a + b + c + d = 1. Skewed, self-similar — the Epinions
// social-graph family.
Graph RMat(int scale, Index num_edges, double a, double b, double c, double d,
           Rng& rng);

// Bipartite user–item interaction graph for the recommender example:
// `num_users` + `num_items` nodes; each user rates a Zipf-skewed random set
// of items; edges are undirected (user↔item) with rating weights in [1, 5].
Graph BipartiteRatings(NodeId num_users, NodeId num_items,
                       Index num_ratings, Rng& rng);

}  // namespace kdash::graph

#endif  // KDASH_GRAPH_GENERATORS_H_
