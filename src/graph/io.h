// Edge-list text I/O.
//
// Format: one `src dst [weight]` line per edge, fields separated by
// whitespace; `#` starts a comment. Node ids are arbitrary integers in
// [0, LLONG_MAX] and are densified on load; a weight is finite and > 0
// (default 1).
// This is the format of the SNAP and Newman datasets the paper uses, so a
// user with the real files can feed them directly to the library.
#ifndef KDASH_GRAPH_IO_H_
#define KDASH_GRAPH_IO_H_

#include <iosfwd>
#include <string>

#include "common/status.h"
#include "graph/graph.h"

namespace kdash::graph {

// Parses an edge list from a stream. If `undirected`, every edge is added in
// both directions. A line that is not blank or a comment must hold exactly
// 2 or 3 fields, each a number in range (common/parse_number.h); anything
// else is kDataLoss naming the line.
[[nodiscard]] Result<Graph> ReadEdgeList(std::istream& in, bool undirected);

// File overload: kNotFound when the file cannot be opened.
[[nodiscard]] Result<Graph> ReadEdgeListFile(const std::string& path,
                                             bool undirected);

// Writes `graph` as a directed edge list with weights.
void WriteEdgeList(const Graph& graph, std::ostream& out);

void WriteEdgeListFile(const Graph& graph, const std::string& path);

}  // namespace kdash::graph

#endif  // KDASH_GRAPH_IO_H_
