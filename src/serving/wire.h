// kdash::serving::wire — the JSON-lines protocol of `kdash_server` (stdin
// or TCP) and of the router's worker connections, both directions: one
// request per input line, one JSON object per output line, errors reported
// inline so a bad request never takes down the stream. A worker is just a
// kdash_server a router happens to dial, so both halves live here.
//
// Request line grammar (whitespace-separated):
//   <source> [<source> ...] [-- <exclude> ...] [k=<n>] [trace=1]
//   [pruning=0] [deadline_us=<n>] [hex=1]
// plus the literal health request `{"ping":1}` (answered in order with a
// pong record, without touching the scheduler or the index) and the stats
// request `{"stats":1}` (answered in order with a metric-registry
// snapshot, see obs/metrics.h). Every number is one whole base-10 token of
// its field's type (common/parse_number.h): a leading '+', trailing junk
// or a value outside the type is a malformed line.
//
// The last three tokens exist for the distributed tier (serving::Router →
// `kdash_server <dir> --shards=...` workers), though any client may use
// them: `pruning=0` carries the Query diagnostic field that would
// otherwise be unreachable over the wire, `deadline_us=<n>` hands the
// server the request's *remaining* budget (it stamps Query::deadline n µs
// from receipt, so an expired budget comes back DEADLINE_EXCEEDED instead
// of as an answer nobody is waiting for), and `hex=1` asks for a
// "score_hex" hexfloat (%a) alongside each entry's decimal score:
// "score":%.12g is for humans and loses low-order bits, so every router
// request carries hex=1 and ParseRecordLine prefers the hexfloat, which
// round-trips the double exactly. That is what keeps the router's
// cross-worker merge bit-identical to ShardedEngine's.
//
// Response records:
//   {"id":7,"sources":[3],"k":5,"top":[{"node":9,"score":0.0123},...],
//    "visited":42,"computed":17,"pruned":true,"t_us":184}
//   {"id":8,"code":"INVALID_ARGUMENT","error":"source node 999 out of ...,
//    "t_us":12}
//   {"id":9,"pong":1,"t_us":3}
//   {"id":10,"stats":{"metrics":[...]},"t_us":57}
// Error records carry the canonical status-code name in "code" so clients
// can branch on DEADLINE_EXCEEDED / UNAVAILABLE / RESOURCE_EXHAUSTED
// without parsing the human-readable message. Degraded sharded results add
// "shards_ok"/"shards_failed" (complete results omit them). "t_us" is the
// server-side end-to-end latency of the request (parse → answer ready to
// send) and is present on every record kind a server sends; `trace=1`
// requests additionally get a "trace" array of per-stage spans
// (obs/trace.h). A t_us < 0 argument to the Format*Record functions omits
// the field, so offline callers (tests, scripts) get byte-stable records.
#ifndef KDASH_SERVING_WIRE_H_
#define KDASH_SERVING_WIRE_H_

#include <string>
#include <string_view>

#include "common/status.h"
#include "core/engine.h"

namespace kdash::serving::wire {

// ---- Requests --------------------------------------------------------------

// One Query → one request line (no trailing newline), always with hex=1.
// A query whose deadline already passed sends deadline_us=0 so the worker
// expires it instead of computing. `query.trace` is not forwarded — the
// router stamps its own spans around the call.
std::string FormatRequestLine(const Query& query);

// One request line → a Query with k defaulting to `default_k`. Returns
// false with a message on a malformed line (the caller reports it as an
// error record and keeps going). `hex_scores`, when non-null, reports
// whether the line carried `hex=1` (the caller then formats the result
// record with hexfloat scores).
bool ParseQueryLine(const std::string& line, std::size_t default_k,
                    Query* query, std::string* error,
                    bool* hex_scores = nullptr);

// The request line a health probe sends.
inline const char* PingLine() { return "{\"ping\":1}"; }

// The health and stats request literals, matched after trimming blanks.
bool IsPingLine(const std::string& line);
bool IsStatsLine(const std::string& line);

// ---- Records ---------------------------------------------------------------

// `hex_scores` adds the "score_hex" fields (the request's hex=1).
std::string FormatResultRecord(long long id, const Query& query,
                               const SearchResult& result,
                               long long t_us = -1, bool hex_scores = false);

// Error record with a machine-readable code field.
std::string FormatErrorRecord(long long id, const Status& status,
                              long long t_us = -1);

// Pong record, optionally carrying the responder's serving footprint:
// `shards` (how many index shards this process serves — the router weighs
// a worker's success/failure in shard units, as an in-process
// ShardedEngine does) and `nodes` (the graph size, informational only).
// Negative values omit the field, so unsharded pongs stay byte-stable.
std::string FormatPongRecord(long long id, long long t_us = -1,
                             int shards = -1, long long nodes = -1);

// Stats record: `stats_json` is a pre-rendered JSON object (the registry's
// SnapshotToJson()), embedded verbatim.
std::string FormatStatsRecord(long long id, const std::string& stats_json,
                              long long t_us = -1);

// Escapes a JSON string body: '"' and '\\' get a backslash, control bytes
// become \u00XX. ParseRecordLine undoes it.
std::string JsonEscape(std::string_view text);

struct ParsedRecord {
  enum class Kind { kResult, kError, kPong };
  Kind kind = Kind::kResult;

  long long id = -1;

  // kError: the canonical code (parsed from "code") plus the escaped
  // message, reconstituted.
  Status error;

  // kResult: top entries (score_hex preferred), summed worker-side stats,
  // and the degradation tags when present (absent = complete).
  SearchResult result;

  // kPong: the worker's advertised footprint (see FormatPongRecord);
  // -1 when the pong carried none (a plain kdash_server).
  int pong_shards = -1;
  long long pong_nodes = -1;
};

// Parse one response line. Returns kInvalidArgument (tagged with a prefix
// of the offending line) when the record is not one of the three kinds a
// worker sends (results, errors, pongs) — which, between two processes of
// this repo, means the peer is not a kdash worker at all.
[[nodiscard]] Result<ParsedRecord> ParseRecordLine(const std::string& line);

// ---- Transport -------------------------------------------------------------

// Writes `line` plus a newline to the socket `fd`, looping over short
// writes and EINTR. MSG_NOSIGNAL: a closed peer is a false return, never a
// SIGPIPE. False when the connection fails mid-line.
[[nodiscard]] bool SendLine(int fd, std::string_view line);

}  // namespace kdash::serving::wire

#endif  // KDASH_SERVING_WIRE_H_
