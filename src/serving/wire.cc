#include "serving/wire.h"

#include <sys/socket.h>

#include <cerrno>
#include <charconv>
#include <chrono>
#include <cstdio>
#include <limits>
#include <memory>
#include <sstream>

#include "common/parse_number.h"
#include "obs/trace.h"

namespace kdash::serving::wire {
namespace {

// Exact match of `literal` after trimming blanks.
bool IsLiteralLine(std::string_view line, std::string_view literal) {
  const std::size_t begin = line.find_first_not_of(" \t");
  const std::size_t end = line.find_last_not_of(" \t");
  if (begin == std::string_view::npos) return false;
  return line.substr(begin, end - begin + 1) == literal;
}

// Appends `,"t_us":N` when the caller measured a server-side latency.
void AppendLatencyField(std::string* record, long long t_us) {
  if (t_us >= 0) *record += ",\"t_us\":" + std::to_string(t_us);
}

// The records ParseRecordLine reads are produced by the Format*Record
// functions below — a fixed, known field layout, not arbitrary JSON — so
// field extraction is a linear scan for `"name":`, never a general parser.

// Position of the character after `"name":`, or npos.
std::size_t FieldPos(const std::string& line, std::string_view name) {
  std::string token = "\"";
  token += name;
  token += "\":";
  const std::size_t at = line.find(token);
  return at == std::string::npos ? std::string::npos : at + token.size();
}

// The value of field `name` up to the next ',' or '}' — one JSON number
// in the records this parser reads. `absent` when the field is missing;
// empty (so unparseable) when it runs off the end of a truncated record.
std::string_view NumberField(const std::string& object, std::string_view name,
                             std::string_view absent = {}) {
  const std::size_t pos = FieldPos(object, name);
  if (pos == std::string::npos) return absent;
  const std::size_t end = object.find_first_of(",}", pos);
  if (end == std::string::npos) return {};
  return std::string_view(object).substr(pos, end - pos);
}

// Undo JsonEscape: \" and \\ plus \u00XX for control bytes. Any other
// escape is passed through verbatim rather than rejected — the message is
// diagnostic text, not data.
std::string Unescape(std::string_view text) {
  std::string plain;
  plain.reserve(text.size());
  for (std::size_t i = 0; i < text.size(); ++i) {
    if (text[i] != '\\' || i + 1 >= text.size()) {
      plain += text[i];
      continue;
    }
    const char next = text[i + 1];
    const std::string_view hex = text.substr(i + 2, 4);  // the XX of \u00XX
    const char* hex_end = hex.data() + hex.size();
    unsigned byte = 0;
    if (next == '"' || next == '\\') {
      plain += next;
      ++i;
    } else if (next == 'u' && hex.size() == 4 &&
               // kdash-lint: allow(raw-number-parse) the XX is base 16, and
               // ParseNumber reads base 10 only.
               std::from_chars(hex.data(), hex_end, byte, 16).ptr == hex_end &&
               byte <= 0xFF) {
      plain += static_cast<char>(byte);
      i += 5;
    } else {
      plain += text[i];
    }
  }
  return plain;
}

// The quoted string value of field `name`; honors escapes. False when the
// field is absent or its closing quote is missing (a truncated record).
bool ParseStringField(const std::string& line, std::string_view name,
                      std::string* out) {
  std::size_t pos = FieldPos(line, name);
  if (pos == std::string::npos || pos >= line.size() || line[pos] != '"') {
    return false;
  }
  ++pos;
  std::size_t end = pos;
  while (end < line.size() && line[end] != '"') {
    end += line[end] == '\\' ? 2 : 1;
  }
  if (end >= line.size()) return false;
  *out = Unescape(std::string_view(line).substr(pos, end - pos));
  return true;
}

// Parses a "score_hex" value: %a output, "0x" then the hex digits that
// from_chars reads back to the bit-identical double.
bool ParseHexScore(std::string_view text, Scalar* score) {
  if (!text.starts_with("0x")) return false;
  text.remove_prefix(2);
  Scalar value = 0;
  const char* last = text.data() + text.size();
  // ParseNumber reads base 10 only, and these are hex-float digits.
  // kdash-lint: allow(raw-number-parse) hex float; full match checked below
  const auto [end, error] =
      std::from_chars(text.data(), last, value, std::chars_format::hex);
  if (error != std::errc() || end != last) return false;
  *score = value;
  return true;
}

Status Malformed(const std::string& line, const std::string& what) {
  return Status::InvalidArgument(
      "unparseable worker record (" + what + "): " + line.substr(0, 120));
}

// Parses the "top":[...] array into `top`. Entries are
// {"node":N,"score":D[,"score_hex":"H"]}; the hexfloat wins when present
// (it round-trips the double exactly, the decimal does not).
Status ParseTopArray(const std::string& line, std::vector<ScoredNode>* top) {
  std::size_t pos = FieldPos(line, "top");
  if (pos == std::string::npos || pos >= line.size() || line[pos] != '[') {
    return Malformed(line, "missing top array");
  }
  ++pos;
  while (pos < line.size() && line[pos] != ']') {
    if (line[pos] != '{') return Malformed(line, "bad top entry");
    const std::size_t entry_end = line.find('}', pos);
    if (entry_end == std::string::npos) {
      return Malformed(line, "unterminated top entry");
    }
    const std::string entry = line.substr(pos, entry_end - pos + 1);
    NodeId node = 0;
    if (!ParseNumber(NumberField(entry, "node"), &node, 0)) {
      return Malformed(line, "top entry without a valid node");
    }
    // A proximity is a probability, so anything else (NaN would break the
    // merge's strict weak order) is not a score. The upper end allows for
    // rounding: a node whose only edge is a self-loop scores 1 + 2⁻⁵² at
    // c = 0.1, and that is a real answer.
    Scalar score = -1.0;
    std::string hex;
    const bool parsed =
        ParseStringField(entry, "score_hex", &hex)
            ? ParseHexScore(hex, &score)
            : ParseNumber(NumberField(entry, "score"), &score);
    if (!parsed || !(score >= 0.0 && score <= 1.0 + 1e-9)) {
      return Malformed(line, "top entry without a valid score");
    }
    top->push_back(ScoredNode{node, score});
    pos = entry_end + 1;
    if (pos < line.size() && line[pos] == ',') ++pos;
  }
  if (pos >= line.size()) return Malformed(line, "unterminated top array");
  return Status::Ok();
}

}  // namespace

// ---- Requests --------------------------------------------------------------

std::string FormatRequestLine(const Query& query) {
  std::string line;
  for (std::size_t i = 0; i < query.sources.size(); ++i) {
    if (i > 0) line += ' ';
    line += std::to_string(query.sources[i]);
  }
  if (!query.exclude.empty()) {
    line += " --";
    for (const NodeId node : query.exclude) {
      line += ' ';
      line += std::to_string(node);
    }
  }
  line += " k=" + std::to_string(query.k);
  if (!query.use_pruning) line += " pruning=0";
  if (query.deadline != std::chrono::steady_clock::time_point::max()) {
    const auto remaining = std::chrono::duration_cast<std::chrono::microseconds>(
        query.deadline - std::chrono::steady_clock::now());
    line += " deadline_us=" +
            std::to_string(remaining.count() > 0 ? remaining.count() : 0);
  }
  line += " hex=1";
  return line;
}

bool ParseQueryLine(const std::string& line, std::size_t default_k,
                    Query* query, std::string* error, bool* hex_scores) {
  *query = Query{};
  query->k = default_k;
  if (hex_scores != nullptr) *hex_scores = false;
  std::istringstream tokens(line);
  std::string token;
  bool excludes = false;
  while (tokens >> token) {
    if (token == "--") {
      excludes = true;
      continue;
    }
    if (token.rfind("k=", 0) == 0) {
      const std::string value = token.substr(2);
      if (!ParseNumber(value, &query->k, 1,
                       std::numeric_limits<long long>::max())) {
        *error = "bad k '" + value + "'";
        return false;
      }
      continue;
    }
    if (token == "trace=1") {
      query->trace = std::make_shared<obs::TraceContext>();
      continue;
    }
    if (token == "hex=1") {
      if (hex_scores != nullptr) *hex_scores = true;
      continue;
    }
    if (token == "pruning=0") {
      query->use_pruning = false;
      continue;
    }
    if (token.rfind("deadline_us=", 0) == 0) {
      // The wire carries the *remaining* budget, not an absolute time —
      // two hosts share no clock. Receipt is the budget's new epoch; a
      // non-positive budget arrives already expired, and one past what
      // steady_clock can hold means no deadline. Clamping before the add
      // keeps a huge budget from wrapping around into the past (and a huge
      // negative one into the future).
      const std::string value = token.substr(12);
      long long budget_us = 0;
      if (!ParseNumber(value, &budget_us)) {
        *error = "bad deadline_us '" + value + "'";
        return false;
      }
      using Clock = std::chrono::steady_clock;
      const Clock::time_point now = Clock::now();
      const long long max_budget_us =
          std::chrono::duration_cast<std::chrono::microseconds>(
              Clock::time_point::max() - now)
              .count();
      if (budget_us <= 0) {
        query->deadline = now;
      } else if (budget_us > max_budget_us) {
        query->deadline = Clock::time_point::max();
      } else {
        query->deadline = now + std::chrono::microseconds(budget_us);
      }
      continue;
    }
    NodeId id = 0;
    if (!ParseNumber(token, &id)) {
      // A well-formed integer that only misses NodeId's range gets its own
      // message.
      long long wide = 0;
      *error = ParseNumber(token, &wide)
                   ? "node id '" + token + "' out of range"
                   : "bad token '" + token + "'";
      return false;
    }
    (excludes ? query->exclude : query->sources).push_back(id);
  }
  return true;
}

bool IsPingLine(const std::string& line) {
  return IsLiteralLine(line, PingLine());
}

bool IsStatsLine(const std::string& line) {
  return IsLiteralLine(line, "{\"stats\":1}");
}

// ---- Records ---------------------------------------------------------------

std::string FormatResultRecord(long long id, const Query& query,
                               const SearchResult& result, long long t_us,
                               bool hex_scores) {
  std::string record = "{\"id\":" + std::to_string(id) + ",\"sources\":[";
  for (std::size_t i = 0; i < query.sources.size(); ++i) {
    if (i > 0) record += ',';
    record += std::to_string(query.sources[i]);
  }
  record += "],\"k\":" + std::to_string(query.k) + ",\"top\":[";
  char buffer[128];
  for (std::size_t i = 0; i < result.top.size(); ++i) {
    if (i > 0) record += ',';
    std::snprintf(buffer, sizeof(buffer), "{\"node\":%d,\"score\":%.12g",
                  result.top[i].node, result.top[i].score);
    record += buffer;
    if (hex_scores) {
      std::snprintf(buffer, sizeof(buffer), ",\"score_hex\":\"%a\"",
                    result.top[i].score);
      record += buffer;
    }
    record += '}';
  }
  record += "],\"visited\":" + std::to_string(result.stats.nodes_visited) +
            ",\"computed\":" +
            std::to_string(result.stats.proximity_computations) +
            ",\"pruned\":" +
            (result.stats.terminated_early ? "true" : "false");
  if (result.degraded()) {
    // Partial top-k (graceful degradation): callers that need completeness
    // must check for this field.
    record += ",\"shards_ok\":" + std::to_string(result.shards_ok) +
              ",\"shards_failed\":" + std::to_string(result.shards_failed);
  }
  AppendLatencyField(&record, t_us);
  if (query.trace != nullptr) {
    record += ",\"trace\":" + query.trace->ToJson();
  }
  record += "}";
  return record;
}

std::string FormatErrorRecord(long long id, const Status& status,
                              long long t_us) {
  std::string record = "{\"id\":" + std::to_string(id) + ",\"code\":\"" +
                       StatusCodeName(status.code()) + "\",\"error\":\"" +
                       JsonEscape(status.message()) + "\"";
  AppendLatencyField(&record, t_us);
  record += "}";
  return record;
}

std::string FormatPongRecord(long long id, long long t_us, int shards,
                             long long nodes) {
  std::string record = "{\"id\":" + std::to_string(id) + ",\"pong\":1";
  if (shards >= 0) record += ",\"shards\":" + std::to_string(shards);
  if (nodes >= 0) record += ",\"nodes\":" + std::to_string(nodes);
  AppendLatencyField(&record, t_us);
  record += "}";
  return record;
}

std::string FormatStatsRecord(long long id, const std::string& stats_json,
                              long long t_us) {
  std::string record =
      "{\"id\":" + std::to_string(id) + ",\"stats\":" + stats_json;
  AppendLatencyField(&record, t_us);
  record += "}";
  return record;
}

std::string JsonEscape(std::string_view text) {
  std::string escaped;
  for (const char ch : text) {
    if (ch == '"' || ch == '\\') {
      escaped += '\\';
      escaped += ch;
    } else if (static_cast<unsigned char>(ch) < 0x20) {
      char buffer[8];
      std::snprintf(buffer, sizeof(buffer), "\\u%04x",
                    static_cast<unsigned>(static_cast<unsigned char>(ch)));
      escaped += buffer;
    } else {
      escaped += ch;
    }
  }
  return escaped;
}

Result<ParsedRecord> ParseRecordLine(const std::string& line) {
  ParsedRecord record;
  if (!ParseNumber(NumberField(line, "id"), &record.id)) {
    return Malformed(line, "missing id");
  }

  if (line.find("\"pong\":1") != std::string::npos) {
    record.kind = ParsedRecord::Kind::kPong;
    if (!ParseNumber(NumberField(line, "shards", "-1"), &record.pong_shards,
                     -1) ||
        !ParseNumber(NumberField(line, "nodes", "-1"), &record.pong_nodes,
                     -1)) {
      return Malformed(line, "bad pong footprint");
    }
    return record;
  }

  std::string code;
  if (ParseStringField(line, "code", &code)) {
    record.kind = ParsedRecord::Kind::kError;
    std::string message;
    if (!ParseStringField(line, "error", &message)) {
      return Malformed(line, "error record without message");
    }
    record.error = Status(StatusCodeFromName(code), std::move(message));
    return record;
  }

  record.kind = ParsedRecord::Kind::kResult;
  KDASH_RETURN_IF_ERROR(ParseTopArray(line, &record.result.top));
  core::SearchStats& stats = record.result.stats;
  if (!ParseNumber(NumberField(line, "visited"), &stats.nodes_visited, 0) ||
      !ParseNumber(NumberField(line, "computed"),
                   &stats.proximity_computations, 0)) {
    return Malformed(line, "result record without valid stats");
  }
  stats.terminated_early = line.find("\"pruned\":true") != std::string::npos;
  // Present only on degraded records; a complete record leaves both 0 and
  // the router substitutes the slot's full shard weight.
  if (!ParseNumber(NumberField(line, "shards_ok", "0"),
                   &record.result.shards_ok, 0) ||
      !ParseNumber(NumberField(line, "shards_failed", "0"),
                   &record.result.shards_failed, 0)) {
    return Malformed(line, "bad shard tags");
  }
  return record;
}

// ---- Transport -------------------------------------------------------------

bool SendLine(int fd, std::string_view line) {
  std::string payload(line);
  payload += '\n';
  std::size_t sent = 0;
  while (sent < payload.size()) {
    const ssize_t wrote =
        ::send(fd, payload.data() + sent, payload.size() - sent, MSG_NOSIGNAL);
    // EINTR means a signal interrupted the call before any byte moved —
    // the connection is fine; giving up here drops healthy peers.
    if (wrote < 0 && errno == EINTR) continue;
    if (wrote <= 0) return false;
    sent += static_cast<std::size_t>(wrote);
  }
  return true;
}

}  // namespace kdash::serving::wire
