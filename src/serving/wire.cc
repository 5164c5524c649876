#include "serving/wire.h"

#include <charconv>
#include <cstdio>
#include <cstdlib>
#include <limits>
#include <string_view>
#include <type_traits>

namespace kdash::serving::wire {
namespace {

// The records this parser reads are produced by tools/json_lines.h — a
// fixed, known field layout, not arbitrary JSON — so field extraction is a
// linear scan for `"name":`, never a general parser. Both sides live in
// this repo and are tested against each other.

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

// Parses `token` whole into *out; false on any other text or on a value
// outside [lo, hi].
template <typename T>
bool ParseNumber(std::string_view token, T* out,
                 std::type_identity_t<T> lo = std::numeric_limits<T>::lowest(),
                 std::type_identity_t<T> hi = std::numeric_limits<T>::max()) {
  T value{};
  const char* last = token.data() + token.size();
  const auto [end, error] = std::from_chars(token.data(), last, value);
  if (error != std::errc() || end != last || !(value >= lo && value <= hi)) {
    return false;
  }
  *out = value;
  return true;
}

// Undo tools::JsonEscape: \" and \\ plus \u00XX for control bytes. Any
// other escape is passed through verbatim rather than rejected — the
// message is diagnostic text, not data.
std::string Unescape(std::string_view text) {
  std::string plain;
  plain.reserve(text.size());
  for (std::size_t i = 0; i < text.size(); ++i) {
    if (text[i] != '\\' || i + 1 >= text.size()) {
      plain += text[i];
      continue;
    }
    const char next = text[i + 1];
    if (next == '"' || next == '\\') {
      plain += next;
      ++i;
    } else if (next == 'u' && i + 5 < text.size()) {
      const std::string hex(text.substr(i + 2, 4));
      plain += static_cast<char>(std::strtoul(hex.c_str(), nullptr, 16));
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
    Scalar score = -1.0;  // stays out of range unless a parse succeeds
    std::string hex;
    if (ParseStringField(entry, "score_hex", &hex)) {
      char* end = nullptr;
      const Scalar parsed = std::strtod(hex.c_str(), &end);
      if (end != hex.c_str() && *end == '\0') score = parsed;
    } else {
      ParseNumber(NumberField(entry, "score"), &score);
    }
    // A proximity is a probability, so anything else (NaN would break the
    // merge's strict weak order) is not a score. The upper end allows for
    // rounding: a node whose only edge is a self-loop scores 1 + 2⁻⁵² at
    // c = 0.1, and that is a real answer.
    if (!(score >= 0.0 && score <= 1.0 + 1e-9)) {
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
  if (query.root_override != kInvalidNode) {
    line += " root=" + std::to_string(query.root_override);
  }
  if (query.deadline != std::chrono::steady_clock::time_point::max()) {
    const auto remaining = std::chrono::duration_cast<std::chrono::microseconds>(
        query.deadline - std::chrono::steady_clock::now());
    line += " deadline_us=" +
            std::to_string(remaining.count() > 0 ? remaining.count() : 0);
  }
  line += " hex=1";
  return line;
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

}  // namespace kdash::serving::wire
