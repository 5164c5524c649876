#include "serving/wire.h"

#include <cstdio>
#include <cstdlib>
#include <string_view>

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

bool ParseIntField(const std::string& line, std::string_view name,
                   long long* out) {
  const std::size_t pos = FieldPos(line, name);
  if (pos == std::string::npos) return false;
  char* end = nullptr;
  *out = std::strtoll(line.c_str() + pos, &end, 10);
  return end != line.c_str() + pos;
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
    long long node = 0;
    if (!ParseIntField(entry, "node", &node)) {
      return Malformed(line, "top entry without node");
    }
    Scalar score = 0;
    std::string hex;
    if (ParseStringField(entry, "score_hex", &hex)) {
      score = std::strtod(hex.c_str(), nullptr);
    } else {
      const std::size_t score_pos = FieldPos(entry, "score");
      if (score_pos == std::string::npos) {
        return Malformed(line, "top entry without score");
      }
      score = std::strtod(entry.c_str() + score_pos, nullptr);
    }
    top->push_back(ScoredNode{static_cast<NodeId>(node), score});
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
  if (!ParseIntField(line, "id", &record.id)) {
    return Malformed(line, "missing id");
  }

  if (line.find("\"pong\":1") != std::string::npos) {
    record.kind = ParsedRecord::Kind::kPong;
    long long shards = -1;
    long long nodes = -1;
    if (ParseIntField(line, "shards", &shards)) {
      record.pong_shards = static_cast<int>(shards);
    }
    if (ParseIntField(line, "nodes", &nodes)) record.pong_nodes = nodes;
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
  long long visited = 0;
  long long computed = 0;
  if (!ParseIntField(line, "visited", &visited) ||
      !ParseIntField(line, "computed", &computed)) {
    return Malformed(line, "result record without stats");
  }
  record.result.stats.nodes_visited = static_cast<NodeId>(visited);
  record.result.stats.proximity_computations = static_cast<NodeId>(computed);
  record.result.stats.terminated_early =
      line.find("\"pruned\":true") != std::string::npos;
  long long shards_ok = 0;
  long long shards_failed = 0;
  // Present only on degraded records; a complete record leaves both 0 and
  // the router substitutes the slot's full shard weight.
  if (ParseIntField(line, "shards_ok", &shards_ok)) {
    record.result.shards_ok = static_cast<int>(shards_ok);
  }
  if (ParseIntField(line, "shards_failed", &shards_failed)) {
    record.result.shards_failed = static_cast<int>(shards_failed);
  }
  return record;
}

}  // namespace kdash::serving::wire
