// Shared `--name=value` flag parsing for the tool binaries. The JSON-lines
// protocol itself lives in src/serving/wire.h.
#ifndef KDASH_TOOLS_JSON_LINES_H_
#define KDASH_TOOLS_JSON_LINES_H_

#include <string>

#include "serving/wire.h"

namespace kdash::tools {

inline bool FlagValue(const std::string& arg, const char* name,
                      std::string* value) {
  const std::string prefix = std::string(name) + "=";
  if (arg.rfind(prefix, 0) != 0) return false;
  *value = arg.substr(prefix.size());
  return true;
}

// The benchmark harness (kbench/layers.cc) still calls these two by their
// old tools:: names; delete both once it calls serving::wire directly.
using serving::wire::FormatResultRecord;
using serving::wire::ParseQueryLine;

}  // namespace kdash::tools

#endif  // KDASH_TOOLS_JSON_LINES_H_
