// The one way this tree turns text into a number (tools/kdash_lint.py's
// raw-number-parse rule bans strto*/ato*/std::sto* and a from_chars outside
// this header): every caller names the type and the accepted range, so a
// value that does not fit is a parse error, never a saturated number the
// caller must remember to re-check. SplitOn cuts a line into the fields
// ParseNumber then reads.
#ifndef KDASH_COMMON_PARSE_NUMBER_H_
#define KDASH_COMMON_PARSE_NUMBER_H_

#include <charconv>
#include <cmath>
#include <limits>
#include <string_view>
#include <system_error>
#include <type_traits>
#include <vector>

namespace kdash {

// Parses all of `token` as a base-10 T into *out with std::from_chars;
// false (and *out untouched) on a leading '+' or blank, trailing junk, a
// value outside [lo, hi], or for floating-point T a non-finite value.
template <typename T>
[[nodiscard]] bool ParseNumber(
    std::string_view token, T* out,
    std::type_identity_t<T> lo = std::numeric_limits<T>::lowest(),
    std::type_identity_t<T> hi = std::numeric_limits<T>::max()) {
  T value{};
  const char* last = token.data() + token.size();
  const auto [end, error] = std::from_chars(token.data(), last, value);
  if (error != std::errc() || end != last || !(value >= lo && value <= hi)) {
    return false;
  }
  if constexpr (std::is_floating_point_v<T>) {
    if (!std::isfinite(value)) return false;
  }
  *out = value;
  return true;
}

// Splits `text` at every `separator`: k separators give k + 1 fields, empty
// ones included, so a doubled or trailing separator surfaces as an empty
// field that a strict grammar rejects. The views alias `text`.
inline std::vector<std::string_view> SplitOn(std::string_view text,
                                             char separator) {
  std::vector<std::string_view> parts;
  for (;;) {
    const std::size_t at = text.find(separator);
    parts.push_back(text.substr(0, at));
    if (at == std::string_view::npos) return parts;
    text.remove_prefix(at + 1);
  }
}

}  // namespace kdash

#endif  // KDASH_COMMON_PARSE_NUMBER_H_
