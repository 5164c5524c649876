// The one way this tree turns text into a number (tools/kdash_lint.py's
// raw-number-parse rule bans strto*/ato*/std::sto*): every caller names the
// type and the accepted range, so a value that does not fit is a parse
// error, never a saturated number the caller must remember to re-check.
#ifndef KDASH_COMMON_PARSE_NUMBER_H_
#define KDASH_COMMON_PARSE_NUMBER_H_

#include <charconv>
#include <cmath>
#include <limits>
#include <string_view>
#include <system_error>
#include <type_traits>

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

}  // namespace kdash

#endif  // KDASH_COMMON_PARSE_NUMBER_H_
