// Whole-token number parsing for the text readers (topology, placement and
// day-log files).
#pragma once

#include <charconv>
#include <string_view>
#include <system_error>
#include <type_traits>

namespace agtram::common {

/// Parses all of `token` as an unsigned decimal: no sign, no fraction, no
/// trailing junk, no wrap-around.  `>>` accepts all four (`+2`, `2.5` read
/// as 2, `2junk`, `-1` wrapped to a huge count), so a reader that parses
/// its fields here refuses those lines instead of misreading them.
template <typename Unsigned>
bool parse_unsigned(std::string_view token, Unsigned& out) {
  static_assert(std::is_unsigned_v<Unsigned>);
  const char* const last = token.data() + token.size();
  const auto [ptr, ec] = std::from_chars(token.data(), last, out);
  return ec == std::errc() && ptr == last;
}

}  // namespace agtram::common
