#include "trace/access_log.hpp"

#include <charconv>
#include <cstdint>
#include <istream>
#include <ostream>
#include <sstream>
#include <stdexcept>
#include <string>
#include <system_error>

namespace agtram::trace {

void write_day_log(std::ostream& os, const DayLog& log) {
  for (const Request& r : log.requests) {
    os << log.day_index << ' ' << r.client << ' ' << r.object << ' '
       << r.units << '\n';
  }
}

namespace {

// A whole token as an unsigned 32-bit decimal: no sign, no fraction, no
// trailing junk, no wrap-around.  `>>` accepts all four.
bool parse_u32(const std::string& token, std::uint32_t& out) {
  const char* last = token.data() + token.size();
  const auto [ptr, ec] = std::from_chars(token.data(), last, out);
  return ec == std::errc() && ptr == last;
}

}  // namespace

DayLog read_day_log(std::istream& is) {
  DayLog log;
  std::string line;
  std::size_t line_number = 0;
  bool first = true;
  while (std::getline(is, line)) {
    ++line_number;
    if (line.empty()) continue;
    const auto fail = [&](const std::string& what) {
      throw std::runtime_error("access log line " +
                               std::to_string(line_number) + ": " + what);
    };
    std::istringstream fields(line);
    std::string token[5];
    std::uint32_t day = 0;
    Request r{};
    if (!(fields >> token[0] >> token[1] >> token[2] >> token[3]) ||
        fields >> token[4] || !parse_u32(token[0], day) ||
        !parse_u32(token[1], r.client) || !parse_u32(token[2], r.object) ||
        !parse_u32(token[3], r.units)) {
      fail("expected 'day client object units' as unsigned integers: " +
           line);
    }
    if (first) {
      log.day_index = day;
      first = false;
    } else if (day != log.day_index) {
      fail("mixed day indices in one log");
    }
    log.requests.push_back(r);
  }
  return log;
}

}  // namespace agtram::trace
