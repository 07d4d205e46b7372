#include "trace/access_log.hpp"

#include <cstdint>
#include <istream>
#include <ostream>
#include <sstream>
#include <stdexcept>
#include <string>

#include "common/parse.hpp"

namespace agtram::trace {

void write_day_log(std::ostream& os, const DayLog& log) {
  for (const Request& r : log.requests) {
    os << log.day_index << ' ' << r.client << ' ' << r.object << ' '
       << r.units << '\n';
  }
}

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
        fields >> token[4] || !common::parse_unsigned(token[0], day) ||
        !common::parse_unsigned(token[1], r.client) ||
        !common::parse_unsigned(token[2], r.object) ||
        !common::parse_unsigned(token[3], r.units)) {
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
