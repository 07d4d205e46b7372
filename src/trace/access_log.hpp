// Access-log model.
//
// The paper replays the Soccer World Cup 1998 web-server logs: thirteen
// Friday (24h) logs, May 1 - July 24 1998, reduced to the objects present in
// every log and the top-500 clients.  The raw trace is not redistributable,
// so src/trace/worldcup.hpp synthesises logs with the same published
// statistics; this header defines the records those logs are made of plus a
// simple text serialisation so the pipeline can also ingest external logs in
// the same shape.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <vector>

namespace agtram::trace {

using ClientId = std::uint32_t;
using ObjectId = std::uint32_t;

/// One GET served by the origin: which client fetched which object and how
/// many data units went over the wire (object size +/- delivery noise).
struct Request {
  ClientId client;
  ObjectId object;
  std::uint32_t units;
};

/// One day's worth of requests (the paper uses 24h Friday logs).
struct DayLog {
  std::uint32_t day_index = 0;
  std::vector<Request> requests;
};

/// Whitespace-separated "day client object units" lines.
void write_day_log(std::ostream& os, const DayLog& log);

/// Parses lines produced by write_day_log; stops at EOF.  Throws
/// std::runtime_error naming the line on anything else: a field count other
/// than four, a field that is not a whole unsigned 32-bit decimal (a sign,
/// a fraction, trailing junk, overflow), or a day index other than the
/// first line's.
DayLog read_day_log(std::istream& is);

}  // namespace agtram::trace
