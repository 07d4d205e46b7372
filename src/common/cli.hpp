// Minimal `--flag value` command-line parser for the bench, example and
// tool binaries.  Unknown flags abort with a usage message so typos never
// silently run the default experiment, and a value that does not read as
// its flag's type, or is not one of its flag's listed choices, is refused
// (std::invalid_argument naming the flag and the value) instead of being
// misread.  run_main ends a binary on such a refusal with its reason.
#pragma once

#include <cstdint>
#include <initializer_list>
#include <iosfwd>
#include <limits>
#include <map>
#include <string>
#include <string_view>
#include <vector>

#include "common/parse.hpp"

namespace agtram::common {

class Cli {
 public:
  Cli(std::string program_description);

  /// Register a flag with a default value and help text.  Must be called
  /// before parse().
  void add_flag(const std::string& name, const std::string& default_value,
                const std::string& help);

  /// Parse argv; returns false (after printing usage) on error or --help.
  bool parse(int argc, const char* const* argv);

  /// True when parse() returned false because of --help/-h rather than an
  /// error — callers should exit 0 in that case.
  bool help_requested() const noexcept { return help_requested_; }

  std::string get(const std::string& name) const;
  /// The whole value as an unsigned decimal in the range of `Unsigned`: no
  /// sign, no fraction, no trailing junk.
  template <typename Unsigned>
  Unsigned get_unsigned(const std::string& name) const {
    return to_unsigned<Unsigned>(name, get(name));
  }
  /// The whole value as a finite number.
  double get_double(const std::string& name) const;
  /// 1/true/yes/on or 0/false/no/off.
  bool get_bool(const std::string& name) const;
  /// The value, which must be one of `choices`.
  std::string get_choice(const std::string& name,
                         std::initializer_list<std::string_view> choices) const;

  /// Comma-separated lists, each token read as by get_double or
  /// get_unsigned (empty tokens are skipped), e.g. --caps 0.1,0.2,0.3
  std::vector<double> get_double_list(const std::string& name) const;
  template <typename Unsigned>
  std::vector<Unsigned> get_unsigned_list(const std::string& name) const {
    std::vector<Unsigned> out;
    for (const std::string& token : split_list(name)) {
      out.push_back(to_unsigned<Unsigned>(name, token));
    }
    return out;
  }

  void print_usage(std::ostream& os) const;

 private:
  struct Flag {
    std::string value;
    std::string default_value;
    std::string help;
  };

  template <typename Unsigned>
  static Unsigned to_unsigned(const std::string& name,
                              const std::string& value) {
    Unsigned out{};
    if (!parse_unsigned(value, out)) {
      refuse(name, value,
             "an unsigned integer no larger than " +
                 std::to_string(std::numeric_limits<Unsigned>::max()));
    }
    return out;
  }
  static double to_double(const std::string& name, const std::string& value);
  [[noreturn]] static void refuse(const std::string& name,
                                  const std::string& value,
                                  const std::string& expected);
  std::vector<std::string> split_list(const std::string& name) const;

  std::string description_;
  std::map<std::string, Flag> flags_;
  bool help_requested_ = false;
};

/// Runs `body(argc, argv)` as a binary's main.  An exception it throws (a
/// refused flag value, an unreadable input, an invalid configuration) ends
/// the binary with `<name>: <reason>` on stderr and exit status 1, where
/// <name> is the last path component of argv[0].
int run_main(int argc, char** argv, int (*body)(int, char**));

}  // namespace agtram::common
