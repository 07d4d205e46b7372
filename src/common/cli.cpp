#include "common/cli.hpp"

#include <charconv>
#include <cmath>
#include <iostream>
#include <sstream>
#include <stdexcept>
#include <system_error>

namespace agtram::common {

Cli::Cli(std::string program_description)
    : description_(std::move(program_description)) {}

void Cli::add_flag(const std::string& name, const std::string& default_value,
                   const std::string& help) {
  flags_[name] = Flag{default_value, default_value, help};
}

bool Cli::parse(int argc, const char* const* argv) {
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg == "--help" || arg == "-h") {
      help_requested_ = true;
      print_usage(std::cout);
      return false;
    }
    if (arg.rfind("--", 0) != 0) {
      std::cerr << "unexpected positional argument: " << arg << "\n";
      print_usage(std::cerr);
      return false;
    }
    std::string name = arg.substr(2);
    std::string value;
    const auto eq = name.find('=');
    if (eq != std::string::npos) {
      value = name.substr(eq + 1);
      name = name.substr(0, eq);
    } else if (i + 1 < argc) {
      value = argv[++i];
    } else {
      std::cerr << "missing value for flag --" << name << "\n";
      print_usage(std::cerr);
      return false;
    }
    auto it = flags_.find(name);
    if (it == flags_.end()) {
      std::cerr << "unknown flag --" << name << "\n";
      print_usage(std::cerr);
      return false;
    }
    it->second.value = value;
  }
  return true;
}

std::string Cli::get(const std::string& name) const {
  auto it = flags_.find(name);
  if (it == flags_.end()) {
    throw std::invalid_argument("unregistered flag: " + name);
  }
  return it->second.value;
}

void Cli::refuse(const std::string& name, const std::string& value,
                 const std::string& expected) {
  throw std::invalid_argument("--" + name + " '" + value + "': expected " +
                              expected);
}

double Cli::to_double(const std::string& name, const std::string& value) {
  double out = 0.0;
  const char* const last = value.data() + value.size();
  const auto [ptr, ec] = std::from_chars(value.data(), last, out);
  if (ec != std::errc() || ptr != last || !std::isfinite(out)) {
    refuse(name, value, "a finite number");
  }
  return out;
}

std::vector<std::string> Cli::split_list(const std::string& name) const {
  std::vector<std::string> tokens;
  std::stringstream ss(get(name));
  std::string token;
  while (std::getline(ss, token, ',')) {
    if (!token.empty()) tokens.push_back(token);
  }
  return tokens;
}

double Cli::get_double(const std::string& name) const {
  return to_double(name, get(name));
}

bool Cli::get_bool(const std::string& name) const {
  const std::string v =
      get_choice(name, {"1", "true", "yes", "on", "0", "false", "no", "off"});
  return v == "1" || v == "true" || v == "yes" || v == "on";
}

std::string Cli::get_choice(
    const std::string& name,
    std::initializer_list<std::string_view> choices) const {
  std::string v = get(name);
  std::string listed;
  for (const std::string_view choice : choices) {
    if (v == choice) return v;
    if (!listed.empty()) listed += ", ";
    listed += choice;
  }
  refuse(name, v, "one of " + listed);
}

std::vector<double> Cli::get_double_list(const std::string& name) const {
  std::vector<double> out;
  for (const std::string& token : split_list(name)) {
    out.push_back(to_double(name, token));
  }
  return out;
}

void Cli::print_usage(std::ostream& os) const {
  os << description_ << "\n\nflags:\n";
  for (const auto& [name, flag] : flags_) {
    os << "  --" << name << " (default: " << flag.default_value << ")\n      "
       << flag.help << "\n";
  }
}

int run_main(int argc, char** argv, int (*body)(int, char**)) {
  try {
    return body(argc, argv);
  } catch (const std::exception& e) {
    const std::string_view path = argc > 0 ? argv[0] : "";
    std::cerr << path.substr(path.find_last_of('/') + 1) << ": " << e.what()
              << "\n";
    return 1;
  }
}

}  // namespace agtram::common
