#pragma once
// Minimal command-line flag parser for the example binaries:
// --key value / --key=value / --flag.

#include <optional>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace mcsn {

class CliArgs {
 public:
  CliArgs(int argc, const char* const* argv);

  /// Value of --key (either "--key value" or "--key=value").
  [[nodiscard]] std::optional<std::string> get(std::string_view key) const;

  [[nodiscard]] std::string get_or(std::string_view key,
                                   std::string fallback) const;

  [[nodiscard]] long get_long_or(std::string_view key, long fallback) const;

  /// True if --key is present (with or without value).
  [[nodiscard]] bool has(std::string_view key) const;

  /// Every --key and its value ("" for a bare flag), in command-line
  /// order.
  [[nodiscard]] const std::vector<std::pair<std::string, std::string>>&
  flags() const {
    return flags_;
  }

  /// Positional (non-flag) arguments.
  [[nodiscard]] const std::vector<std::string>& positional() const {
    return positional_;
  }

 private:
  std::vector<std::pair<std::string, std::string>> flags_;
  std::vector<std::string> positional_;
};

}  // namespace mcsn
