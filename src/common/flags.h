// Tiny --key=value command-line parser with environment-variable fallback.
//
// Benches and examples run with no arguments by default; every knob can be
// overridden on the command line (`--scale=0.5`) or via environment
// (`TIRM_SCALE=0.5`). Command line wins over environment wins over default.

#ifndef TIRM_COMMON_FLAGS_H_
#define TIRM_COMMON_FLAGS_H_

#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "common/status.h"

namespace tirm {

/// Parses `--key=value` / `--flag` arguments and exposes typed getters.
class Flags {
 public:
  Flags() = default;

  /// Parses argv; returns InvalidArgument on malformed arguments
  /// (anything not of the form `--key[=value]`).
  [[nodiscard]] Status Parse(int argc, char** argv);

  /// Programmatic construction for non-argv front-ends (the serving
  /// protocol codec): each pair becomes a command-line-level value. With
  /// `use_env` false the TIRM_* environment fallback is disabled, making
  /// every getter a pure function of `pairs` — a served request must not
  /// read the server's environment.
  static Flags FromPairs(
      const std::vector<std::pair<std::string, std::string>>& pairs,
      bool use_env = false);

  /// True if the flag was given on the command line.
  bool Has(const std::string& key) const { return values_.count(key) > 0; }

  /// Keys given on the command line, sorted. Lets binaries with a closed
  /// flag set reject typos (`--epsilon` for `--eps`) instead of silently
  /// running with defaults.
  std::vector<std::string> Keys() const;

  /// Lookup order: command line, then env var `TIRM_<KEY_UPPERCASED>`,
  /// then `default_value`.
  std::string GetString(const std::string& key,
                        const std::string& default_value) const;

  /// Typed getters, same lookup order. A value that is present and
  /// malformed (`--threads=abc`, `--eps=0.1x`, trailing junk, `--eps=`) is
  /// an InvalidArgument error naming the flag, never a silent default.
  [[nodiscard]] Result<double> GetDoubleStrict(const std::string& key,
                                               double default_value) const;
  [[nodiscard]] Result<std::int64_t> GetIntStrict(
      const std::string& key, std::int64_t default_value) const;
  [[nodiscard]] Result<bool> GetBoolStrict(const std::string& key,
                                           bool default_value) const;

  /// Environment variable name used for `key` ("eval_sims" -> "TIRM_EVAL_SIMS").
  static std::string EnvName(const std::string& key);

  /// Parses an entire string as a double; InvalidArgument on empty,
  /// malformed, trailing-junk, or overflowing input. GetDoubleStrict and
  /// comma-list flag parsers (tirm_cli --sweep_lambda) share this so the
  /// strictness rules cannot diverge.
  [[nodiscard]] static Result<double> ParseDouble(const std::string& value);

 private:
  /// Command line, then environment; nullopt when neither is set. Keeps
  /// "unset" distinct from "set to empty" for the strict getters.
  std::optional<std::string> RawValue(const std::string& key) const;

  std::map<std::string, std::string> values_;
  bool use_env_ = true;
};

}  // namespace tirm

#endif  // TIRM_COMMON_FLAGS_H_
