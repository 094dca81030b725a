#include "common/flags.h"

#include <cctype>
#include <cerrno>
#include <cmath>
#include <cstdlib>
#include <cstring>
#include <optional>

namespace tirm {
namespace {

std::optional<std::string> Lookup(const std::map<std::string, std::string>& m,
                                  const std::string& key) {
  auto it = m.find(key);
  if (it == m.end()) return std::nullopt;
  return it->second;
}

}  // namespace

Status Flags::Parse(int argc, char** argv) {
  for (int i = 1; i < argc; ++i) {
    const char* arg = argv[i];
    if (std::strncmp(arg, "--", 2) != 0) {
      return Status::InvalidArgument(std::string("expected --key[=value], got ") +
                                     arg);
    }
    const char* body = arg + 2;
    const char* eq = std::strchr(body, '=');
    if (eq == nullptr) {
      values_[body] = "true";  // bare --flag means boolean true
    } else {
      values_[std::string(body, eq - body)] = std::string(eq + 1);
    }
  }
  return Status::OK();
}

Flags Flags::FromPairs(
    const std::vector<std::pair<std::string, std::string>>& pairs,
    bool use_env) {
  Flags flags;
  flags.use_env_ = use_env;
  for (const auto& [key, value] : pairs) flags.values_[key] = value;
  return flags;
}

std::string Flags::EnvName(const std::string& key) {
  std::string env = "TIRM_";
  for (char c : key) {
    env += (c == '-') ? '_' : static_cast<char>(std::toupper(static_cast<unsigned char>(c)));
  }
  return env;
}

std::vector<std::string> Flags::Keys() const {
  std::vector<std::string> keys;
  keys.reserve(values_.size());
  for (const auto& [key, unused] : values_) keys.push_back(key);
  return keys;  // std::map iterates sorted
}

std::string Flags::GetString(const std::string& key,
                             const std::string& default_value) const {
  if (auto v = RawValue(key)) return *v;
  return default_value;
}

// Raw present-or-absent lookup for the strict getters: command line, then
// environment. Unlike GetString with a "" default, this distinguishes
// "unset" (nullopt) from "explicitly set to empty" (--eps=), which the
// strict contract must reject rather than silently default.
std::optional<std::string> Flags::RawValue(const std::string& key) const {
  if (auto v = Lookup(values_, key)) return v;
  if (use_env_) {
    if (const char* env = std::getenv(EnvName(key).c_str())) {
      return std::string(env);
    }
  }
  return std::nullopt;
}

Result<double> Flags::ParseDouble(const std::string& value) {
  if (value.empty()) {
    return Status::InvalidArgument("expected a number, got an empty value");
  }
  char* end = nullptr;
  errno = 0;
  const double v = std::strtod(value.c_str(), &end);
  // ERANGE covers both overflow and underflow-to-subnormal; only overflow
  // is an error (1e-320 is a legitimate tiny-threshold value).
  const bool overflow = errno == ERANGE && std::fabs(v) == HUGE_VAL;
  if (end == value.c_str() || *end != '\0' || overflow) {
    return Status::InvalidArgument("expected a number, got \"" + value + "\"");
  }
  return v;
}

Result<double> Flags::GetDoubleStrict(const std::string& key,
                                      double default_value) const {
  const std::optional<std::string> raw = RawValue(key);
  if (!raw.has_value()) return default_value;
  Result<double> parsed = ParseDouble(*raw);
  if (!parsed.ok()) {
    return Status::InvalidArgument("flag --" + key + ": " +
                                   parsed.status().message());
  }
  return parsed;
}

Result<std::int64_t> Flags::GetIntStrict(const std::string& key,
                                         std::int64_t default_value) const {
  const std::optional<std::string> raw = RawValue(key);
  if (!raw.has_value()) return default_value;
  const std::string& s = *raw;
  if (s.empty()) {
    return Status::InvalidArgument(
        "flag --" + key + ": expected an integer, got an empty value");
  }
  char* end = nullptr;
  errno = 0;
  const long long v = std::strtoll(s.c_str(), &end, 10);
  if (end == s.c_str() || *end != '\0' || errno == ERANGE) {
    return Status::InvalidArgument("flag --" + key +
                                   ": expected an integer, got \"" + s + "\"");
  }
  return static_cast<std::int64_t>(v);
}

Result<bool> Flags::GetBoolStrict(const std::string& key,
                                  bool default_value) const {
  const std::optional<std::string> raw = RawValue(key);
  if (!raw.has_value()) return default_value;
  const std::string& s = *raw;
  if (s == "1" || s == "true" || s == "yes" || s == "on") return true;
  if (s == "0" || s == "false" || s == "no" || s == "off") return false;
  return Status::InvalidArgument("flag --" + key +
                                 ": expected a boolean, got \"" + s + "\"");
}

}  // namespace tirm
