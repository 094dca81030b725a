// Strict-JSON field helpers shared by the two NDJSON codecs of serve/
// (protocol.cc for client requests, shard_protocol.cc for the shard-worker
// plane). Internal to serve/: both codecs reject unknown keys, read and
// range-check integer fields through one reader, and prefix a malformed
// value's error with its field name, in the same words.

#ifndef TIRM_SERVE_JSON_FIELDS_H_
#define TIRM_SERVE_JSON_FIELDS_H_

#include <cstdint>
#include <optional>
#include <set>
#include <string>
#include <string_view>

#include "common/json.h"
#include "common/status.h"

namespace tirm {
namespace serve {

/// `status` with its message prefixed by the name of the field it is about.
inline Status FieldError(std::string_view field, const Status& status) {
  return Status(status.code(), "field \"" + std::string(field) +
                                   "\": " + status.message());
}

/// Closed key sets: an unknown key is a sender bug (or router/worker
/// version skew) the sender must hear about, not a silently ignored field.
/// `where` names the object in the message: unknown key "k" in <where>.
inline Status CheckKnownKeys(const JsonValue& object,
                             const std::set<std::string>& known,
                             std::string_view where) {
  for (const JsonValue::Member& m : object.members()) {
    if (known.count(m.first) == 0) {
      return Status::InvalidArgument("unknown key \"" + m.first + "\" in " +
                                     std::string(where));
    }
  }
  return Status::OK();
}

/// Integer field `key` of `object`, range-checked to [lo, hi]. An absent
/// key yields `absent` when one is given, else a "missing field" error.
inline Result<std::int64_t> IntField(
    const JsonValue& object, const std::string& key, std::int64_t lo,
    std::int64_t hi, std::optional<std::int64_t> absent = std::nullopt) {
  const JsonValue* v = object.Find(key);
  if (v == nullptr) {
    if (absent.has_value()) return *absent;
    return Status::InvalidArgument("missing field \"" + key + "\"");
  }
  Result<std::int64_t> i = v->AsInt();
  if (!i.ok()) return FieldError(key, i.status());
  if (*i < lo || *i > hi) {
    return Status::InvalidArgument("field \"" + key +
                                   "\" out of range: " + std::to_string(*i));
  }
  return i;
}

}  // namespace serve
}  // namespace tirm

#endif  // TIRM_SERVE_JSON_FIELDS_H_
