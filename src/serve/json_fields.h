// Strict-JSON field helpers shared by the two NDJSON codecs of serve/
// (protocol.cc for client requests, shard_protocol.cc for the shard-worker
// plane). Internal to serve/: both codecs reject unknown keys and prefix a
// malformed value's error with its field name, in the same words.

#ifndef TIRM_SERVE_JSON_FIELDS_H_
#define TIRM_SERVE_JSON_FIELDS_H_

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

}  // namespace serve
}  // namespace tirm

#endif  // TIRM_SERVE_JSON_FIELDS_H_
