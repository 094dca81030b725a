#include "serve/shard_protocol.h"

#include <limits>
#include <set>

#include "common/json.h"
#include "serve/json_fields.h"

namespace tirm {
namespace serve {
namespace {

Result<std::uint64_t> RequireHexU64(const JsonValue& root, const char* key) {
  const JsonValue* v = root.Find(key);
  if (v == nullptr) {
    return Status::InvalidArgument(std::string("missing field \"") + key +
                                   "\"");
  }
  Result<std::string> s = v->AsString();
  if (!s.ok()) return FieldError(key, s.status());
  Result<std::uint64_t> decoded = DecodeHexU64(*s);
  if (!decoded.ok()) return FieldError(key, decoded.status());
  return decoded;
}

// Plain-integer JSON fields stay exact in a double up to 2^53; anything
// that can exceed that travels as a hex string (see the header comment).
constexpr std::int64_t kMaxCount = std::int64_t{1} << 53;

Result<JsonValue> ParseEnvelope(std::string_view line) {
  Result<JsonValue> parsed = ParseJson(line);
  if (!parsed.ok()) return parsed.status();
  if (!parsed->is_object()) {
    return Status::InvalidArgument("shard response must be a JSON object");
  }
  const JsonValue* ok = parsed->Find("ok");
  if (ok == nullptr || !ok->is_bool()) {
    return Status::InvalidArgument("shard response missing \"ok\"");
  }
  if (!ok->AsBool().value()) {
    // In-band error: reconstitute the Status the worker sent.
    std::string code = "Internal";
    std::string message = "shard worker error";
    if (const JsonValue* error = parsed->Find("error");
        error != nullptr && error->is_object()) {
      if (const JsonValue* c = error->Find("code"); c != nullptr) {
        if (Result<std::string> s = c->AsString(); s.ok()) code = *s;
      }
      if (const JsonValue* m = error->Find("message"); m != nullptr) {
        if (Result<std::string> s = m->AsString(); s.ok()) message = *s;
      }
    }
    return Status(StatusCodeFromName(code), message);
  }
  return parsed;
}

}  // namespace

std::string EncodeHexU64(std::uint64_t value) {
  static const char kDigits[] = "0123456789abcdef";
  char buffer[19];  // "0x" + up to 16 digits + NUL
  char* p = buffer + sizeof(buffer) - 1;
  *p = '\0';
  do {
    *--p = kDigits[value & 0xF];
    value >>= 4;
  } while (value != 0);
  *--p = 'x';
  *--p = '0';
  return std::string(p);
}

Result<std::uint64_t> DecodeHexU64(std::string_view text) {
  if (text.size() < 3 || text.size() > 18 || text[0] != '0' ||
      text[1] != 'x') {
    return Status::InvalidArgument("expected \"0x<hex>\" uint64, got \"" +
                                   std::string(text) + "\"");
  }
  std::uint64_t value = 0;
  for (const char c : text.substr(2)) {
    std::uint64_t digit = 0;
    if (c >= '0' && c <= '9') {
      digit = static_cast<std::uint64_t>(c - '0');
    } else if (c >= 'a' && c <= 'f') {
      digit = static_cast<std::uint64_t>(c - 'a') + 10;
    } else if (c >= 'A' && c <= 'F') {
      digit = static_cast<std::uint64_t>(c - 'A') + 10;
    } else {
      return Status::InvalidArgument("bad hex digit in \"" +
                                     std::string(text) + "\"");
    }
    value = value << 4 | digit;
  }
  return value;
}

// ------------------------------------------------------------- requests

std::string FormatBeginRequest(const ShardRunConfig& run, int shard_index,
                               int num_shards) {
  JsonWriter w;
  w.BeginObject();
  w.Field("op", "begin");
  w.Field("num_ads", run.num_ads);
  w.Field("store_seed", EncodeHexU64(run.store_seed));
  w.Field("chunk_sets", run.chunk_sets);
  w.Field("kpt_ell", run.kpt_ell);
  w.Field("kpt_max_samples", run.kpt_max_samples);
  w.Field("shard_index", shard_index);
  w.Field("num_shards", num_shards);
  w.EndObject();
  return w.MoveStr();
}

std::string FormatEnsureRequest(AdId ad, std::uint64_t min_sets,
                                std::uint64_t attached) {
  JsonWriter w;
  w.BeginObject();
  w.Field("op", "ensure");
  w.Field("ad", ad);
  w.Field("min_sets", min_sets);
  w.Field("attached", attached);
  w.EndObject();
  return w.MoveStr();
}

std::string FormatKptRequest(AdId ad, std::uint64_t s) {
  JsonWriter w;
  w.BeginObject();
  w.Field("op", "kpt");
  w.Field("ad", ad);
  w.Field("s", s);
  w.EndObject();
  return w.MoveStr();
}

std::string FormatAttachRequest(AdId ad, std::uint64_t count) {
  JsonWriter w;
  w.BeginObject();
  w.Field("op", "attach");
  w.Field("ad", ad);
  w.Field("count", count);
  w.EndObject();
  return w.MoveStr();
}

std::string FormatSummaryRequest(AdId ad, std::uint32_t top_l) {
  JsonWriter w;
  w.BeginObject();
  w.Field("op", "summary");
  w.Field("ad", ad);
  w.Field("top_l", std::uint64_t{top_l});
  w.EndObject();
  return w.MoveStr();
}

std::string FormatCountsRequest(AdId ad, std::span<const NodeId> nodes) {
  JsonWriter w;
  w.BeginObject();
  w.Field("op", "counts");
  w.Field("ad", ad);
  w.Key("nodes");
  w.BeginArray();
  for (const NodeId v : nodes) w.Uint(v);
  w.EndArray();
  w.EndObject();
  return w.MoveStr();
}

std::string FormatDenseRequest(AdId ad) {
  JsonWriter w;
  w.BeginObject();
  w.Field("op", "dense");
  w.Field("ad", ad);
  w.EndObject();
  return w.MoveStr();
}

std::string FormatCommitRequest(AdId ad, NodeId node) {
  JsonWriter w;
  w.BeginObject();
  w.Field("op", "commit");
  w.Field("ad", ad);
  w.Field("node", std::uint64_t{node});
  w.EndObject();
  return w.MoveStr();
}

std::string FormatCommitRangeRequest(AdId ad, NodeId node,
                                     std::uint64_t first_set) {
  JsonWriter w;
  w.BeginObject();
  w.Field("op", "commit_range");
  w.Field("ad", ad);
  w.Field("node", std::uint64_t{node});
  w.Field("first_set", first_set);
  w.EndObject();
  return w.MoveStr();
}

std::string FormatRetireRequest(NodeId node) {
  JsonWriter w;
  w.BeginObject();
  w.Field("op", "retire");
  w.Field("node", std::uint64_t{node});
  w.EndObject();
  return w.MoveStr();
}

std::string FormatMemoryRequest() {
  JsonWriter w;
  w.BeginObject();
  w.Field("op", "memory");
  w.EndObject();
  return w.MoveStr();
}

Result<ShardOpRequest> ParseShardRequest(std::string_view line) {
  Result<JsonValue> parsed = ParseJson(line);
  if (!parsed.ok()) return parsed.status();
  const JsonValue& root = *parsed;
  if (!root.is_object()) {
    return Status::InvalidArgument("shard request must be a JSON object");
  }
  const JsonValue* op_value = root.Find("op");
  if (op_value == nullptr) {
    return Status::InvalidArgument("shard request missing \"op\"");
  }
  Result<std::string> op = op_value->AsString();
  if (!op.ok()) return FieldError("op", op.status());

  ShardOpRequest request;
  request.op = *op;
  const std::string where = "shard op \"" + request.op + "\"";

  const auto require_ad = [&root, &request]() -> Status {
    Result<std::int64_t> ad =
        IntField(root, "ad", 0, std::numeric_limits<AdId>::max());
    if (!ad.ok()) return ad.status();
    request.ad = static_cast<AdId>(*ad);
    return Status::OK();
  };
  const auto require_node = [&root, &request]() -> Status {
    Result<std::int64_t> node =
        IntField(root, "node", 0, std::numeric_limits<NodeId>::max());
    if (!node.ok()) return node.status();
    request.node = static_cast<NodeId>(*node);
    return Status::OK();
  };

  if (request.op == "begin") {
    static const std::set<std::string> kKeys = {
        "op",      "num_ads",         "store_seed",  "chunk_sets",
        "kpt_ell", "kpt_max_samples", "shard_index", "num_shards"};
    TIRM_RETURN_NOT_OK(CheckKnownKeys(root, kKeys, where));
    Result<std::int64_t> num_ads = IntField(root, "num_ads", 0, 1 << 20);
    if (!num_ads.ok()) return num_ads.status();
    request.run.num_ads = static_cast<int>(*num_ads);
    Result<std::uint64_t> seed = RequireHexU64(root, "store_seed");
    if (!seed.ok()) return seed.status();
    request.run.store_seed = *seed;
    Result<std::int64_t> chunk = IntField(root, "chunk_sets", 1, kMaxCount);
    if (!chunk.ok()) return chunk.status();
    request.run.chunk_sets = static_cast<std::uint64_t>(*chunk);
    const JsonValue* ell = root.Find("kpt_ell");
    if (ell == nullptr) {
      return Status::InvalidArgument("missing field \"kpt_ell\"");
    }
    Result<double> ell_value = ell->AsDouble();
    if (!ell_value.ok()) return FieldError("kpt_ell", ell_value.status());
    request.run.kpt_ell = *ell_value;
    Result<std::int64_t> kpt_max =
        IntField(root, "kpt_max_samples", 1, kMaxCount);
    if (!kpt_max.ok()) return kpt_max.status();
    request.run.kpt_max_samples = static_cast<std::uint64_t>(*kpt_max);
    Result<std::int64_t> shard = IntField(root, "shard_index", 0, 63);
    if (!shard.ok()) return shard.status();
    request.shard_index = static_cast<int>(*shard);
    Result<std::int64_t> shards = IntField(root, "num_shards", 1, 64);
    if (!shards.ok()) return shards.status();
    request.num_shards = static_cast<int>(*shards);
    if (request.shard_index >= request.num_shards) {
      return Status::InvalidArgument("shard_index >= num_shards");
    }
    return request;
  }
  if (request.op == "ensure") {
    static const std::set<std::string> kKeys = {"op", "ad", "min_sets",
                                                "attached"};
    TIRM_RETURN_NOT_OK(CheckKnownKeys(root, kKeys, where));
    TIRM_RETURN_NOT_OK(require_ad());
    Result<std::int64_t> min_sets = IntField(root, "min_sets", 0, kMaxCount);
    if (!min_sets.ok()) return min_sets.status();
    request.min_sets = static_cast<std::uint64_t>(*min_sets);
    Result<std::int64_t> attached = IntField(root, "attached", 0, kMaxCount);
    if (!attached.ok()) return attached.status();
    request.attached = static_cast<std::uint64_t>(*attached);
    return request;
  }
  if (request.op == "kpt") {
    static const std::set<std::string> kKeys = {"op", "ad", "s"};
    TIRM_RETURN_NOT_OK(CheckKnownKeys(root, kKeys, where));
    TIRM_RETURN_NOT_OK(require_ad());
    Result<std::int64_t> s = IntField(root, "s", 1, kMaxCount);
    if (!s.ok()) return s.status();
    request.s = static_cast<std::uint64_t>(*s);
    return request;
  }
  if (request.op == "attach") {
    static const std::set<std::string> kKeys = {"op", "ad", "count"};
    TIRM_RETURN_NOT_OK(CheckKnownKeys(root, kKeys, where));
    TIRM_RETURN_NOT_OK(require_ad());
    Result<std::int64_t> count = IntField(root, "count", 0, kMaxCount);
    if (!count.ok()) return count.status();
    request.count = static_cast<std::uint64_t>(*count);
    return request;
  }
  if (request.op == "summary") {
    static const std::set<std::string> kKeys = {"op", "ad", "top_l"};
    TIRM_RETURN_NOT_OK(CheckKnownKeys(root, kKeys, where));
    TIRM_RETURN_NOT_OK(require_ad());
    Result<std::int64_t> top_l = IntField(root, "top_l", 0, 0xFFFFFFFFll);
    if (!top_l.ok()) return top_l.status();
    request.top_l = static_cast<std::uint32_t>(*top_l);
    return request;
  }
  if (request.op == "counts") {
    static const std::set<std::string> kKeys = {"op", "ad", "nodes"};
    TIRM_RETURN_NOT_OK(CheckKnownKeys(root, kKeys, where));
    TIRM_RETURN_NOT_OK(require_ad());
    const JsonValue* nodes = root.Find("nodes");
    if (nodes == nullptr || !nodes->is_array()) {
      return Status::InvalidArgument("\"counts\" needs a \"nodes\" array");
    }
    request.nodes.reserve(nodes->size());
    for (std::size_t i = 0; i < nodes->size(); ++i) {
      Result<std::int64_t> v = (*nodes)[i].AsInt();
      if (!v.ok()) return FieldError("nodes", v.status());
      if (*v < 0 || *v > std::numeric_limits<NodeId>::max()) {
        return Status::InvalidArgument("node id out of range");
      }
      request.nodes.push_back(static_cast<NodeId>(*v));
    }
    return request;
  }
  if (request.op == "dense") {
    static const std::set<std::string> kKeys = {"op", "ad"};
    TIRM_RETURN_NOT_OK(CheckKnownKeys(root, kKeys, where));
    TIRM_RETURN_NOT_OK(require_ad());
    return request;
  }
  if (request.op == "commit") {
    static const std::set<std::string> kKeys = {"op", "ad", "node"};
    TIRM_RETURN_NOT_OK(CheckKnownKeys(root, kKeys, where));
    TIRM_RETURN_NOT_OK(require_ad());
    TIRM_RETURN_NOT_OK(require_node());
    return request;
  }
  if (request.op == "commit_range") {
    static const std::set<std::string> kKeys = {"op", "ad", "node",
                                                "first_set"};
    TIRM_RETURN_NOT_OK(CheckKnownKeys(root, kKeys, where));
    TIRM_RETURN_NOT_OK(require_ad());
    TIRM_RETURN_NOT_OK(require_node());
    Result<std::int64_t> first = IntField(root, "first_set", 0, kMaxCount);
    if (!first.ok()) return first.status();
    request.first_set = static_cast<std::uint64_t>(*first);
    return request;
  }
  if (request.op == "retire") {
    static const std::set<std::string> kKeys = {"op", "node"};
    TIRM_RETURN_NOT_OK(CheckKnownKeys(root, kKeys, where));
    TIRM_RETURN_NOT_OK(require_node());
    return request;
  }
  if (request.op == "memory") {
    static const std::set<std::string> kKeys = {"op"};
    TIRM_RETURN_NOT_OK(CheckKnownKeys(root, kKeys, where));
    return request;
  }
  return Status::InvalidArgument("unknown shard op \"" + request.op + "\"");
}

// ------------------------------------------------------------ responses

std::string FormatShardErrorResponse(const Status& status) {
  JsonWriter w;
  w.BeginObject();
  w.Field("ok", false);
  w.Key("error");
  w.BeginObject();
  w.Field("code", StatusCodeName(status.code()));
  w.Field("message", status.message());
  w.EndObject();
  w.EndObject();
  return w.MoveStr();
}

std::string FormatOkResponse() {
  JsonWriter w;
  w.BeginObject();
  w.Field("ok", true);
  w.EndObject();
  return w.MoveStr();
}

std::string FormatBeginResponse(int shard_index, int num_shards) {
  JsonWriter w;
  w.BeginObject();
  w.Field("ok", true);
  w.Field("shard_index", shard_index);
  w.Field("num_shards", num_shards);
  w.EndObject();
  return w.MoveStr();
}

std::string FormatEnsureResponse(const RrSampleStore::EnsureResult& ensured) {
  JsonWriter w;
  w.BeginObject();
  w.Field("ok", true);
  w.Field("had_before", ensured.had_before);
  w.Field("sampled", ensured.sampled);
  w.Field("reused", ensured.reused);
  w.Field("max_traversal", ensured.max_traversal);
  w.EndObject();
  return w.MoveStr();
}

std::string FormatKptResponse(double kpt, bool cache_hit) {
  JsonWriter w;
  w.BeginObject();
  w.Field("ok", true);
  w.Field("kpt", kpt);
  w.Field("cache_hit", cache_hit);
  w.EndObject();
  return w.MoveStr();
}

std::string FormatSummaryResponse(const ShardGainSummary& summary) {
  JsonWriter w;
  w.BeginObject();
  w.Field("ok", true);
  w.Field("shard", summary.shard);
  w.Key("top");
  w.BeginArray();
  for (const ShardGainCandidate& c : summary.top) {
    w.BeginArray();
    w.Uint(c.node);
    w.Uint(c.coverage);
    w.EndArray();
  }
  w.EndArray();
  w.Field("unlisted_bound", std::uint64_t{summary.unlisted_bound});
  w.EndObject();
  return w.MoveStr();
}

std::string FormatCountsResponse(const std::vector<std::uint32_t>& counts) {
  JsonWriter w;
  w.BeginObject();
  w.Field("ok", true);
  w.Key("counts");
  w.BeginArray();
  for (const std::uint32_t c : counts) w.Uint(c);
  w.EndArray();
  w.EndObject();
  return w.MoveStr();
}

std::string FormatCommitResponse(std::uint64_t newly_covered) {
  JsonWriter w;
  w.BeginObject();
  w.Field("ok", true);
  w.Field("newly_covered", newly_covered);
  w.EndObject();
  return w.MoveStr();
}

std::string FormatMemoryResponse(const ShardMemoryStats& stats) {
  JsonWriter w;
  w.BeginObject();
  w.Field("ok", true);
  w.Field("arena_bytes", std::uint64_t{stats.arena_bytes});
  w.Field("view_bytes", std::uint64_t{stats.view_bytes});
  w.EndObject();
  return w.MoveStr();
}

Status ParseStatusResponse(std::string_view line) {
  return ParseEnvelope(line).status();
}

Result<RrSampleStore::EnsureResult> ParseEnsureResponse(
    std::string_view line) {
  Result<JsonValue> root = ParseEnvelope(line);
  if (!root.ok()) return root.status();
  RrSampleStore::EnsureResult ensured;
  const struct {
    const char* key;
    std::uint64_t* out;
  } fields[] = {{"had_before", &ensured.had_before},
                {"sampled", &ensured.sampled},
                {"reused", &ensured.reused},
                {"max_traversal", &ensured.max_traversal}};
  for (const auto& field : fields) {
    Result<std::int64_t> v = IntField(*root, field.key, 0, kMaxCount);
    if (!v.ok()) return v.status();
    *field.out = static_cast<std::uint64_t>(*v);
  }
  return ensured;
}

Result<KptResponse> ParseKptResponse(std::string_view line) {
  Result<JsonValue> root = ParseEnvelope(line);
  if (!root.ok()) return root.status();
  KptResponse response;
  const JsonValue* kpt = root->Find("kpt");
  if (kpt == nullptr) {
    return Status::InvalidArgument("kpt response missing \"kpt\"");
  }
  Result<double> value = kpt->AsDouble();
  if (!value.ok()) return FieldError("kpt", value.status());
  response.kpt = *value;
  if (const JsonValue* hit = root->Find("cache_hit"); hit != nullptr) {
    Result<bool> b = hit->AsBool();
    if (!b.ok()) return FieldError("cache_hit", b.status());
    response.cache_hit = *b;
  }
  return response;
}

Result<ShardGainSummary> ParseSummaryResponse(std::string_view line) {
  Result<JsonValue> root = ParseEnvelope(line);
  if (!root.ok()) return root.status();
  ShardGainSummary summary;
  Result<std::int64_t> shard = IntField(*root, "shard", 0, 63);
  if (!shard.ok()) return shard.status();
  summary.shard = static_cast<int>(*shard);
  const JsonValue* top = root->Find("top");
  if (top == nullptr || !top->is_array()) {
    return Status::InvalidArgument("summary response needs a \"top\" array");
  }
  summary.top.reserve(top->size());
  for (std::size_t i = 0; i < top->size(); ++i) {
    const JsonValue& pair = (*top)[i];
    if (!pair.is_array() || pair.size() != 2) {
      return Status::InvalidArgument("summary \"top\" entries are [node,cov]");
    }
    Result<std::int64_t> node = pair[0].AsInt();
    if (!node.ok()) return FieldError("top", node.status());
    Result<std::int64_t> coverage = pair[1].AsInt();
    if (!coverage.ok()) return FieldError("top", coverage.status());
    if (*node < 0 || *node > std::numeric_limits<NodeId>::max() ||
        *coverage < 0 || *coverage > 0xFFFFFFFFll) {
      return Status::InvalidArgument("summary \"top\" entry out of range");
    }
    summary.top.push_back(
        {static_cast<NodeId>(*node), static_cast<std::uint32_t>(*coverage)});
  }
  Result<std::int64_t> bound =
      IntField(*root, "unlisted_bound", 0, 0xFFFFFFFFll);
  if (!bound.ok()) return bound.status();
  summary.unlisted_bound = static_cast<std::uint32_t>(*bound);
  return summary;
}

Result<std::vector<std::uint32_t>> ParseCountsResponse(std::string_view line) {
  Result<JsonValue> root = ParseEnvelope(line);
  if (!root.ok()) return root.status();
  const JsonValue* counts = root->Find("counts");
  if (counts == nullptr || !counts->is_array()) {
    return Status::InvalidArgument("counts response needs a \"counts\" array");
  }
  std::vector<std::uint32_t> out;
  out.reserve(counts->size());
  for (std::size_t i = 0; i < counts->size(); ++i) {
    Result<std::int64_t> v = (*counts)[i].AsInt();
    if (!v.ok()) return FieldError("counts", v.status());
    if (*v < 0 || *v > 0xFFFFFFFFll) {
      return Status::InvalidArgument("coverage count out of range");
    }
    out.push_back(static_cast<std::uint32_t>(*v));
  }
  return out;
}

Result<std::uint64_t> ParseCommitResponse(std::string_view line) {
  Result<JsonValue> root = ParseEnvelope(line);
  if (!root.ok()) return root.status();
  Result<std::int64_t> newly = IntField(*root, "newly_covered", 0, kMaxCount);
  if (!newly.ok()) return newly.status();
  return static_cast<std::uint64_t>(*newly);
}

Result<ShardMemoryStats> ParseMemoryResponse(std::string_view line) {
  Result<JsonValue> root = ParseEnvelope(line);
  if (!root.ok()) return root.status();
  ShardMemoryStats stats;
  Result<std::int64_t> arena = IntField(*root, "arena_bytes", 0, kMaxCount);
  if (!arena.ok()) return arena.status();
  stats.arena_bytes = static_cast<std::size_t>(*arena);
  Result<std::int64_t> view = IntField(*root, "view_bytes", 0, kMaxCount);
  if (!view.ok()) return view.status();
  stats.view_bytes = static_cast<std::size_t>(*view);
  return stats;
}

}  // namespace serve
}  // namespace tirm
