#include "serve/protocol.h"

#include <cmath>
#include <cstdint>
#include <limits>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "common/json.h"
#include "obs/metrics_registry.h"
#include "serve/json_fields.h"

namespace tirm {
namespace serve {
namespace {

// The closed key sets of the wire format — an unknown key is a client bug
// the client must hear about, not a silently ignored field (same policy as
// tirm_cli's flag set).
const std::set<std::string>& RequestKeys() {
  static const std::set<std::string> kKeys = {
      "id", "allocator", "config", "query", "timeout_ms", "profile", "stats"};
  return kKeys;
}

Result<bool> MemberBool(const JsonValue& obj, const std::string& key,
                        bool def) {
  const JsonValue* v = obj.Find(key);
  if (v == nullptr) return def;
  Result<bool> b = v->AsBool();
  if (!b.ok()) return FieldError(key, b.status());
  return b;
}

}  // namespace

const std::set<std::string>& RequestQueryKeys() {
  static const std::set<std::string> kKeys = {"kappa", "lambda", "beta",
                                              "budget_scale"};
  return kKeys;
}

const std::set<std::string>& RequestConfigKeys() {
  static const std::set<std::string> kKeys = {
      "max_total_seeds", "min_drop", "eps", "ell", "theta_cap", "theta_min",
      "kpt_max_samples", "threads", "weight_by_ctp",
      "exact_selection_fallback", "ctp_aware_coverage", "num_shards",
      "irie_alpha", "irie_rank_iterations",
      "irie_ap_truncation", "irie_max_push_hops", "mc_sims"};
  return kKeys;
}

namespace {

/// Bridges a flat JSON object to Flags pairs so the request reuses the
/// exact strict parsers of the command line. Numbers contribute their raw
/// source token (no double round-trip loss), booleans "true"/"false".
Result<std::vector<std::pair<std::string, std::string>>> ToFlagPairs(
    const JsonValue& object, const char* where) {
  std::vector<std::pair<std::string, std::string>> pairs;
  pairs.reserve(object.members().size());
  for (const JsonValue::Member& m : object.members()) {
    std::string value;
    if (m.second.is_number()) {
      value = m.second.raw_number();
    } else if (m.second.is_bool()) {
      value = m.second.AsBool().value() ? "true" : "false";
    } else if (m.second.is_string()) {
      value = m.second.AsString().value();
    } else {
      return Status::InvalidArgument(std::string("key \"") + m.first +
                                     "\" in " + where +
                                     " must be a number, boolean, or string");
    }
    pairs.emplace_back(m.first, std::move(value));
  }
  return pairs;
}

void WriteQuery(JsonWriter& w, const EngineQuery& query) {
  w.BeginObject();
  w.Field("kappa", query.kappa);
  w.Field("lambda", query.lambda);
  w.Field("beta", query.beta);
  w.Field("budget_scale", query.budget_scale);
  w.EndObject();
}

void WriteConfig(JsonWriter& w, const AllocatorConfig& c) {
  w.BeginObject();
  w.Field("max_total_seeds", c.max_total_seeds);
  w.Field("min_drop", c.min_drop);
  w.Field("eps", c.eps);
  w.Field("ell", c.ell);
  w.Field("theta_cap", std::uint64_t{c.theta_cap});
  w.Field("theta_min", std::uint64_t{c.theta_min});
  w.Field("kpt_max_samples", std::uint64_t{c.kpt_max_samples});
  w.Field("threads", c.num_threads);
  w.Field("weight_by_ctp", c.weight_by_ctp);
  w.Field("exact_selection_fallback", c.exact_selection_fallback);
  w.Field("ctp_aware_coverage", c.ctp_aware_coverage);
  w.Field("num_shards", c.num_shards);
  w.Field("irie_alpha", c.irie_alpha);
  w.Field("irie_rank_iterations", c.irie_rank_iterations);
  w.Field("irie_ap_truncation", c.irie_ap_truncation);
  w.Field("irie_max_push_hops", c.irie_max_push_hops);
  w.Field("mc_sims", c.mc_sims);
  w.EndObject();
}

// -- ParseResponse helpers: tolerant member readers (absent -> default).

Result<double> MemberDouble(const JsonValue& obj, const std::string& key,
                            double def) {
  const JsonValue* v = obj.Find(key);
  if (v == nullptr) return def;
  Result<double> d = v->AsDouble();
  if (!d.ok()) return FieldError(key, d.status());
  return d;
}

Result<std::string> MemberString(const JsonValue& obj, const std::string& key,
                                 std::string def) {
  const JsonValue* v = obj.Find(key);
  if (v == nullptr) return def;
  Result<std::string> s = v->AsString();
  if (!s.ok()) return FieldError(key, s.status());
  return s;
}

}  // namespace

Result<AllocationRequest> ParseRequest(std::string_view line,
                                       const AllocationRequest& defaults) {
  Result<JsonValue> parsed = ParseJson(line);
  if (!parsed.ok()) return parsed.status();
  const JsonValue& root = *parsed;
  if (!root.is_object()) {
    return Status::InvalidArgument("request must be a JSON object");
  }
  TIRM_RETURN_NOT_OK(CheckKnownKeys(root, RequestKeys(), "the request"));

  AllocationRequest request = defaults;
  request.config.sample_store = nullptr;  // serving engines own the stores
  request.config.sample_store_seed = 0;

  Result<std::string> id = MemberString(root, "id", defaults.id);
  if (!id.ok()) return id.status();
  request.id = *id;

  if (const JsonValue* config = root.Find("config")) {
    if (!config->is_object()) {
      return Status::InvalidArgument("\"config\" must be a JSON object");
    }
    TIRM_RETURN_NOT_OK(CheckKnownKeys(*config, RequestConfigKeys(), "\"config\""));
    Result<std::vector<std::pair<std::string, std::string>>> pairs =
        ToFlagPairs(*config, "\"config\"");
    if (!pairs.ok()) return pairs.status();
    // Reuse the command-line parsers verbatim, minus the environment: a
    // request must mean the same thing under any server environment.
    Result<AllocatorConfig> parsed_config = AllocatorConfig::FromFlags(
        Flags::FromPairs(*pairs, /*use_env=*/false), request.config);
    if (!parsed_config.ok()) return parsed_config.status();
    request.config = parsed_config.MoveValue();
  }

  Result<std::string> allocator =
      MemberString(root, "allocator", request.config.allocator);
  if (!allocator.ok()) return allocator.status();
  request.config.allocator = *allocator;
  TIRM_RETURN_NOT_OK(request.config.Validate());

  if (const JsonValue* query = root.Find("query")) {
    if (!query->is_object()) {
      return Status::InvalidArgument("\"query\" must be a JSON object");
    }
    TIRM_RETURN_NOT_OK(CheckKnownKeys(*query, RequestQueryKeys(), "\"query\""));
    Result<std::vector<std::pair<std::string, std::string>>> pairs =
        ToFlagPairs(*query, "\"query\"");
    if (!pairs.ok()) return pairs.status();
    Result<EngineQuery> parsed_query = EngineQuery::FromFlags(
        Flags::FromPairs(*pairs, /*use_env=*/false), request.query);
    if (!parsed_query.ok()) return parsed_query.status();
    request.query = *parsed_query;
  }

  Result<double> timeout = MemberDouble(root, "timeout_ms", defaults.timeout_ms);
  if (!timeout.ok()) return timeout.status();
  if (!(*timeout >= 0.0) || !std::isfinite(*timeout)) {  // rejects NaN too
    return Status::InvalidArgument(
        "\"timeout_ms\" must be finite and non-negative");
  }
  request.timeout_ms = *timeout;

  Result<bool> profile = MemberBool(root, "profile", defaults.profile);
  if (!profile.ok()) return profile.status();
  request.profile = *profile;
  Result<bool> stats = MemberBool(root, "stats", defaults.stats);
  if (!stats.ok()) return stats.status();
  request.stats = *stats;
  return request;
}

std::string RecoverRequestId(std::string_view line) {
  Result<JsonValue> parsed = ParseJson(line);
  if (!parsed.ok() || !parsed->is_object()) return "";
  const JsonValue* id = parsed->Find("id");
  if (id == nullptr || !id->is_string()) return "";
  return id->AsString().value();
}

std::string FormatRequest(const AllocationRequest& request) {
  JsonWriter w;
  w.BeginObject();
  w.Field("id", request.id);
  w.Field("allocator", request.config.allocator);
  w.Field("timeout_ms", request.timeout_ms);
  // Emitted only when set: the flags default to false on both ends, so
  // omission round-trips and pre-existing goldens stay byte-stable.
  if (request.profile) w.Field("profile", true);
  if (request.stats) w.Field("stats", true);
  w.Key("query");
  WriteQuery(w, request.query);
  w.Key("config");
  WriteConfig(w, request.config);
  w.EndObject();
  return w.MoveStr();
}

std::string FormatResponse(const AllocationResponse& response) {
  JsonWriter w;
  w.BeginObject();
  w.Field("id", response.id);
  w.Field("ok", response.status.ok());
  if (response.worker >= 0) w.Field("worker", response.worker);
  w.Field("queue_ms", response.queue_ms);
  w.Field("serve_ms", response.serve_ms);
  if (!response.status.ok()) {
    w.Key("error");
    w.BeginObject();
    w.Field("code", StatusCodeName(response.status.code()));
    w.Field("message", response.status.message());
    w.EndObject();
    w.EndObject();
    return w.MoveStr();
  }

  const AllocationResult& result = response.run.result;
  w.Field("allocator", result.allocator);
  w.Key("allocation");
  w.BeginObject();
  w.Key("seeds");
  w.BeginArray();
  for (const std::vector<NodeId>& ad_seeds : result.allocation.seeds) {
    w.BeginArray();
    for (const NodeId v : ad_seeds) w.Uint(v);
    w.EndArray();
  }
  w.EndArray();
  w.Field("total_seeds", result.allocation.TotalSeeds());
  w.EndObject();

  w.Key("result");
  w.BeginObject();
  w.Field("seconds", result.seconds);
  w.Field("iterations", result.iterations);
  w.Field("total_rr_sets", std::uint64_t{result.total_rr_sets});
  w.Field("rr_memory_bytes", result.rr_memory_bytes);
  w.Field("total_estimated_revenue", result.TotalEstimatedRevenue());
  w.EndObject();

  const RegretReport& report = response.run.report;
  if (!report.ads.empty()) {  // evaluation ran
    w.Key("report");
    w.BeginObject();
    w.Field("total_regret", report.total_regret);
    w.Field("total_budget_regret", report.total_budget_regret);
    w.Field("total_seed_regret", report.total_seed_regret);
    w.Field("total_revenue", report.total_revenue);
    w.Field("total_budget", report.total_budget);
    w.Field("total_seeds", report.total_seeds);
    w.Field("distinct_targeted", report.distinct_targeted);
    w.EndObject();
  }

  if (!response.profile.empty()) {
    w.Key("profile");
    w.BeginArray();
    for (const StageTiming& stage : response.profile) {
      w.BeginObject();
      w.Field("name", stage.name);
      w.Field("count", stage.count);
      w.Field("total_ms", stage.total_ms);
      w.EndObject();
    }
    w.EndArray();
  }

  const SampleCacheStats& cache = result.cache;
  w.Key("cache");
  w.BeginObject();
  w.Field("reused_sets", std::uint64_t{cache.reused_sets});
  w.Field("sampled_sets", std::uint64_t{cache.sampled_sets});
  w.Field("top_ups", std::uint64_t{cache.top_ups});
  w.Field("kpt_cache_hits", std::uint64_t{cache.kpt_cache_hits});
  w.Field("kpt_estimations", std::uint64_t{cache.kpt_estimations});
  w.Field("arena_bytes", cache.arena_bytes);
  w.Field("view_bytes", cache.view_bytes);
  w.Field("shared_store", cache.shared_store);
  w.Field("max_traversal", std::uint64_t{cache.max_traversal});
  w.EndObject();

  w.EndObject();
  return w.MoveStr();
}

std::string FormatErrorResponse(const std::string& id, const Status& status) {
  AllocationResponse response;
  response.id = id;
  response.status = status.ok()
                        ? Status::Internal("error response with OK status")
                        : status;
  return FormatResponse(response);
}

std::string FormatStatsResponse(const std::string& id,
                                const AllocationService& service) {
  JsonValue root = JsonValue::Object();
  root.Set("id", JsonValue::String(id));
  root.Set("ok", JsonValue::Bool(true));
  JsonValue stats = service.StatsJson();
  stats.Set("registry", obs::MetricsRegistry::Global().ToJson());
  root.Set("stats", std::move(stats));
  return root.Dump();
}

Result<AllocationResponse> ParseResponse(std::string_view line) {
  Result<JsonValue> parsed = ParseJson(line);
  if (!parsed.ok()) return parsed.status();
  const JsonValue& root = *parsed;
  if (!root.is_object()) {
    return Status::InvalidArgument("response must be a JSON object");
  }

  // Counts FormatResponse writes from unsigned fields; absent reads as 0.
  const auto read_count = [](const JsonValue& obj, const std::string& key) {
    return IntField(obj, key, 0, std::numeric_limits<std::int64_t>::max(), 0);
  };

  AllocationResponse response;
  Result<std::string> id = MemberString(root, "id", "");
  if (!id.ok()) return id.status();
  response.id = *id;

  const JsonValue* ok = root.Find("ok");
  if (ok == nullptr || !ok->is_bool()) {
    return Status::InvalidArgument("response missing boolean \"ok\"");
  }
  Result<std::int64_t> worker =
      IntField(root, "worker", -1, std::numeric_limits<int>::max(), -1);
  if (!worker.ok()) return worker.status();
  response.worker = static_cast<int>(*worker);
  Result<double> queue_ms = MemberDouble(root, "queue_ms", 0.0);
  if (!queue_ms.ok()) return queue_ms.status();
  response.queue_ms = *queue_ms;
  Result<double> serve_ms = MemberDouble(root, "serve_ms", 0.0);
  if (!serve_ms.ok()) return serve_ms.status();
  response.serve_ms = *serve_ms;

  if (!ok->AsBool().value()) {
    const JsonValue* error = root.Find("error");
    if (error == nullptr || !error->is_object()) {
      return Status::InvalidArgument(
          "error response missing \"error\" object");
    }
    Result<std::string> code = MemberString(*error, "code", "Internal");
    if (!code.ok()) return code.status();
    Result<std::string> message = MemberString(*error, "message", "");
    if (!message.ok()) return message.status();
    response.status = Status(StatusCodeFromName(*code), *message);
    if (response.status.ok()) {
      return Status::InvalidArgument("error response carries code OK");
    }
    return response;
  }

  response.status = Status::OK();
  if (const JsonValue* result = root.Find("result")) {
    if (!result->is_object()) {
      return Status::InvalidArgument("\"result\" must be an object");
    }
    Result<std::string> allocator = MemberString(root, "allocator", "");
    if (!allocator.ok()) return allocator.status();
    response.run.result.allocator = *allocator;
    Result<double> seconds = MemberDouble(*result, "seconds", 0.0);
    if (!seconds.ok()) return seconds.status();
    response.run.result.seconds = *seconds;
    Result<std::int64_t> iterations = read_count(*result, "iterations");
    if (!iterations.ok()) return iterations.status();
    response.run.result.iterations = static_cast<std::size_t>(*iterations);
    Result<std::int64_t> rr = read_count(*result, "total_rr_sets");
    if (!rr.ok()) return rr.status();
    response.run.result.total_rr_sets = static_cast<std::uint64_t>(*rr);
    Result<std::int64_t> bytes = read_count(*result, "rr_memory_bytes");
    if (!bytes.ok()) return bytes.status();
    response.run.result.rr_memory_bytes = static_cast<std::size_t>(*bytes);
  }

  if (const JsonValue* allocation = root.Find("allocation")) {
    if (!allocation->is_object()) {
      return Status::InvalidArgument("\"allocation\" must be an object");
    }
    const JsonValue* seeds = allocation->Find("seeds");
    if (seeds == nullptr || !seeds->is_array()) {
      return Status::InvalidArgument("\"allocation.seeds\" must be an array");
    }
    auto& out = response.run.result.allocation.seeds;
    out.resize(seeds->size());
    for (std::size_t i = 0; i < seeds->size(); ++i) {
      const JsonValue& ad = (*seeds)[i];
      if (!ad.is_array()) {
        return Status::InvalidArgument("seed lists must be arrays");
      }
      out[i].reserve(ad.size());
      for (std::size_t j = 0; j < ad.size(); ++j) {
        Result<std::int64_t> v = ad[j].AsInt();
        if (!v.ok() || *v < 0 ||
            *v > static_cast<std::int64_t>(kInvalidNode)) {
          return Status::InvalidArgument("invalid node id in seeds");
        }
        out[i].push_back(static_cast<NodeId>(*v));
      }
    }
  }

  if (const JsonValue* report = root.Find("report")) {
    if (!report->is_object()) {
      return Status::InvalidArgument("\"report\" must be an object");
    }
    RegretReport& r = response.run.report;
    Result<double> v = MemberDouble(*report, "total_regret", 0.0);
    if (!v.ok()) return v.status();
    r.total_regret = *v;
    v = MemberDouble(*report, "total_budget_regret", 0.0);
    if (!v.ok()) return v.status();
    r.total_budget_regret = *v;
    v = MemberDouble(*report, "total_seed_regret", 0.0);
    if (!v.ok()) return v.status();
    r.total_seed_regret = *v;
    v = MemberDouble(*report, "total_revenue", 0.0);
    if (!v.ok()) return v.status();
    r.total_revenue = *v;
    v = MemberDouble(*report, "total_budget", 0.0);
    if (!v.ok()) return v.status();
    r.total_budget = *v;
    Result<std::int64_t> n = read_count(*report, "total_seeds");
    if (!n.ok()) return n.status();
    r.total_seeds = static_cast<std::size_t>(*n);
    n = read_count(*report, "distinct_targeted");
    if (!n.ok()) return n.status();
    r.distinct_targeted = static_cast<std::size_t>(*n);
  }

  if (const JsonValue* profile = root.Find("profile")) {
    if (!profile->is_array()) {
      return Status::InvalidArgument("\"profile\" must be an array");
    }
    response.profile.reserve(profile->size());
    for (std::size_t i = 0; i < profile->size(); ++i) {
      const JsonValue& entry = (*profile)[i];
      if (!entry.is_object()) {
        return Status::InvalidArgument("profile entries must be objects");
      }
      StageTiming stage;
      Result<std::string> name = MemberString(entry, "name", "");
      if (!name.ok()) return name.status();
      stage.name = *name;
      Result<std::int64_t> count = read_count(entry, "count");
      if (!count.ok()) return count.status();
      stage.count = static_cast<std::uint64_t>(*count);
      Result<double> total_ms = MemberDouble(entry, "total_ms", 0.0);
      if (!total_ms.ok()) return total_ms.status();
      stage.total_ms = *total_ms;
      response.profile.push_back(std::move(stage));
    }
  }

  if (const JsonValue* cache = root.Find("cache")) {
    if (!cache->is_object()) {
      return Status::InvalidArgument("\"cache\" must be an object");
    }
    SampleCacheStats& c = response.run.result.cache;
    Result<std::int64_t> n = read_count(*cache, "reused_sets");
    if (!n.ok()) return n.status();
    c.reused_sets = static_cast<std::uint64_t>(*n);
    n = read_count(*cache, "sampled_sets");
    if (!n.ok()) return n.status();
    c.sampled_sets = static_cast<std::uint64_t>(*n);
    n = read_count(*cache, "top_ups");
    if (!n.ok()) return n.status();
    c.top_ups = static_cast<std::uint64_t>(*n);
    n = read_count(*cache, "kpt_cache_hits");
    if (!n.ok()) return n.status();
    c.kpt_cache_hits = static_cast<std::uint64_t>(*n);
    n = read_count(*cache, "kpt_estimations");
    if (!n.ok()) return n.status();
    c.kpt_estimations = static_cast<std::uint64_t>(*n);
    n = read_count(*cache, "arena_bytes");
    if (!n.ok()) return n.status();
    c.arena_bytes = static_cast<std::size_t>(*n);
    n = read_count(*cache, "view_bytes");
    if (!n.ok()) return n.status();
    c.view_bytes = static_cast<std::size_t>(*n);
    n = read_count(*cache, "max_traversal");
    if (!n.ok()) return n.status();
    c.max_traversal = static_cast<std::uint64_t>(*n);
    const JsonValue* shared = cache->Find("shared_store");
    if (shared != nullptr) {
      Result<bool> b = shared->AsBool();
      if (!b.ok()) return FieldError("shared_store", b.status());
      c.shared_store = *b;
    }
  }

  return response;
}

}  // namespace serve
}  // namespace tirm
