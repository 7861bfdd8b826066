#include "serve/protocol.hpp"

#include "common/error.hpp"

namespace qc::serve {

namespace json = common::json;

namespace {

bool type_from_name(const std::string& name, RequestType* out) {
  if (name == "ping") { *out = RequestType::Ping; return true; }
  if (name == "simulate") { *out = RequestType::Simulate; return true; }
  if (name == "synthesize") { *out = RequestType::Synthesize; return true; }
  if (name == "stats") { *out = RequestType::Stats; return true; }
  if (name == "metrics") { *out = RequestType::Metrics; return true; }
  if (name == "shutdown") { *out = RequestType::Shutdown; return true; }
  return false;
}

}  // namespace

std::optional<RequestEnvelope> parse_request(const std::string& payload,
                                             std::string* error,
                                             json::Value* id_out) {
  json::Value doc;
  std::string parse_error;
  if (!json::try_parse(payload, &doc, &parse_error)) {
    if (error) *error = "malformed JSON: " + parse_error;
    return std::nullopt;
  }
  if (!doc.is_object()) {
    if (error) *error = "request must be a JSON object";
    return std::nullopt;
  }
  // Salvage the id first so even a bad request gets a correlated reply.
  if (id_out) {
    if (const json::Value* id = doc.find("id")) *id_out = *id;
  }
  RequestEnvelope env;
  if (const json::Value* id = doc.find("id")) env.id = *id;
  const json::Value* type = doc.find("type");
  if (type == nullptr || !type->is_string()) {
    if (error) *error = "request missing string field \"type\"";
    return std::nullopt;
  }
  if (!type_from_name(type->as_string(), &env.type)) {
    if (error) *error = "unknown request type \"" + type->as_string() + "\"";
    return std::nullopt;
  }
  try {
    env.tenant = doc.get_string("tenant", "anon");
    env.deadline_ms = doc.get_number("deadline_ms", 0.0);
    env.idem = doc.get_string("idem", "");
  } catch (const common::Error& e) {
    if (error) *error = e.what();
    return std::nullopt;
  }
  if (env.tenant.empty()) env.tenant = "anon";
  if (const json::Value* params = doc.find("params")) {
    if (!params->is_object() && !params->is_null()) {
      if (error) *error = "\"params\" must be an object";
      return std::nullopt;
    }
    env.params = *params;
  }
  return env;
}

json::Value make_ok_reply(const json::Value& id, json::Value result) {
  json::Value reply = json::Value::object();
  reply.set("id", id);
  reply.set("status", "ok");
  reply.set("result", std::move(result));
  return reply;
}

json::Value make_degraded_reply(const json::Value& id, json::Value result,
                                const std::string& why) {
  json::Value reply = json::Value::object();
  reply.set("id", id);
  reply.set("status", "degraded");
  reply.set("degraded", why);
  reply.set("result", std::move(result));
  return reply;
}

json::Value make_error_reply(const json::Value& id, const std::string& kind,
                             const std::string& message) {
  json::Value reply = json::Value::object();
  reply.set("id", id);
  reply.set("status", "error");
  json::Value err = json::Value::object();
  err.set("kind", kind);
  err.set("message", message);
  reply.set("error", std::move(err));
  return reply;
}

}  // namespace qc::serve
