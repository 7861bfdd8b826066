// qapprox wire-protocol message schema (see DESIGN.md §11 for the grammar).
//
// Requests and replies are single JSON objects, one per frame:
//
//   request:  {"id": <string|number>, "type": "ping" | "simulate" |
//              "synthesize" | "stats" | "metrics" | "shutdown",
//              "tenant": "team-a",          // optional, default "anon"
//              "deadline_ms": 2000,          // optional soft budget
//              "idem": "client-42-req-7",    // optional idempotency key
//              "params": { ... }}            // type-specific
//
//   reply:    {"id": <echoed>, "status": "ok" | "degraded" | "error",
//              "result": { ... },            // ok / degraded
//              "degraded": "<why>",          // degraded only
//              "error": {"kind": "<taxonomy>", "message": "..."}}  // error
//
// Exactly one reply per request, correlated by id; replies stream back in
// completion order, not submission order. "degraded" means the job finished
// and its result is usable but annotated (deadline-truncated shots,
// synthesis fallback, injected-fault retries). Error kinds extend the
// library taxonomy (contract/synthesis/simulation/timeout) with transport
// and admission kinds: bad_request, overloaded, shutdown, internal, and
// reaped (watchdog killed a hung job).
//
// "idem" makes a job request safe to retry: two requests carrying the same
// key execute at most once, and the later one receives the cached reply
// (stamped "replayed": true) or attaches to the in-flight execution. Keys
// are scoped per tenant. Inline types (ping/stats/metrics/shutdown) ignore
// the key — they are naturally idempotent or intentionally not.
#pragma once

#include <cstdint>
#include <optional>
#include <string>

#include "common/json.hpp"

namespace qc::serve {

/// Request types the server dispatches. Metrics serves the live observability
/// registry (params {"format": "json" | "prometheus"}) inline, never queued
/// behind jobs — a dashboard poll must not wait for a synthesis batch.
enum class RequestType { Ping, Simulate, Synthesize, Stats, Metrics, Shutdown };

/// Parsed request envelope (params stay schemaless; job builders interpret
/// them).
struct RequestEnvelope {
  common::json::Value id;  // echoed verbatim; may be Null when absent
  RequestType type = RequestType::Ping;
  std::string tenant = "anon";
  /// <= 0: no per-request deadline (process default applies).
  double deadline_ms = 0.0;
  /// Idempotency key; empty = none (every request executes independently).
  std::string idem;
  common::json::Value params;  // object or Null
};

/// Parses and validates one request payload. Returns nullopt and fills
/// `error` (human-readable) when the payload is not a valid request; the
/// caller answers with a bad_request reply instead of disconnecting.
/// When the malformed payload still carried an "id", it is copied to
/// `id_out` so the error reply can correlate.
std::optional<RequestEnvelope> parse_request(const std::string& payload,
                                             std::string* error,
                                             common::json::Value* id_out);

/// Reply builders. `id` is echoed verbatim.
common::json::Value make_ok_reply(const common::json::Value& id,
                                  common::json::Value result);
common::json::Value make_degraded_reply(const common::json::Value& id,
                                        common::json::Value result,
                                        const std::string& why);
common::json::Value make_error_reply(const common::json::Value& id,
                                     const std::string& kind,
                                     const std::string& message);

}  // namespace qc::serve
