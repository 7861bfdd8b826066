#include "synth/persist.hpp"

#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <functional>
#include <limits>
#include <sstream>
#include <type_traits>
#include <utility>
#include <vector>

#include "common/error.hpp"
#include "common/io.hpp"
#include "common/json.hpp"
#include "ir/circuit.hpp"
#include "obs/log.hpp"
#include "obs/metrics.hpp"
#include "synth/cache.hpp"

namespace qc::synth {

namespace {

using common::json::Value;

// Version 3 keys every tool with one SynthKey (the tool's name and a hex
// options list). The version check refuses versions 1 and 2, and the server
// cold-starts.
constexpr int kSnapshotVersion = 3;

/// A member every row carries: a missing one is a corrupt snapshot.
const Value& field(const Value& v, const char* name) {
  const Value* out = v.find(name);
  QC_CHECK_MSG(out != nullptr, std::string("synth snapshot: missing field ") + name);
  return *out;
}

int to_int(const Value& v) {
  const double x = v.as_number();
  QC_CHECK_MSG(x >= std::numeric_limits<int>::min() && x <= std::numeric_limits<int>::max(),
               "synth snapshot: integer out of range");
  return static_cast<int>(x);
}

std::string u64_hex(std::uint64_t v) {
  char buf[20];
  std::snprintf(buf, sizeof(buf), "%" PRIx64, v);
  return buf;
}

std::uint64_t u64_from_hex(const Value& v) {
  const std::string& hex = v.as_string();
  QC_CHECK_MSG(!hex.empty() && hex.size() <= 16, "synth snapshot: bad u64 field");
  char* end = nullptr;
  const std::uint64_t out = std::strtoull(hex.c_str(), &end, 16);
  QC_CHECK_MSG(end != nullptr && *end == '\0', "synth snapshot: bad u64 field");
  return out;
}

Value circuit_to_json(const ir::QuantumCircuit& circuit) {
  Value out = Value::object();
  out.set("n", circuit.num_qubits());
  if (!circuit.name().empty()) out.set("name", circuit.name());
  Value gates = Value::array();
  for (const ir::Gate& g : circuit.gates()) {
    Value entry = Value::array();
    entry.push_back(ir::gate_name(g.kind));
    Value qubits = Value::array();
    for (int q : g.qubits) qubits.push_back(q);
    entry.push_back(std::move(qubits));
    if (!g.params.empty()) {
      Value params = Value::array();
      for (double p : g.params) params.push_back(p);
      entry.push_back(std::move(params));
    }
    gates.push_back(std::move(entry));
  }
  out.set("gates", std::move(gates));
  return out;
}

ir::QuantumCircuit circuit_from_json(const Value& v) {
  ir::QuantumCircuit circuit(to_int(field(v, "n")), v.get_string("name", ""));
  for (const Value& entry : field(v, "gates").as_array()) {
    const auto& fields = entry.as_array();
    QC_CHECK_MSG(fields.size() >= 2, "synth snapshot: bad gate entry");
    const ir::GateKind kind = ir::gate_kind_from_name(fields[0].as_string());
    std::vector<int> qubits;
    for (const Value& q : fields[1].as_array())
      qubits.push_back(to_int(q));
    std::vector<double> params;
    if (fields.size() > 2)
      for (const Value& p : fields[2].as_array()) params.push_back(p.as_number());
    circuit.append(ir::Gate(kind, std::move(qubits), std::move(params)));
  }
  return circuit;
}

Value approx_to_json(const ApproxCircuit& a) {
  Value out = Value::object();
  out.set("circuit", circuit_to_json(a.circuit));
  out.set("hs", a.hs_distance);
  out.set("cnots", a.cnot_count);
  out.set("source", a.source);
  return out;
}

ApproxCircuit approx_from_json(const Value& v) {
  ApproxCircuit a;
  a.circuit = circuit_from_json(field(v, "circuit"));
  a.hs_distance = field(v, "hs").as_number();
  a.cnot_count = static_cast<std::size_t>(to_int(field(v, "cnots")));
  a.source = field(v, "source").as_string();
  return a;
}

Value stream_to_json(const std::vector<ApproxCircuit>& stream) {
  Value arr = Value::array();
  for (const ApproxCircuit& a : stream) arr.push_back(approx_to_json(a));
  return arr;
}

std::vector<ApproxCircuit> stream_from_json(const Value& v) {
  std::vector<ApproxCircuit> stream;
  for (const Value& a : v.as_array()) stream.push_back(approx_from_json(a));
  return stream;
}

// ---- the key codec ----------------------------------------------------------

const char* tool_name(SynthTool tool) {
  static constexpr const char* kNames[] = {"qsearch", "qfast", "qfactor"};  // by SynthTool
  return kNames[static_cast<std::size_t>(tool)];
}

SynthTool tool_from_name(const std::string& name) {
  for (SynthTool tool : kSynthTools)
    if (name == tool_name(tool)) return tool;
  throw common::Error("synth snapshot: unknown tool " + name);
}

// 64-bit fields (fingerprints, seed, option bit patterns) are hex strings:
// JSON numbers are doubles and silently lose bits past 2^53.
Value key_to_json(const SynthKey& k) {
  Value out = Value::object();
  out.set("tool", tool_name(k.tool));
  out.set("target_fp", u64_hex(k.target_fp));
  out.set("structure_fp", u64_hex(k.structure_fp));
  out.set("seed", u64_hex(k.seed));
  out.set("dim", k.dim);
  out.set("qubits", k.num_qubits);
  Value edges = Value::array();
  for (const auto& [a, b] : k.edges) {
    Value e = Value::array();
    e.push_back(a).push_back(b);
    edges.push_back(std::move(e));
  }
  out.set("edges", std::move(edges));
  Value options = Value::array();
  for (std::uint64_t bits : k.options) options.push_back(u64_hex(bits));
  out.set("options", std::move(options));
  return out;
}

SynthKey key_from_json(const Value& v) {
  SynthKey k;
  k.tool = tool_from_name(field(v, "tool").as_string());
  k.target_fp = u64_from_hex(field(v, "target_fp"));
  k.structure_fp = u64_from_hex(field(v, "structure_fp"));
  k.seed = u64_from_hex(field(v, "seed"));
  k.dim = field(v, "dim").as_uint64();
  k.num_qubits = to_int(field(v, "qubits"));
  for (const Value& e : field(v, "edges").as_array()) {
    QC_CHECK_MSG(e.is_array() && e.size() == 2, "synth snapshot: bad edge");
    k.edges.emplace_back(to_int(e.as_array()[0]), to_int(e.as_array()[1]));
  }
  for (const Value& bits : field(v, "options").as_array())
    k.options.push_back(u64_from_hex(bits));
  return k;
}

// ---- one result codec per result type ---------------------------------------

Value result_to_json(const QSearchResult& r) {
  Value out = Value::object();
  out.set("best", approx_to_json(r.best));
  out.set("converged", r.converged);
  out.set("nodes_expanded", r.nodes_expanded);
  out.set("nodes_optimized", r.nodes_optimized);
  return out;
}

void result_from_json(const Value& v, QSearchResult& r) {
  r.best = approx_from_json(field(v, "best"));
  r.converged = field(v, "converged").as_bool();
  r.nodes_expanded = to_int(field(v, "nodes_expanded"));
  r.nodes_optimized = to_int(field(v, "nodes_optimized"));
}

Value result_to_json(const QFastResult& r) {
  Value out = Value::object();
  out.set("best", approx_to_json(r.best));
  out.set("converged", r.converged);
  out.set("depths_tried", r.depths_tried);
  return out;
}

void result_from_json(const Value& v, QFastResult& r) {
  r.best = approx_from_json(field(v, "best"));
  r.converged = field(v, "converged").as_bool();
  r.depths_tried = to_int(field(v, "depths_tried"));
}

Value result_to_json(const QFactorResult& r) {
  Value out = Value::object();
  out.set("circuit", circuit_to_json(r.circuit));
  out.set("hs", r.hs_distance);
  out.set("sweeps", r.sweeps);
  out.set("converged", r.converged);
  return out;
}

void result_from_json(const Value& v, QFactorResult& r) {
  r.circuit = circuit_from_json(field(v, "circuit"));
  r.hs_distance = field(v, "hs").as_number();
  r.sweeps = to_int(field(v, "sweeps"));
  r.converged = field(v, "converged").as_bool();
}

std::string join_path(const std::string& dir, const char* file) {
  if (dir.empty() || dir.back() == '/') return dir + file;
  return dir + "/" + file;
}

}  // namespace

const std::string& synth_cache_dir_env() {
  static const std::string dir = [] {
    const char* v = std::getenv("QAPPROX_SYNTH_CACHE_DIR");
    return std::string(v == nullptr ? "" : v);
  }();
  return dir;
}

std::string synth_cache_serialize() {
  Value entries = Value::array();
  for (SynthTool tool : kSynthTools) {
    with_result_type(tool, [&]<class R>(std::type_identity<R>) {
      for (const auto& [key, entry] : synth_cache<R>().dump()) {
        Value row = Value::object();
        row.set("key", key_to_json(key));
        row.set("result", result_to_json(entry.result));
        row.set("stream", stream_to_json(entry.stream));
        entries.push_back(std::move(row));
      }
    });
  }
  Value doc = Value::object();
  doc.set("version", kSnapshotVersion);
  doc.set("entries", std::move(entries));
  return doc.dump();
}

std::size_t synth_cache_deserialize(const std::string& text) {
  const Value doc = common::json::parse(text);
  QC_CHECK_MSG(doc.get_int("version", -1) == kSnapshotVersion,
               "synth snapshot: unsupported version");
  // Decode every row before storing any, so a bad row loads nothing.
  std::vector<std::function<void()>> stores;
  for (const Value& row : field(doc, "entries").as_array()) {
    const SynthKey key = key_from_json(field(row, "key"));
    with_result_type(key.tool, [&]<class R>(std::type_identity<R>) {
      Cached<R> entry;
      result_from_json(field(row, "result"), entry.result);
      entry.stream = stream_from_json(field(row, "stream"));
      stores.emplace_back([key, entry] { synth_cache<R>().put(key, entry); });
    });
  }
  for (const auto& store : stores) store();
  return stores.size();
}

std::size_t synth_cache_save(const std::string& dir) {
  QC_CHECK_MSG(!dir.empty(), "synth_cache_save: empty directory");
  const SynthCacheStats before = synth_cache_stats();
  const std::string path = join_path(dir, kSynthCacheSnapshotFile);
  common::atomic_write_file(path, synth_cache_serialize());
  static obs::Counter& saved = obs::counter("synth.cache.disk_saved");
  saved.add(before.entries);
  QC_LOG_INFO("synth", "snapshotted %zu synthesis-cache entries to %s",
              before.entries, path.c_str());
  return before.entries;
}

std::size_t synth_cache_load(const std::string& dir) {
  if (dir.empty()) return 0;
  const std::string path = join_path(dir, kSynthCacheSnapshotFile);
  std::ifstream in(path, std::ios::binary);
  if (!in.is_open()) return 0;  // no snapshot yet: clean cold start
  std::ostringstream buffer;
  buffer << in.rdbuf();
  try {
    const std::size_t loaded = synth_cache_deserialize(buffer.str());
    static obs::Counter& counter = obs::counter("synth.cache.disk_loaded");
    counter.add(loaded);
    QC_LOG_INFO("synth", "warm-started %zu synthesis-cache entries from %s",
                loaded, path.c_str());
    return loaded;
  } catch (const common::Error& e) {
    QC_LOG_WARN("synth", "ignoring unreadable synthesis-cache snapshot %s: %s",
                path.c_str(), e.what());
    return 0;
  }
}

}  // namespace qc::synth
