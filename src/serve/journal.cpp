#include "serve/journal.hpp"

#include <cerrno>
#include <chrono>
#include <cstring>
#include <optional>
#include <sys/stat.h>
#include <sys/types.h>

#include "common/error.hpp"
#include "obs/obs.hpp"

namespace qc::serve {

namespace json = common::json;

namespace {

void make_dirs(const std::string& dir) {
  std::string prefix;
  std::size_t pos = 0;
  while (pos <= dir.size()) {
    const std::size_t slash = dir.find('/', pos);
    prefix = slash == std::string::npos ? dir : dir.substr(0, slash);
    if (!prefix.empty() && ::mkdir(prefix.c_str(), 0755) != 0 &&
        errno != EEXIST)
      throw common::Error("journal: mkdir(" + prefix +
                          ") failed: " + std::strerror(errno));
    if (slash == std::string::npos) break;
    pos = slash + 1;
  }
}

std::string record_json(const char* type, const std::string& key,
                        const char* field, const json::Value& value) {
  json::Value rec = json::Value::object();
  rec.set("t", type);
  rec.set("key", key);
  rec.set(field, value);
  return rec.dump();
}

/// One pass over a journal log. DONE replies keep the order of each key's
/// first completion with its newest reply; ACCEPTED requests keep acceptance
/// order, and a rejection closes its key until a later re-accept.
struct LogScan {
  std::vector<std::string> done_order;  // keys, oldest first
  std::unordered_map<std::string, json::Value> done_replies;
  std::vector<std::string> accept_order;
  std::unordered_map<std::string, json::Value> accept_requests;

  /// The newest `cap` DONE records, oldest first, re-encoded for a rewrite.
  std::vector<std::string> newest_done(std::size_t cap) const {
    std::vector<std::string> out;
    const std::size_t first =
        done_order.size() > cap ? done_order.size() - cap : 0;
    for (std::size_t i = first; i < done_order.size(); ++i)
      out.push_back(record_json("done", done_order[i], "reply",
                                done_replies.at(done_order[i])));
    return out;
  }
};

LogScan scan_log(const std::vector<std::string>& records) {
  LogScan scan;
  for (const std::string& payload : records) {
    json::Value rec;
    std::string parse_error;
    if (!json::try_parse(payload, &rec, &parse_error) || !rec.is_object())
      continue;  // CRC-valid but unparseable: skip, never fail recovery
    const std::string type = rec.get_string("t", "");
    const std::string key = rec.get_string("key", "");
    if (key.empty()) continue;
    if (type == "accepted") {
      const json::Value* request = rec.find("request");
      if (request == nullptr) continue;
      if (scan.accept_requests.count(key) == 0)
        scan.accept_order.push_back(key);
      scan.accept_requests[key] = *request;
    } else if (type == "done") {
      const json::Value* reply = rec.find("reply");
      if (reply == nullptr) continue;
      if (scan.done_replies.count(key) == 0) scan.done_order.push_back(key);
      scan.done_replies[key] = *reply;
    } else if (type == "rejected") {
      // The scheduler bounced this key after it was accepted: nothing ran,
      // nothing to re-enqueue. A later re-accept re-opens it.
      scan.accept_requests.erase(key);
    }
    // "started" records are forensic only; recovery has no use for them.
  }
  return scan;
}

}  // namespace

// ----------------------------------------------------------------- JobJournal

JobJournal::JobJournal(const std::string& dir, ReplayCache* replay)
    : replay_(replay) {
  if (dir.empty()) return;  // journaling off: record_* are no-ops
  make_dirs(dir);
  path_ = dir + "/jobs.wal";

  const auto t0 = std::chrono::steady_clock::now();
  const common::WalReadResult log = common::read_wal(path_);
  stats_.torn_bytes = log.torn_bytes;

  // Replay to a key -> last-state map. Order matters twice: DONE replies go
  // to the replay cache oldest-first so LRU keeps the newest, and incomplete
  // jobs re-enqueue in acceptance order.
  LogScan scan = scan_log(log.records);
  for (const std::string& key : scan.done_order) {
    if (replay_ != nullptr) replay_->put(key, scan.done_replies[key]);
    ++stats_.recovered_replies;
  }
  for (const std::string& key : scan.accept_order) {
    if (scan.done_replies.count(key) != 0) continue;  // finished pre-crash
    const auto request = scan.accept_requests.find(key);
    if (request == scan.accept_requests.end()) continue;  // rejected, closed
    if (incomplete_.count(key) != 0) continue;  // reject->re-accept: one entry
    RecoveredJob job;
    job.key = key;
    job.request = request->second;
    incomplete_[key] = record_json("accepted", key, "request", job.request);
    recovered_.push_back(std::move(job));
    ++stats_.recovered_incomplete;
  }

  // Compact before the writer opens: recovery is the one moment the log has
  // no concurrent appenders, and rewriting here bounds growth across crash
  // loops (the chaos soak restarts this path five-plus times).
  std::vector<std::string> keep =
      scan.newest_done(replay_ != nullptr ? replay_->cap() : 4096);
  for (const RecoveredJob& job : recovered_)
    keep.push_back(incomplete_[job.key]);
  if (log.existed) {
    common::rewrite_wal(path_, keep);
    ++stats_.compactions;
  }

  writer_ = std::make_unique<common::WalWriter>(path_);
  stats_.enabled = true;
  stats_.path = path_;
  stats_.recovery_ms = std::chrono::duration<double, std::milli>(
                           std::chrono::steady_clock::now() - t0)
                           .count();
  obs::gauge("serve.journal.recovery_ms").set(stats_.recovery_ms);
  obs::counter("serve.journal.recovered_replies")
      .add(stats_.recovered_replies);
  obs::counter("serve.journal.recovered_incomplete")
      .add(stats_.recovered_incomplete);
  if (stats_.torn_bytes > 0)
    obs::counter("serve.journal.torn_bytes").add(stats_.torn_bytes);
}

JobJournal::~JobJournal() = default;

void JobJournal::append_durable(const std::string& payload) {
  common::WalWriter* writer;
  {
    std::lock_guard<std::mutex> lock(mu_);
    writer = writer_.get();
  }
  if (writer == nullptr) return;
  // fsync outside mu_: WalWriter group-commits internally, so concurrent
  // reader/worker threads amortize one flush instead of queueing on ours.
  writer->append_durable(payload);
}

void JobJournal::append_staged(const std::string& payload) {
  std::lock_guard<std::mutex> lock(mu_);
  if (writer_) writer_->append(payload);
}

void JobJournal::record_accepted(const std::string& key,
                                 const json::Value& request) {
  if (!enabled()) return;
  const std::string payload = record_json("accepted", key, "request", request);
  {
    std::lock_guard<std::mutex> lock(mu_);
    incomplete_[key] = payload;
    ++stats_.accepted;
  }
  append_durable(payload);
}

void JobJournal::record_started(const std::string& key,
                                const std::string& exec_id) {
  if (!enabled()) return;
  json::Value rec = json::Value::object();
  rec.set("t", "started");
  rec.set("key", key);
  rec.set("exec", exec_id);
  {
    std::lock_guard<std::mutex> lock(mu_);
    ++stats_.started;
  }
  append_staged(rec.dump());
}

void JobJournal::record_done(const std::string& key,
                             const json::Value& reply) {
  if (!enabled()) return;
  {
    std::lock_guard<std::mutex> lock(mu_);
    incomplete_.erase(key);
    ++stats_.done;
  }
  append_durable(record_json("done", key, "reply", reply));
}

void JobJournal::record_rejected(const std::string& key) {
  if (!enabled()) return;
  json::Value rec = json::Value::object();
  rec.set("t", "rejected");
  rec.set("key", key);
  {
    std::lock_guard<std::mutex> lock(mu_);
    incomplete_.erase(key);
  }
  append_staged(rec.dump());
}

void JobJournal::compact() {
  if (!enabled()) return;
  std::lock_guard<std::mutex> lock(mu_);
  // Appends are quiesced (scheduler drained) by contract, so closing the
  // writer, rewriting, and reopening cannot lose records.
  writer_.reset();
  // Everything worth replaying after a restart is the newest DONE records
  // up to the replay cache's cap: the log compacted at open plus this boot's
  // appends.
  std::vector<std::string> keep;
  if (replay_ != nullptr)
    keep = scan_log(common::read_wal(path_).records)
               .newest_done(replay_->cap());
  for (const auto& [key, payload] : incomplete_) keep.push_back(payload);
  common::rewrite_wal(path_, keep);
  ++stats_.compactions;
  writer_ = std::make_unique<common::WalWriter>(path_);
}

JournalStats JobJournal::stats() const {
  std::lock_guard<std::mutex> lock(mu_);
  JournalStats s = stats_;
  if (writer_) {
    s.appended_bytes = writer_->appended_bytes();
    s.sync_calls = writer_->sync_calls();
  }
  return s;
}

// ------------------------------------------------------------------ JobLedger

JobLedger::JobLedger(const std::string& journal_dir, std::size_t replay_cap)
    : replay_(replay_cap, "serve.replay"), journal_(journal_dir, &replay_) {}

JobLedger::Admission JobLedger::admit(const std::string& key,
                                      ReplyWaiter waiter) {
  std::optional<json::Value> cached;
  {
    std::lock_guard<std::mutex> lock(mu_);
    auto it = inflight_.find(key);
    if (it != inflight_.end()) {
      it->second.push_back(std::move(waiter));
      attached_.fetch_add(1, std::memory_order_relaxed);
      obs::counter("serve.replay.attached").add(1);
      return Admission::kAttached;
    }
    cached = replay_.get(key);
    if (!cached) {
      inflight_[key].push_back(std::move(waiter));
      return Admission::kPrimary;
    }
  }
  replayed_.fetch_add(1, std::memory_order_relaxed);
  cached->set("id", waiter.request_id);
  cached->set("replayed", true);
  if (waiter.sink) waiter.sink(*cached);
  return Admission::kReplayed;
}

void JobLedger::complete(const std::string& key, const json::Value& reply) {
  if (replay_.contains(key))
    duplicate_exec_.fetch_add(1, std::memory_order_relaxed);
  journal_.record_done(key, reply);  // durable BEFORE any send
  replay_.put(key, reply);
  // Pop only after the put: admit() treats "not in flight" as "in the cache".
  deliver(key, reply, /*mark_retries=*/true);
}

void JobLedger::reject(const std::string& key, const json::Value& reply) {
  journal_.record_rejected(key);
  deliver(key, reply, /*mark_retries=*/false);
}

void JobLedger::deliver(const std::string& key, const json::Value& reply,
                        bool mark_retries) {
  std::vector<ReplyWaiter> waiters;
  {
    std::lock_guard<std::mutex> lock(mu_);
    auto it = inflight_.find(key);
    if (it == inflight_.end()) return;
    waiters = std::move(it->second);
    inflight_.erase(it);
  }
  for (std::size_t i = 0; i < waiters.size(); ++i) {
    if (!waiters[i].sink) continue;
    json::Value copy = reply;
    copy.set("id", waiters[i].request_id);
    if (mark_retries && i > 0) copy.set("replayed", true);
    waiters[i].sink(copy);
  }
}

}  // namespace qc::serve
