// Crash-durability substrate tests: CRC-framed WAL torn-tail recovery, the
// job journal's exactly-once bookkeeping, the reply-replay LRU, the job
// ledger that owns both (admit / complete / reject, no sockets), and the
// small pieces the chaos path leans on (jittered backoff, linked cancel
// tokens, progress beacons).
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <memory>
#include <string>
#include <vector>

#include "common/backoff.hpp"
#include "common/deadline.hpp"
#include "common/error.hpp"
#include "common/json.hpp"
#include "common/wal.hpp"
#include "serve/journal.hpp"

namespace qc {
namespace {

namespace json = common::json;
using json::Value;

std::string make_temp_dir() {
  std::string tmpl = "/tmp/qapprox_wal_XXXXXX";
  const char* dir = ::mkdtemp(tmpl.data());
  EXPECT_NE(dir, nullptr);
  return tmpl;
}

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return std::string(std::istreambuf_iterator<char>(in),
                     std::istreambuf_iterator<char>());
}

void write_file(const std::string& path, const std::string& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
}

// ---- crc32 ------------------------------------------------------------------

TEST(Crc32, MatchesTheZlibVectors) {
  // The classic IEEE-802.3 check value; CI's python gate computes the same
  // via zlib.crc32, so this vector pins cross-tool compatibility.
  const char digits[] = "123456789";
  EXPECT_EQ(common::crc32(digits, 9), 0xCBF43926u);
  EXPECT_EQ(common::crc32("", 0), 0u);
  const char abc[] = "abc";
  EXPECT_EQ(common::crc32(abc, 3), 0x352441C2u);
}

TEST(Crc32, SeedChainsAcrossCalls) {
  const std::string text = "hello wal";
  const std::uint32_t whole = common::crc32(text.data(), text.size());
  for (std::size_t split = 0; split <= text.size(); ++split) {
    const std::uint32_t head = common::crc32(text.data(), split);
    const std::uint32_t chained =
        common::crc32(text.data() + split, text.size() - split, head);
    EXPECT_EQ(chained, whole) << "split at " << split;
  }
}

// ---- frame layout -----------------------------------------------------------

TEST(WalFrame, EncodesLittleEndianLengthThenCrcThenPayload) {
  const std::string payload = "record!";
  const std::string frame = common::encode_wal_frame(payload);
  ASSERT_EQ(frame.size(), common::wal_frame_size(payload.size()));

  std::uint32_t len = 0, crc = 0;
  std::memcpy(&len, frame.data(), 4);
  std::memcpy(&crc, frame.data() + 4, 4);
  EXPECT_EQ(len, payload.size());
  EXPECT_EQ(crc, common::crc32(payload.data(), payload.size()));
  EXPECT_EQ(frame.substr(8), payload);
}

// ---- torn-tail recovery -----------------------------------------------------

TEST(WalRead, MissingFileIsEmptyNotAnError) {
  const common::WalReadResult r =
      common::read_wal(make_temp_dir() + "/never_written.wal");
  EXPECT_FALSE(r.existed);
  EXPECT_TRUE(r.records.empty());
  EXPECT_EQ(r.torn_bytes, 0u);
}

TEST(WalRead, WriterRoundTripPreservesOrderAndBinaryPayloads) {
  const std::string dir = make_temp_dir();
  const std::string path = dir + "/round.wal";
  std::vector<std::string> payloads = {"first", "", std::string(1000, '\xff'),
                                       std::string("nul\0byte", 8)};
  {
    common::WalWriter writer(path);
    for (const std::string& p : payloads) writer.append(p);
    EXPECT_EQ(writer.last_seq(), payloads.size());
    writer.sync_all();
  }
  const common::WalReadResult r = common::read_wal(path);
  EXPECT_TRUE(r.existed);
  EXPECT_EQ(r.torn_bytes, 0u);
  ASSERT_EQ(r.records.size(), payloads.size());
  for (std::size_t i = 0; i < payloads.size(); ++i)
    EXPECT_EQ(r.records[i], payloads[i]) << "record " << i;
}

TEST(WalRead, TruncationAtEveryByteRecoversTheLongestValidPrefix) {
  const std::string dir = make_temp_dir();
  const std::string path = dir + "/torn.wal";
  const std::vector<std::string> payloads = {"alpha", "bravo-bravo", "c"};
  {
    common::WalWriter writer(path);
    for (const std::string& p : payloads) writer.append(p);
    writer.sync_all();
  }
  const std::string full = read_file(path);

  // Frame boundaries: a cut exactly at offset `edge[i]` keeps i records.
  std::vector<std::size_t> edges = {0};
  for (const std::string& p : payloads)
    edges.push_back(edges.back() + common::wal_frame_size(p.size()));
  ASSERT_EQ(edges.back(), full.size());

  const std::string torn_path = dir + "/torn_cut.wal";
  for (std::size_t cut = 0; cut <= full.size(); ++cut) {
    write_file(torn_path, full.substr(0, cut));
    const common::WalReadResult r = common::read_wal(torn_path);
    std::size_t expect_records = 0;
    while (expect_records + 1 < edges.size() && edges[expect_records + 1] <= cut)
      ++expect_records;
    EXPECT_EQ(r.records.size(), expect_records) << "cut at " << cut;
    for (std::size_t i = 0; i < r.records.size(); ++i)
      EXPECT_EQ(r.records[i], payloads[i]);
    EXPECT_EQ(r.valid_bytes, edges[expect_records]) << "cut at " << cut;
    EXPECT_EQ(r.torn_bytes, cut - edges[expect_records]) << "cut at " << cut;
  }
}

TEST(WalRead, BitFlipInTheTailCostsOnlyTheCorruptSuffix) {
  const std::string dir = make_temp_dir();
  const std::string path = dir + "/flip.wal";
  {
    common::WalWriter writer(path);
    writer.append("keep me");
    writer.append("keep me too");
    writer.append("flip me");
    writer.sync_all();
  }
  std::string bytes = read_file(path);
  bytes[bytes.size() - 3] ^= 0x40;  // corrupt the last record's payload
  write_file(path, bytes);

  const common::WalReadResult r = common::read_wal(path);
  ASSERT_EQ(r.records.size(), 2u);
  EXPECT_EQ(r.records[0], "keep me");
  EXPECT_EQ(r.records[1], "keep me too");
  EXPECT_EQ(r.torn_bytes, common::wal_frame_size(7));
}

TEST(WalRead, InsaneDeclaredLengthStopsTheScanAtTheHeader) {
  const std::string dir = make_temp_dir();
  const std::string path = dir + "/insane.wal";
  std::string bytes = common::encode_wal_frame("good");
  const std::uint32_t huge = 0xFFFFFFFFu;  // far past kMaxWalRecordBytes
  const std::uint32_t zero = 0;
  bytes.append(reinterpret_cast<const char*>(&huge), 4);
  bytes.append(reinterpret_cast<const char*>(&zero), 4);
  bytes.append("whatever trails the bogus header");
  write_file(path, bytes);

  const common::WalReadResult r = common::read_wal(path);
  ASSERT_EQ(r.records.size(), 1u);
  EXPECT_EQ(r.records[0], "good");
  EXPECT_GT(r.torn_bytes, 0u);
}

TEST(WalWriter, DurableAppendsGroupCommitAndSurviveReopen) {
  const std::string dir = make_temp_dir();
  const std::string path = dir + "/durable.wal";
  {
    common::WalWriter writer(path);
    writer.append_durable("one");
    writer.append_durable("two");
    EXPECT_GE(writer.sync_calls(), 1u);
    EXPECT_LE(writer.sync_calls(), 2u);
  }
  {
    // Reopen appends after the existing tail instead of clobbering it.
    common::WalWriter writer(path);
    writer.append_durable("three");
  }
  const common::WalReadResult r = common::read_wal(path);
  ASSERT_EQ(r.records.size(), 3u);
  EXPECT_EQ(r.records[2], "three");
}

TEST(WalWriter, RejectsRecordsOverTheSanityCap) {
  const std::string dir = make_temp_dir();
  common::WalWriter writer(dir + "/cap.wal");
  EXPECT_THROW(writer.append(std::string(common::kMaxWalRecordBytes + 1, 'x')),
               common::Error);
}

TEST(WalRewrite, CompactionIsAtomicAndReadable) {
  const std::string dir = make_temp_dir();
  const std::string path = dir + "/compact.wal";
  {
    common::WalWriter writer(path);
    for (int i = 0; i < 20; ++i) writer.append("old-" + std::to_string(i));
    writer.sync_all();
  }
  common::rewrite_wal(path, {"kept-a", "kept-b"});
  const common::WalReadResult r = common::read_wal(path);
  ASSERT_EQ(r.records.size(), 2u);
  EXPECT_EQ(r.records[0], "kept-a");
  EXPECT_EQ(r.records[1], "kept-b");
  EXPECT_EQ(r.torn_bytes, 0u);
}

// ---- reply-replay cache -----------------------------------------------------

TEST(ReplayCache, LruEvictsTheColdestAndCountsEverything) {
  serve::ReplayCache cache(2);
  Value a = Value::object();
  a.set("who", "a");
  cache.put("a", std::move(a));
  cache.put("b", Value::object());
  EXPECT_TRUE(cache.get("a").has_value());  // bumps "a" over "b"
  cache.put("c", Value::object());          // evicts "b"

  EXPECT_TRUE(cache.contains("a"));
  EXPECT_FALSE(cache.contains("b"));
  EXPECT_TRUE(cache.contains("c"));
  EXPECT_EQ(cache.size(), 2u);
  EXPECT_FALSE(cache.get("b").has_value());
  EXPECT_EQ(cache.hits(), 1u);
  EXPECT_EQ(cache.misses(), 1u);
  EXPECT_EQ(cache.evictions(), 1u);
  EXPECT_EQ(cache.get("a")->get_string("who", ""), "a");
}

TEST(ReplayCache, OverwriteRefreshesInsteadOfDuplicating) {
  serve::ReplayCache cache(4);
  Value v1 = Value::object();
  v1.set("gen", 1);
  Value v2 = Value::object();
  v2.set("gen", 2);
  cache.put("k", std::move(v1));
  cache.put("k", std::move(v2));
  EXPECT_EQ(cache.size(), 1u);
  EXPECT_EQ(cache.get("k")->get_int("gen", 0), 2);
}

// ---- job journal ------------------------------------------------------------

Value sample_request(const std::string& idem) {
  Value req = Value::object();
  req.set("type", "simulate");
  req.set("tenant", "t0");
  req.set("idem", idem);
  Value params = Value::object();
  params.set("workload", "tfim");
  req.set("params", std::move(params));
  return req;
}

Value sample_reply(int gen) {
  Value reply = Value::object();
  reply.set("status", "ok");
  reply.set("gen", gen);
  return reply;
}

TEST(JobJournal, DisabledJournalIsANoOpShell) {
  serve::ReplayCache cache(8);
  serve::JobJournal journal("", &cache);
  EXPECT_FALSE(journal.enabled());
  journal.record_accepted("k", sample_request("k"));
  journal.record_done("k", sample_reply(1));
  EXPECT_TRUE(journal.recovered().empty());
  EXPECT_FALSE(journal.stats().enabled);
}

TEST(JobJournal, DoneKeysRebuildTheReplayCacheAcrossReopen) {
  const std::string dir = make_temp_dir();
  {
    serve::ReplayCache cache(8);
    serve::JobJournal journal(dir, &cache);
    ASSERT_TRUE(journal.enabled());
    journal.record_accepted("done-key", sample_request("done-key"));
    journal.record_started("done-key", "boot-1");
    journal.record_done("done-key", sample_reply(7));
  }
  serve::ReplayCache cache(8);
  serve::JobJournal journal(dir, &cache);
  EXPECT_TRUE(journal.recovered().empty()) << "a DONE key must not re-enqueue";
  const auto reply = cache.get("done-key");
  ASSERT_TRUE(reply.has_value());
  EXPECT_EQ(reply->get_int("gen", 0), 7);
  EXPECT_EQ(journal.stats().recovered_replies, 1u);
  EXPECT_EQ(journal.stats().recovered_incomplete, 0u);
}

TEST(JobJournal, AcceptedWithoutDoneIsRecoveredWithItsRequest) {
  const std::string dir = make_temp_dir();
  {
    serve::ReplayCache cache(8);
    serve::JobJournal journal(dir, &cache);
    journal.record_accepted("finished", sample_request("finished"));
    journal.record_done("finished", sample_reply(1));
    journal.record_accepted("crashed", sample_request("crashed"));
    journal.record_started("crashed", "boot-1");
    // No DONE for "crashed": the process "dies" here.
  }
  serve::ReplayCache cache(8);
  serve::JobJournal journal(dir, &cache);
  ASSERT_EQ(journal.recovered().size(), 1u);
  EXPECT_EQ(journal.recovered()[0].key, "crashed");
  EXPECT_EQ(journal.recovered()[0].request.get_string("idem", ""), "crashed");
  EXPECT_TRUE(cache.contains("finished"));
  EXPECT_FALSE(cache.contains("crashed"));
}

TEST(JobJournal, RejectedClosesAKeyWithoutCachingAReply) {
  const std::string dir = make_temp_dir();
  {
    serve::ReplayCache cache(8);
    serve::JobJournal journal(dir, &cache);
    journal.record_accepted("rej", sample_request("rej"));
    journal.record_rejected("rej");
  }
  serve::ReplayCache cache(8);
  serve::JobJournal journal(dir, &cache);
  EXPECT_TRUE(journal.recovered().empty())
      << "a rejected key must not re-enqueue at recovery";
  EXPECT_FALSE(cache.contains("rej"));
}

TEST(JobJournal, TornTailDropsOnlyTheUnsyncedSuffix) {
  const std::string dir = make_temp_dir();
  std::string path;
  {
    serve::ReplayCache cache(8);
    serve::JobJournal journal(dir, &cache);
    path = journal.stats().path;
    journal.record_accepted("ok", sample_request("ok"));
    journal.record_done("ok", sample_reply(1));
    journal.record_accepted("torn", sample_request("torn"));
  }
  // Tear mid-record, as a crash during the last append would.
  std::string bytes = read_file(path);
  write_file(path, bytes.substr(0, bytes.size() - 5));

  serve::ReplayCache cache(8);
  serve::JobJournal journal(dir, &cache);
  EXPECT_TRUE(cache.contains("ok"));
  EXPECT_TRUE(journal.recovered().empty())
      << "the torn ACCEPTED was never durable, so nothing re-enqueues";
  EXPECT_GT(journal.stats().torn_bytes, 0u);
}

TEST(JobJournal, CleanDrainCompactsToDoneOnlyRecords) {
  const std::string dir = make_temp_dir();
  serve::ReplayCache cache(8);
  serve::JobJournal journal(dir, &cache);
  for (int i = 0; i < 5; ++i) {
    const std::string key = "job-" + std::to_string(i);
    journal.record_accepted(key, sample_request(key));
    journal.record_started(key, "boot-1");
    journal.record_done(key, sample_reply(i));
  }
  journal.compact();

  // Walk the compacted log the same way the CI chaos gate does: every frame
  // must parse, and every record must be a DONE.
  const common::WalReadResult r = common::read_wal(journal.stats().path);
  EXPECT_EQ(r.torn_bytes, 0u);
  ASSERT_EQ(r.records.size(), 5u);
  for (const std::string& record : r.records) {
    const Value v = json::parse(record);
    EXPECT_EQ(v.get_string("t", ""), "done") << record;
  }
}

TEST(JobJournal, CompactionPreservesIncompleteJobs) {
  const std::string dir = make_temp_dir();
  serve::ReplayCache cache(8);
  serve::JobJournal journal(dir, &cache);
  journal.record_accepted("live", sample_request("live"));
  journal.compact();

  serve::ReplayCache cache2(8);
  serve::JobJournal reopened(dir, &cache2);
  ASSERT_EQ(reopened.recovered().size(), 1u);
  EXPECT_EQ(reopened.recovered()[0].key, "live");
}

// ---- job ledger ---------------------------------------------------------------

/// Stands in for a connection: collects what its ReplyWaiter sinks receive.
struct Inbox {
  std::vector<Value> replies;
  serve::ReplyWaiter waiter(std::uint64_t request_id) {
    return serve::ReplyWaiter{
        Value(request_id), [this](const Value& reply) { replies.push_back(reply); }};
  }
};

Value reply_for(std::uint64_t request_id, int gen) {
  Value reply = sample_reply(gen);
  reply.set("id", request_id);
  return reply;
}

using Admission = serve::JobLedger::Admission;

TEST(JobLedger, AttachedRetryGetsThePrimarysReply) {
  serve::JobLedger ledger("", 8);
  Inbox primary;
  Inbox retry;
  EXPECT_EQ(ledger.admit("k", primary.waiter(1)), Admission::kPrimary);
  EXPECT_EQ(ledger.admit("k", retry.waiter(2)), Admission::kAttached);
  EXPECT_TRUE(primary.replies.empty());
  EXPECT_TRUE(retry.replies.empty()) << "an attached retry waits for the run";

  ledger.complete("k", reply_for(1, 5));
  ASSERT_EQ(primary.replies.size(), 1u);
  EXPECT_EQ(primary.replies[0].find("id")->as_uint64(), 1u);
  EXPECT_FALSE(primary.replies[0].get_bool("replayed", false));
  ASSERT_EQ(retry.replies.size(), 1u);
  EXPECT_EQ(retry.replies[0].find("id")->as_uint64(), 2u);
  EXPECT_TRUE(retry.replies[0].get_bool("replayed", false));
  EXPECT_EQ(retry.replies[0].get_int("gen", 0), 5);
  EXPECT_EQ(ledger.attached(), 1u);
  EXPECT_EQ(ledger.duplicate_exec(), 0u);
}

TEST(JobLedger, CompletedKeyReplaysAcrossReopenAndASecondRunCounts) {
  const std::string dir = make_temp_dir();
  {
    serve::JobLedger ledger(dir, 8);
    Inbox first;
    ASSERT_EQ(ledger.admit("k", first.waiter(1)), Admission::kPrimary);
    ledger.journal().record_accepted("k", sample_request("k"));
    ledger.complete("k", reply_for(1, 7));

    // The cached reply goes straight to the retry's sink, re-stamped.
    Inbox retry;
    EXPECT_EQ(ledger.admit("k", retry.waiter(2)), Admission::kReplayed);
    ASSERT_EQ(retry.replies.size(), 1u);
    EXPECT_EQ(retry.replies[0].find("id")->as_uint64(), 2u);
    EXPECT_TRUE(retry.replies[0].get_bool("replayed", false));
    EXPECT_EQ(retry.replies[0].get_int("gen", 0), 7);
    EXPECT_EQ(ledger.replayed(), 1u);

    // Completing a key that already completed is the duplicate execution
    // the chaos gate watches for.
    ledger.complete("k", reply_for(1, 8));
    EXPECT_EQ(ledger.duplicate_exec(), 1u);
  }
  // The DONE record was durable: a restarted ledger replays, runs nothing.
  serve::JobLedger reopened(dir, 8);
  EXPECT_TRUE(reopened.journal().recovered().empty());
  Inbox later;
  EXPECT_EQ(reopened.admit("k", later.waiter(3)), Admission::kReplayed);
  ASSERT_EQ(later.replies.size(), 1u);
  EXPECT_EQ(later.replies[0].find("id")->as_uint64(), 3u);
}

TEST(JobLedger, RejectionBouncesEveryWaiterAndClosesTheKey) {
  const std::string dir = make_temp_dir();
  {
    serve::JobLedger ledger(dir, 8);
    Inbox primary;
    Inbox retry_a;
    Inbox retry_b;
    ASSERT_EQ(ledger.admit("k", primary.waiter(1)), Admission::kPrimary);
    ledger.journal().record_accepted("k", sample_request("k"));
    ASSERT_EQ(ledger.admit("k", retry_a.waiter(2)), Admission::kAttached);
    ASSERT_EQ(ledger.admit("k", retry_b.waiter(3)), Admission::kAttached);

    Value bounce = Value::object();
    bounce.set("id", 1);
    bounce.set("status", "error");
    ledger.reject("k", bounce);
    std::uint64_t want_id = 1;
    for (const Inbox* inbox : {&primary, &retry_a, &retry_b}) {
      ASSERT_EQ(inbox->replies.size(), 1u);
      EXPECT_EQ(inbox->replies[0].find("id")->as_uint64(), want_id++);
      EXPECT_EQ(inbox->replies[0].get_string("status", ""), "error");
      EXPECT_FALSE(inbox->replies[0].get_bool("replayed", false));
    }

    // Nothing was cached and nothing is in flight: the next try is primary.
    Inbox again;
    EXPECT_EQ(ledger.admit("k", again.waiter(4)), Admission::kPrimary);
    EXPECT_TRUE(again.replies.empty());
  }
  serve::JobLedger reopened(dir, 8);
  EXPECT_TRUE(reopened.journal().recovered().empty())
      << "a rejected key must not re-enqueue at recovery";
}

// ---- backoff ----------------------------------------------------------------

TEST(Backoff, ZeroJitterFollowsTheExactSchedule) {
  common::BackoffOptions opts;
  opts.initial_ms = 10.0;
  opts.max_ms = 100.0;
  opts.multiplier = 2.0;
  opts.jitter = 0.0;
  common::Backoff backoff(opts);
  EXPECT_DOUBLE_EQ(backoff.next_ms(), 10.0);
  EXPECT_DOUBLE_EQ(backoff.next_ms(), 20.0);
  EXPECT_DOUBLE_EQ(backoff.next_ms(), 40.0);
  EXPECT_DOUBLE_EQ(backoff.next_ms(), 80.0);
  EXPECT_DOUBLE_EQ(backoff.next_ms(), 100.0);  // capped
  EXPECT_DOUBLE_EQ(backoff.next_ms(), 100.0);
  EXPECT_EQ(backoff.attempts(), 6u);
  backoff.reset();
  EXPECT_DOUBLE_EQ(backoff.next_ms(), 10.0);
  EXPECT_EQ(backoff.attempts(), 1u);
}

TEST(Backoff, JitterStaysInsideItsBandAndIsSeedDeterministic) {
  common::BackoffOptions opts;
  opts.initial_ms = 100.0;
  opts.max_ms = 100.0;  // pin the base so only jitter varies
  opts.jitter = 0.25;
  common::Backoff a(opts, /*seed=*/42);
  common::Backoff b(opts, /*seed=*/42);
  bool varied = false;
  double prev = -1.0;
  for (int i = 0; i < 64; ++i) {
    const double ms = a.next_ms();
    EXPECT_GE(ms, 75.0);
    EXPECT_LE(ms, 125.0);
    EXPECT_DOUBLE_EQ(ms, b.next_ms()) << "same seed must replay identically";
    if (prev >= 0.0 && ms != prev) varied = true;
    prev = ms;
  }
  EXPECT_TRUE(varied) << "jitter never moved the delay";
}

// ---- linked cancellation + progress beacons --------------------------------

TEST(CancelToken, LinkedObservesParentButNeverTripsIt) {
  common::CancelToken parent = common::CancelToken::make();
  common::CancelToken child = common::CancelToken::linked(parent);
  EXPECT_FALSE(child.cancelled());

  child.request_cancel();  // watchdog cancels one job...
  EXPECT_TRUE(child.cancelled());
  EXPECT_FALSE(parent.cancelled()) << "...without stopping the scheduler";

  common::CancelToken sibling = common::CancelToken::linked(parent);
  parent.request_cancel();
  EXPECT_TRUE(sibling.cancelled()) << "scheduler stop reaches every job";
}

TEST(Deadline, ProgressBeaconCountsExpiredPolls) {
  auto beacon = std::make_shared<std::atomic<std::uint64_t>>(0);
  const common::Deadline deadline =
      common::Deadline::after_ms(60000.0).with_progress(beacon);
  EXPECT_FALSE(deadline.expired());
  EXPECT_FALSE(deadline.expired());
  EXPECT_FALSE(deadline.expired());
  EXPECT_EQ(beacon->load(), 3u)
      << "a cooperatively-polling job must look alive to the watchdog";
}

}  // namespace
}  // namespace qc
