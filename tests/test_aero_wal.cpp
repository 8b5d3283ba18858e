// WAL framing, torn/corrupt-log fuzzing, and snapshot round-trip
// property tests for the durable AERO metadata layer (DESIGN.md §4f).

#include "aero/wal.hpp"

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "aero/metadata_db.hpp"
#include "obs/metrics.hpp"
#include "util/durable_fs.hpp"
#include "util/error.hpp"

namespace oa = osprey::aero;
namespace ou = osprey::util;

namespace {

/// splitmix64 finalizer: the repo's counter-based determinism idiom —
/// no global RNG, every "random" choice is a pure function of its key.
std::uint64_t mix64(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

std::string db_bytes(const oa::MetadataDb& db) {
  return db.to_json().to_json() + "\n" + db.provenance_dot();
}

/// One deterministic mutation, chosen from the db's current state, so
/// the identical op sequence can be re-issued against a recovered db.
void scripted_op(oa::MetadataDb& db, std::uint64_t seed, std::uint64_t i) {
  std::uint64_t h = mix64(seed * 1000003 + i);
  std::vector<std::string> uuids = db.object_uuids();
  std::vector<std::uint64_t> open;
  for (const oa::RunRecord& r : db.runs()) {
    if (r.status == oa::RunStatus::kRunning) open.push_back(r.run_id);
  }
  std::uint64_t pick = h % 100;
  if (uuids.empty() || pick < 20) {
    db.register_object("obj-" + std::to_string(i),
                       "flow-" + std::to_string(h % 3));
  } else if (pick < 55) {
    const std::string& uuid = uuids[mix64(h) % uuids.size()];
    db.add_version(uuid, "sum-" + std::to_string(h % 9973),
                   h % 5000 + 1, static_cast<ou::SimTime>(i) * 60'000,
                   "eagle", "ww-rt", "p/" + std::to_string(i));
  } else if (pick < 80 || open.empty()) {
    const std::string& in = uuids[mix64(h + 1) % uuids.size()];
    db.start_run("flow-" + std::to_string(h % 4),
                 (h & 1) ? oa::FlowKind::kAnalysis : oa::FlowKind::kIngestion,
                 "op-" + std::to_string(i),
                 {{in, db.latest_version_number(in)}}, "bebop",
                 static_cast<ou::SimTime>(i) * 60'000);
  } else {
    const std::string& out = uuids[mix64(h + 2) % uuids.size()];
    db.finish_run(open[mix64(h + 3) % open.size()],
                  (h & 2) ? oa::RunStatus::kSucceeded : oa::RunStatus::kFailed,
                  {{out, db.latest_version_number(out)}},
                  static_cast<ou::SimTime>(i) * 60'000 + 30'000);
  }
}

/// Record a small log into `fs` (single segment: checkpoints disabled)
/// and capture the db state after every op, so fuzz recoveries can be
/// checked against the exact prefix they should restore.
std::vector<std::string> record_log(ou::MemFs& fs, std::uint64_t seed,
                                    std::uint64_t ops) {
  oa::MetadataDb db;
  osprey::obs::MetricsRegistry metrics;
  oa::Wal wal(fs, oa::WalOptions{}, metrics);
  wal.recover(db);
  std::vector<std::string> states;
  states.push_back(db_bytes(db));  // state after 0 ops
  for (std::uint64_t i = 0; i < ops; ++i) {
    scripted_op(db, seed, i);
    states.push_back(db_bytes(db));
  }
  return states;
}

/// Number of whole records in the first `len` bytes of a segment.
std::size_t records_within(const std::string& bytes, std::size_t len) {
  std::size_t offset = 0;
  std::size_t count = 0;
  while (offset < len) {
    oa::DecodedRecord d = oa::decode_record(bytes, offset);
    if (d.status != oa::DecodeStatus::kOk || offset + d.consumed > len) break;
    offset += d.consumed;
    ++count;
  }
  return count;
}

}  // namespace

// --- framing ---------------------------------------------------------

TEST(WalFraming, EncodeDecodeRoundTrip) {
  std::string payload = "{\"op\":\"noop\",\"lsn\":1}";
  std::string frame = oa::encode_record(payload);
  EXPECT_EQ(frame.size(), 4 + 32 + payload.size());
  oa::DecodedRecord d = oa::decode_record(frame, 0);
  EXPECT_EQ(d.status, oa::DecodeStatus::kOk);
  EXPECT_EQ(d.payload, payload);
  EXPECT_EQ(d.consumed, frame.size());
}

TEST(WalFraming, EmptyPayloadIsValid) {
  std::string frame = oa::encode_record("");
  oa::DecodedRecord d = oa::decode_record(frame, 0);
  EXPECT_EQ(d.status, oa::DecodeStatus::kOk);
  EXPECT_EQ(d.payload, "");
}

TEST(WalFraming, SequentialRecordsDecodeAtOffsets) {
  std::string buffer = oa::encode_record("first") + oa::encode_record("second");
  oa::DecodedRecord a = oa::decode_record(buffer, 0);
  ASSERT_EQ(a.status, oa::DecodeStatus::kOk);
  oa::DecodedRecord b = oa::decode_record(buffer, a.consumed);
  ASSERT_EQ(b.status, oa::DecodeStatus::kOk);
  EXPECT_EQ(a.payload, "first");
  EXPECT_EQ(b.payload, "second");
}

TEST(WalFraming, EveryTruncationIsTornNeverOk) {
  std::string frame = oa::encode_record("some payload bytes");
  for (std::size_t len = 0; len < frame.size(); ++len) {
    oa::DecodedRecord d = oa::decode_record(frame.substr(0, len), 0);
    EXPECT_EQ(d.status, oa::DecodeStatus::kTorn) << "at length " << len;
  }
}

TEST(WalFraming, ChecksumFlipIsCorrupt) {
  std::string frame = oa::encode_record("payload");
  for (std::size_t i = 4; i < frame.size(); ++i) {  // skip the length field
    std::string damaged = frame;
    damaged[i] = static_cast<char>(damaged[i] ^ 0x40);
    oa::DecodedRecord d = oa::decode_record(damaged, 0);
    EXPECT_EQ(d.status, oa::DecodeStatus::kCorrupt) << "at byte " << i;
  }
}

TEST(WalFraming, DecodePastEndIsTorn) {
  EXPECT_EQ(oa::decode_record("", 0).status, oa::DecodeStatus::kTorn);
  EXPECT_EQ(oa::decode_record("abc", 7).status, oa::DecodeStatus::kTorn);
}

// --- torn/corrupt-WAL fuzzing ----------------------------------------

TEST(WalFuzz, TruncateAtEveryByteOffsetRecoversLongestPrefix) {
  ou::MemFs pristine;
  std::vector<std::string> states = record_log(pristine, /*seed=*/7, 12);
  std::vector<std::string> segments = pristine.list("aero-wal/wal-");
  ASSERT_EQ(segments.size(), 1u);
  const std::string segment = segments[0];
  const std::string bytes = *pristine.read(segment);

  for (std::size_t cut = 0; cut <= bytes.size(); ++cut) {
    ou::MemFs fs = pristine;
    fs.truncate_tail(segment, cut);
    std::size_t expected = records_within(bytes, bytes.size() - cut);

    oa::MetadataDb db;
    osprey::obs::MetricsRegistry metrics;
    oa::Wal wal(fs, oa::WalOptions{}, metrics);
    oa::RecoveryStats stats;
    ASSERT_NO_THROW(stats = wal.recover(db)) << "cut " << cut;
    EXPECT_EQ(stats.replayed, expected) << "cut " << cut;
    EXPECT_EQ(db_bytes(db), states[expected]) << "cut " << cut;
    // A clean record boundary leaves nothing torn; anything else leaves
    // exactly one torn tail.
    EXPECT_LE(stats.torn, 1u) << "cut " << cut;
    EXPECT_EQ(stats.corrupt, 0u) << "cut " << cut;
  }
}

TEST(WalFuzz, BitFlipAtEveryByteRejectsDamagedRecord) {
  ou::MemFs pristine;
  std::vector<std::string> states = record_log(pristine, /*seed=*/11, 10);
  std::vector<std::string> segments = pristine.list("aero-wal/wal-");
  ASSERT_EQ(segments.size(), 1u);
  const std::string segment = segments[0];
  const std::string bytes = *pristine.read(segment);

  // Record boundaries of the pristine log, so we know which record each
  // flipped byte lands in.
  std::vector<std::size_t> starts;
  std::size_t offset = 0;
  while (offset < bytes.size()) {
    starts.push_back(offset);
    offset += oa::decode_record(bytes, offset).consumed;
  }

  for (std::size_t flip = 0; flip < bytes.size(); ++flip) {
    ou::MemFs fs = pristine;
    fs.flip_byte(segment, flip, 0x20);
    std::size_t damaged_record = 0;
    while (damaged_record + 1 < starts.size() &&
           starts[damaged_record + 1] <= flip) {
      ++damaged_record;
    }

    oa::MetadataDb db;
    osprey::obs::MetricsRegistry metrics;
    oa::Wal wal(fs, oa::WalOptions{}, metrics);
    oa::RecoveryStats stats;
    ASSERT_NO_THROW(stats = wal.recover(db)) << "flip " << flip;
    // The damaged record and everything after it are rejected; the
    // prefix before it survives byte-identically.
    EXPECT_EQ(stats.replayed, damaged_record) << "flip " << flip;
    EXPECT_GE(stats.torn + stats.corrupt, 1u) << "flip " << flip;
    EXPECT_EQ(db_bytes(db), states[damaged_record]) << "flip " << flip;
  }
}

TEST(WalFuzz, DamagedLogStaysAppendableAfterRecovery) {
  ou::MemFs fs;
  record_log(fs, /*seed=*/3, 8);
  std::string segment = fs.list("aero-wal/wal-")[0];
  fs.truncate_tail(segment, 10);  // tear the final record

  oa::MetadataDb db;
  osprey::obs::MetricsRegistry metrics;
  oa::Wal wal(fs, oa::WalOptions{}, metrics);
  oa::RecoveryStats stats = wal.recover(db);
  std::uint64_t applied = stats.checkpoint_lsn + stats.replayed;
  // Re-issue the lost tail plus fresh ops; then a second recovery must
  // reproduce the continued state exactly.
  for (std::uint64_t i = applied; i < 14; ++i) scripted_op(db, 3, i);
  std::string expected = db_bytes(db);

  oa::MetadataDb db2;
  oa::Wal wal2(fs, oa::WalOptions{}, metrics);
  oa::RecoveryStats stats2 = wal2.recover(db2);
  EXPECT_EQ(stats2.torn, 0u);
  EXPECT_EQ(stats2.corrupt, 0u);
  EXPECT_EQ(db_bytes(db2), expected);
}

// --- checkpoints -----------------------------------------------------

TEST(WalCheckpoint, AutomaticCheckpointsBoundReplayAndPruneSegments) {
  ou::MemFs fs;
  oa::WalOptions opts;
  opts.checkpoint_every = 5;
  {
    oa::MetadataDb db;
    osprey::obs::MetricsRegistry metrics;
    oa::Wal wal(fs, opts, metrics);
    wal.recover(db);
    for (std::uint64_t i = 0; i < 23; ++i) scripted_op(db, 21, i);
  }
  // 23 appends with a checkpoint every 5: generations exist, only the
  // newest two are retained.
  std::vector<std::string> checkpoints = fs.list("aero-wal/checkpoint-");
  EXPECT_EQ(checkpoints.size(), 2u);

  oa::MetadataDb db;
  osprey::obs::MetricsRegistry metrics;
  oa::Wal wal(fs, opts, metrics);
  oa::RecoveryStats stats = wal.recover(db);
  EXPECT_TRUE(stats.checkpoint_loaded);
  EXPECT_EQ(stats.checkpoint_lsn + stats.replayed, 23u);
  EXPECT_LT(stats.replayed, 23u);  // the checkpoint did bound the replay
}

TEST(WalCheckpoint, CorruptNewestCheckpointFallsBackToOlderGeneration) {
  ou::MemFs fs;
  oa::WalOptions opts;
  opts.checkpoint_every = 4;
  std::string expected;
  {
    oa::MetadataDb db;
    osprey::obs::MetricsRegistry metrics;
    oa::Wal wal(fs, opts, metrics);
    wal.recover(db);
    for (std::uint64_t i = 0; i < 17; ++i) scripted_op(db, 5, i);
    expected = db_bytes(db);
  }
  std::vector<std::string> checkpoints = fs.list("aero-wal/checkpoint-");
  ASSERT_EQ(checkpoints.size(), 2u);
  fs.flip_byte(checkpoints.back(), 40, 0x08);  // damage the newest

  oa::MetadataDb db;
  osprey::obs::MetricsRegistry metrics;
  oa::Wal wal(fs, opts, metrics);
  oa::RecoveryStats stats = wal.recover(db);
  EXPECT_TRUE(stats.checkpoint_loaded);
  EXPECT_GE(stats.corrupt, 1u);
  // The older generation plus the (longer) WAL tail restores the exact
  // same state — segments since the older checkpoint were retained.
  EXPECT_EQ(db_bytes(db), expected);
}

TEST(WalCheckpoint, ExplicitCheckpointTruncatesReplay) {
  ou::MemFs fs;
  oa::MetadataDb db;
  osprey::obs::MetricsRegistry metrics;
  oa::Wal wal(fs, oa::WalOptions{}, metrics);
  wal.recover(db);
  for (std::uint64_t i = 0; i < 6; ++i) scripted_op(db, 9, i);
  wal.checkpoint();
  scripted_op(db, 9, 6);

  oa::MetadataDb db2;
  oa::Wal wal2(fs, oa::WalOptions{}, metrics);
  oa::RecoveryStats stats = wal2.recover(db2);
  EXPECT_TRUE(stats.checkpoint_loaded);
  EXPECT_EQ(stats.checkpoint_lsn, 6u);
  EXPECT_EQ(stats.replayed, 1u);
  EXPECT_EQ(db_bytes(db2), db_bytes(db));
}

TEST(WalCheckpoint, ObservabilityCountersTrackWalActivity) {
  ou::MemFs fs;
  osprey::obs::MetricsRegistry metrics;
  oa::MetadataDb db;
  oa::Wal wal(fs, oa::WalOptions{}, metrics);
  wal.recover(db);
  for (std::uint64_t i = 0; i < 4; ++i) scripted_op(db, 2, i);
  wal.checkpoint();
  EXPECT_EQ(metrics.counter("aero_wal_appends_total").value(), 4u);
  EXPECT_EQ(metrics.counter("aero_wal_checkpoints_total").value(), 1u);
  EXPECT_EQ(metrics.counter("aero_wal_recoveries_total").value(), 1u);
  EXPECT_GE(metrics.counter("aero_wal_fsyncs_total").value(), 5u);

  oa::MetadataDb db2;
  oa::Wal wal2(fs, oa::WalOptions{}, metrics);
  wal2.recover(db2);
  EXPECT_EQ(metrics.counter("aero_wal_recoveries_total").value(), 2u);
  EXPECT_EQ(metrics.counter("aero_wal_replayed_records_total").value(), 0u);
}

// --- snapshot round-trip property (randomized records) ---------------

TEST(MetadataSnapshot, RandomizedRoundTripIsByteIdentical) {
  for (std::uint64_t seed = 0; seed < 24; ++seed) {
    oa::MetadataDb db;
    // The scripted ops routinely leave runs in flight, so the kRunning /
    // ended=-1 sentinel is exercised across the instances.
    for (std::uint64_t i = 0; i < 15 + seed % 10; ++i) {
      scripted_op(db, 1000 + seed, i);
    }
    std::string bytes = db.to_json().to_json();
    oa::MetadataDb restored =
        oa::MetadataDb::from_json(ou::Value::parse_json(bytes));
    EXPECT_EQ(restored.to_json().to_json(), bytes) << "seed " << seed;
    EXPECT_EQ(restored.uuid_state(), db.uuid_state()) << "seed " << seed;
    EXPECT_EQ(restored.provenance_dot(), db.provenance_dot())
        << "seed " << seed;
    // The restored db must CONTINUE identically: same uuid draws, same
    // version numbering, same run ids.
    scripted_op(db, 2000 + seed, 0);
    scripted_op(restored, 2000 + seed, 0);
    EXPECT_EQ(restored.to_json().to_json(), db.to_json().to_json())
        << "seed " << seed;
  }
}

TEST(MetadataSnapshot, InFlightRunSentinelRoundTrips) {
  oa::MetadataDb db;
  std::string in = db.register_object("in", "");
  db.add_version(in, "c", 1, 0, "e", "col", "p");
  db.start_run("flow", oa::FlowKind::kAnalysis, "t", {{in, 1}}, "ep", 42);
  oa::MetadataDb restored = oa::MetadataDb::from_json(db.to_json());
  EXPECT_EQ(restored.run(0).status, oa::RunStatus::kRunning);
  EXPECT_EQ(restored.run(0).ended, -1);
  EXPECT_EQ(restored.run(0).started, 42);
}

TEST(MetadataSnapshot, UnknownFormatThrows) {
  oa::MetadataDb db;
  db.register_object("legacy", "flow");
  // Format 2 is the only snapshot format: format 1 (no uuid_state) is
  // rejected like any unknown one.
  for (std::int64_t format : {std::int64_t{1}, std::int64_t{99}}) {
    ou::Value snapshot = db.to_json();
    snapshot.as_object()["snapshot_format"] = ou::Value(format);
    if (format == 1) snapshot.as_object().erase("uuid_state");
    EXPECT_THROW(oa::MetadataDb::from_json(snapshot), ou::InvalidArgument)
        << "format " << format;
  }
}

// --- operation-record bytes -------------------------------------------

// Pins the exact bytes of every operation record a mutation hands the
// WAL hook. The WAL appends these records (plus "lsn") verbatim, so any
// change here changes on-disk logs and breaks recovery of old ones.
TEST(MetadataDb, WalRecordsGoldenBytes) {
  oa::MetadataDb db;
  std::vector<ou::Value> records;
  db.set_wal_hook(
      [&records](ou::Value record) { records.push_back(std::move(record)); });

  const std::string a = db.register_object("feed/a", "ingest-a");
  const std::string b = db.register_object("feed \"b\"\n", "");
  const std::string c = db.register_object("estimate", "analysis");
  db.add_version(a, "ab12", 4096, 3'600'000, "eagle", "ww-rt", "a/v1.csv");
  db.add_version(b, "cd34", 0, 7'200'000, "eagle", "ww-rt", "b/v1.csv");
  db.add_version(c, "ef56", 1ULL << 40, 0, "bebop", "out", "c/v1.json");
  const std::uint64_t r0 = db.start_run(
      "ingest-a", oa::FlowKind::kIngestion, "poll", {}, "bebop", 3'600'000);
  const std::uint64_t r1 =
      db.start_run("analysis", oa::FlowKind::kAnalysis, "update of " + a,
                   {{a, 1}}, "bebop", 3'600'500);
  const std::uint64_t r2 =
      db.start_run("aggregate", oa::FlowKind::kAnalysis, "round 1",
                   {{a, 1}, {b, 1}, {c, 1}}, "hub", 7'200'000);
  const std::uint64_t r3 = db.start_run(
      "ingest-b", oa::FlowKind::kIngestion, "poll\t2", {{b, 1}}, "", -1);
  db.finish_run(r0, oa::RunStatus::kSucceeded, {}, 3'600'100);
  db.finish_run(r1, oa::RunStatus::kSucceeded, {{c, 1}, {a, 1}}, 3'601'000);
  db.finish_run(r2, oa::RunStatus::kFailed, {}, 7'200'001);
  db.finish_run(r3, oa::RunStatus::kFailed, {{b, 1}, {c, 1}}, 9'000'000);

  const std::vector<std::string> golden = {
      R"({"name":"feed/a","op":"register_object",)"
      R"("producer_flow":"ingest-a",)"
      R"("uuid":"3b09f4c4-6fb2-449c-a39f-3cf74d3abf72"})",
      R"({"name":"feed \"b\"\n","op":"register_object",)"
      R"("producer_flow":"",)"
      R"("uuid":"b4cf5548-4fcf-4c3a-bb59-e1bc96310fd4"})",
      R"({"name":"estimate","op":"register_object",)"
      R"("producer_flow":"analysis",)"
      R"("uuid":"3f0a7142-2e7c-4060-82d2-0940a755e534"})",
      R"({"checksum":"ab12","collection":"ww-rt","endpoint":"eagle",)"
      R"("op":"add_version","path":"a/v1.csv","size_bytes":4096,)"
      R"("timestamp":3600000,)"
      R"("uuid":"3b09f4c4-6fb2-449c-a39f-3cf74d3abf72","version":1})",
      R"({"checksum":"cd34","collection":"ww-rt","endpoint":"eagle",)"
      R"("op":"add_version","path":"b/v1.csv","size_bytes":0,)"
      R"("timestamp":7200000,)"
      R"("uuid":"b4cf5548-4fcf-4c3a-bb59-e1bc96310fd4","version":1})",
      R"({"checksum":"ef56","collection":"out","endpoint":"bebop",)"
      R"("op":"add_version","path":"c/v1.json",)"
      R"("size_bytes":1099511627776,"timestamp":0,)"
      R"("uuid":"3f0a7142-2e7c-4060-82d2-0940a755e534","version":1})",
      R"({"compute_endpoint":"bebop","flow_name":"ingest-a",)"
      R"("inputs":[],"kind":"ingestion","op":"start_run","run_id":0,)"
      R"("started":3600000,"trigger":"poll"})",
      R"({"compute_endpoint":"bebop","flow_name":"analysis",)"
      R"("inputs":[{"uuid":"3b09f4c4-6fb2-449c-a39f-3cf74d3abf72",)"
      R"("version":1}],"kind":"analysis","op":"start_run","run_id":1,)"
      R"("started":3600500,)"
      R"("trigger":"update of 3b09f4c4-6fb2-449c-a39f-3cf74d3abf72"})",
      R"({"compute_endpoint":"hub","flow_name":"aggregate",)"
      R"("inputs":[{"uuid":"3b09f4c4-6fb2-449c-a39f-3cf74d3abf72",)"
      R"("version":1},{"uuid":"b4cf5548-4fcf-4c3a-bb59-e1bc96310fd4",)"
      R"("version":1},{"uuid":"3f0a7142-2e7c-4060-82d2-0940a755e534",)"
      R"("version":1}],"kind":"analysis","op":"start_run","run_id":2,)"
      R"("started":7200000,"trigger":"round 1"})",
      R"({"compute_endpoint":"","flow_name":"ingest-b",)"
      R"("inputs":[{"uuid":"b4cf5548-4fcf-4c3a-bb59-e1bc96310fd4",)"
      R"("version":1}],"kind":"ingestion","op":"start_run","run_id":3,)"
      R"("started":-1,"trigger":"poll\t2"})",
      R"({"ended":3600100,"op":"finish_run","outputs":[],"run_id":0,)"
      R"("status":"succeeded"})",
      R"({"ended":3601000,"op":"finish_run",)"
      R"("outputs":[{"uuid":"3f0a7142-2e7c-4060-82d2-0940a755e534",)"
      R"("version":1},{"uuid":"3b09f4c4-6fb2-449c-a39f-3cf74d3abf72",)"
      R"("version":1}],"run_id":1,"status":"succeeded"})",
      R"({"ended":7200001,"op":"finish_run","outputs":[],"run_id":2,)"
      R"("status":"failed"})",
      R"({"ended":9000000,"op":"finish_run",)"
      R"("outputs":[{"uuid":"b4cf5548-4fcf-4c3a-bb59-e1bc96310fd4",)"
      R"("version":1},{"uuid":"3f0a7142-2e7c-4060-82d2-0940a755e534",)"
      R"("version":1}],"run_id":3,"status":"failed"})",
  };
  ASSERT_EQ(records.size(), golden.size());
  for (std::size_t i = 0; i < records.size(); ++i) {
    EXPECT_EQ(records[i].to_json(), golden[i]) << "record " << i;
  }

  // Replaying the recorded records rebuilds the live database exactly.
  oa::MetadataDb replayed;
  for (const ou::Value& record : records) replayed.apply_replay(record);
  EXPECT_EQ(replayed.to_json().to_json(), db.to_json().to_json());
  EXPECT_EQ(replayed.provenance_dot(), db.provenance_dot());
}
