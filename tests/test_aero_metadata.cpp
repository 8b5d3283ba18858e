#include "aero/metadata_db.hpp"

#include <gtest/gtest.h>

#include "aero/source.hpp"
#include "util/error.hpp"
#include "util/uuid.hpp"

namespace oa = osprey::aero;

TEST(MetadataDb, RegisterReturnsUuid) {
  oa::MetadataDb db;
  std::string uuid = db.register_object("ww/raw", "ingest-obrien");
  EXPECT_TRUE(osprey::util::looks_like_uuid(uuid));
  EXPECT_TRUE(db.has_object(uuid));
  EXPECT_EQ(db.object(uuid).name, "ww/raw");
  EXPECT_EQ(db.object(uuid).producer_flow, "ingest-obrien");
}

TEST(MetadataDb, UnknownObjectThrows) {
  oa::MetadataDb db;
  EXPECT_FALSE(db.has_object("nope"));
  EXPECT_THROW(db.object("nope"), osprey::util::NotFound);
  EXPECT_THROW(db.add_version("nope", "c", 1, 0, "e", "c", "p"),
               osprey::util::NotFound);
}

TEST(MetadataDb, VersionsAutoIncrement) {
  oa::MetadataDb db;
  std::string uuid = db.register_object("obj", "");
  EXPECT_EQ(db.latest_version_number(uuid), 0);
  EXPECT_FALSE(db.latest_version(uuid).has_value());
  const oa::DataVersion& v1 =
      db.add_version(uuid, "sum1", 100, 5, "eagle", "col", "p1");
  EXPECT_EQ(v1.version, 1);
  const oa::DataVersion& v2 =
      db.add_version(uuid, "sum2", 200, 9, "eagle", "col", "p2");
  EXPECT_EQ(v2.version, 2);
  auto latest = db.latest_version(uuid);
  ASSERT_TRUE(latest.has_value());
  EXPECT_EQ(latest->checksum, "sum2");
  EXPECT_EQ(latest->size_bytes, 200u);
  EXPECT_EQ(latest->timestamp, 9);
  EXPECT_EQ(db.object(uuid).versions.size(), 2u);
}

TEST(MetadataDb, RunLifecycle) {
  oa::MetadataDb db;
  std::string in = db.register_object("in", "");
  std::string out = db.register_object("out", "flow");
  db.add_version(in, "c", 1, 0, "e", "c", "p");
  std::uint64_t run = db.start_run("flow", oa::FlowKind::kAnalysis,
                                   "update of in", {{in, 1}}, "bebop", 10);
  EXPECT_EQ(db.run(run).status, oa::RunStatus::kRunning);
  db.finish_run(run, oa::RunStatus::kSucceeded, {{out, 1}}, 50);
  const oa::RunRecord& rec = db.run(run);
  EXPECT_EQ(rec.status, oa::RunStatus::kSucceeded);
  EXPECT_EQ(rec.started, 10);
  EXPECT_EQ(rec.ended, 50);
  ASSERT_EQ(rec.inputs.size(), 1u);
  EXPECT_EQ(rec.inputs[0].uuid, in);
  ASSERT_EQ(rec.outputs.size(), 1u);
  EXPECT_EQ(rec.outputs[0].uuid, out);
}

TEST(MetadataDb, CountsQueriesAndUpdates) {
  oa::MetadataDb db;
  std::uint64_t u0 = db.update_count();
  std::string uuid = db.register_object("obj", "");
  db.add_version(uuid, "c", 1, 0, "e", "c", "p");
  EXPECT_EQ(db.update_count(), u0 + 2);
  std::uint64_t q0 = db.query_count();
  db.latest_version(uuid);
  db.has_object(uuid);
  EXPECT_GT(db.query_count(), q0);
}

TEST(MetadataDb, ObjectUuidsSorted) {
  oa::MetadataDb db;
  db.register_object("a", "");
  db.register_object("b", "");
  auto uuids = db.object_uuids();
  EXPECT_EQ(uuids.size(), 2u);
  EXPECT_LT(uuids[0], uuids[1]);
}

TEST(MetadataDb, ProvenanceDotContainsNodesAndEdges) {
  oa::MetadataDb db;
  std::string in = db.register_object("source-data", "");
  std::string out = db.register_object("result", "analysis");
  db.add_version(in, "c", 1, 0, "e", "c", "p");
  std::uint64_t run = db.start_run("analysis", oa::FlowKind::kAnalysis, "t",
                                   {{in, 1}}, "ep", 0);
  db.add_version(out, "c2", 2, 1, "e", "c", "p2");
  db.finish_run(run, oa::RunStatus::kSucceeded, {{out, 1}}, 2);
  std::string dot = db.provenance_dot();
  EXPECT_NE(dot.find("digraph provenance"), std::string::npos);
  EXPECT_NE(dot.find("source-data"), std::string::npos);
  EXPECT_NE(dot.find("analysis#0"), std::string::npos);
  EXPECT_NE(dot.find("->"), std::string::npos);
}

TEST(ScriptedSource, RevealsByTime) {
  oa::ScriptedSource src("https://example/feed",
                         {{10, "v1"}, {20, "v2"}});
  EXPECT_FALSE(src.fetch(5) != nullptr);
  EXPECT_EQ(*src.fetch(10), "v1");
  EXPECT_EQ(*src.fetch(15), "v1");
  EXPECT_EQ(*src.fetch(25), "v2");
  EXPECT_EQ(src.fetch_count(), 4u);
  EXPECT_EQ(src.url(), "https://example/feed");
}

TEST(ScriptedSource, RejectsUnsortedTimeline) {
  EXPECT_THROW(
      oa::ScriptedSource("u", {{20, "a"}, {10, "b"}}),
      osprey::util::InvalidArgument);
}

TEST(MetadataDb, FindObjectsByNamePrefix) {
  oa::MetadataDb db;
  std::string a = db.register_object("rt/obrien/summary", "rt-flow");
  std::string b = db.register_object("rt/calumet/summary", "rt-flow");
  std::string c = db.register_object("plants/raw", "ingest");
  db.add_version(a, "c1", 1, 0, "e", "col", "p");

  auto rt = db.find_objects("rt/");
  ASSERT_EQ(rt.size(), 2u);
  EXPECT_EQ(rt[0].name, "rt/calumet/summary");  // sorted by name
  EXPECT_EQ(rt[1].name, "rt/obrien/summary");
  EXPECT_EQ(rt[1].latest_version, 1);
  EXPECT_EQ(rt[0].latest_version, 0);
  EXPECT_EQ(rt[0].producer_flow, "rt-flow");

  EXPECT_EQ(db.find_objects("").size(), 3u);
  EXPECT_TRUE(db.find_objects("nothing/").empty());
  (void)c;
}

// --- lineage edge cases ----------------------------------------------

TEST(MetadataDbLineage, EmptyDbThrowsForUnknownObject) {
  oa::MetadataDb db;
  EXPECT_THROW(db.upstream_lineage("nope"), osprey::util::NotFound);
  EXPECT_THROW(db.downstream_lineage("nope"), osprey::util::NotFound);
}

TEST(MetadataDbLineage, ObjectWithNoRunsIsItsOwnLineage) {
  oa::MetadataDb db;
  std::string lonely = db.register_object("lonely", "");
  oa::MetadataDb::Lineage up = db.upstream_lineage(lonely);
  EXPECT_EQ(up.object_uuids, std::vector<std::string>{lonely});
  EXPECT_TRUE(up.run_ids.empty());
  oa::MetadataDb::Lineage down = db.downstream_lineage(lonely);
  EXPECT_EQ(down.object_uuids, std::vector<std::string>{lonely});
  EXPECT_TRUE(down.run_ids.empty());
}

TEST(MetadataDbLineage, SelfReferentialRunTerminates) {
  // A run that reads AND writes the same object (an in-place refinement)
  // must not send the BFS into a cycle.
  oa::MetadataDb db;
  std::string obj = db.register_object("state", "refine");
  db.add_version(obj, "c1", 1, 0, "e", "col", "p");
  std::uint64_t run =
      db.start_run("refine", oa::FlowKind::kAnalysis, "t", {{obj, 1}}, "ep", 1);
  db.add_version(obj, "c2", 2, 2, "e", "col", "p");
  db.finish_run(run, oa::RunStatus::kSucceeded, {{obj, 2}}, 3);

  oa::MetadataDb::Lineage up = db.upstream_lineage(obj);
  EXPECT_EQ(up.object_uuids, std::vector<std::string>{obj});
  EXPECT_EQ(up.run_ids, std::vector<std::uint64_t>{run});
  oa::MetadataDb::Lineage down = db.downstream_lineage(obj);
  EXPECT_EQ(down.object_uuids, std::vector<std::string>{obj});
  EXPECT_EQ(down.run_ids, std::vector<std::uint64_t>{run});
}

TEST(MetadataDbLineage, TwoObjectCycleTerminatesAndCoversBoth) {
  oa::MetadataDb db;
  std::string a = db.register_object("a", "");
  std::string b = db.register_object("b", "");
  db.add_version(a, "ca", 1, 0, "e", "col", "p");
  std::uint64_t r1 =
      db.start_run("a-to-b", oa::FlowKind::kAnalysis, "t", {{a, 1}}, "ep", 1);
  db.add_version(b, "cb", 1, 2, "e", "col", "p");
  db.finish_run(r1, oa::RunStatus::kSucceeded, {{b, 1}}, 2);
  std::uint64_t r2 =
      db.start_run("b-to-a", oa::FlowKind::kAnalysis, "t", {{b, 1}}, "ep", 3);
  db.add_version(a, "ca2", 2, 4, "e", "col", "p");
  db.finish_run(r2, oa::RunStatus::kSucceeded, {{a, 2}}, 4);

  oa::MetadataDb::Lineage down = db.downstream_lineage(a);
  EXPECT_EQ(down.object_uuids.size(), 2u);
  EXPECT_EQ(down.run_ids.size(), 2u);
  oa::MetadataDb::Lineage up = db.upstream_lineage(b);
  EXPECT_EQ(up.object_uuids.size(), 2u);
}

TEST(MetadataDbLineage, ProvenanceDotIsByteIdenticalAcrossReplays) {
  // Two independent replays of the same mutation sequence must render
  // the exact same provenance bytes — the property the crash-recovery
  // acceptance check builds on.
  auto build = [] {
    oa::MetadataDb db;
    std::string raw = db.register_object("ww/raw", "ingest");
    std::string rt = db.register_object("ww/rt", "estimate");
    db.add_version(raw, "c1", 10, 0, "eagle", "col", "p");
    std::uint64_t run = db.start_run("estimate", oa::FlowKind::kAnalysis,
                                     "update", {{raw, 1}}, "bebop", 5);
    db.add_version(rt, "c2", 20, 6, "eagle", "col", "q");
    db.finish_run(run, oa::RunStatus::kSucceeded, {{rt, 1}}, 7);
    db.start_run("estimate", oa::FlowKind::kAnalysis, "update", {{raw, 1}},
                 "bebop", 9);  // left in flight on purpose
    return db.provenance_dot();
  };
  std::string first = build();
  std::string second = build();
  EXPECT_EQ(first, second);
  EXPECT_FALSE(first.empty());
}
