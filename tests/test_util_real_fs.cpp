// util::RealFs, the on-disk DurableFs, driven directly and underneath a
// metadata WAL whose directory is nested like a sharded partition's
// ("wal/<key>"): creation of missing directories, atomic replace,
// pruning, sorted listing without temp files, and a recovery in a fresh
// Wal that restores the exact db.

#include "util/durable_fs.hpp"

#include <gtest/gtest.h>

#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include "aero/metadata_db.hpp"
#include "aero/wal.hpp"
#include "obs/metrics.hpp"

namespace oa = osprey::aero;
namespace ou = osprey::util;
namespace fs = std::filesystem;

namespace {

/// A fresh, uniquely named directory under the system temp directory,
/// removed with everything in it when the test ends.
class RealFsTest : public ::testing::Test {
 protected:
  void SetUp() override {
    std::string pattern =
        (fs::temp_directory_path() / "osprey-realfs-XXXXXX").string();
    ASSERT_NE(::mkdtemp(pattern.data()), nullptr);
    root_ = pattern;
  }
  void TearDown() override {
    std::error_code ec;
    fs::remove_all(root_, ec);
  }

  /// Drop a stray file straight onto the disk, bypassing RealFs.
  void plant(const std::string& path, const std::string& bytes) {
    std::ofstream out(fs::path(root_) / path, std::ios::binary);
    out << bytes;
  }

  std::string root_;
};

/// One deterministic metadata mutation per step: register an object
/// every third step, otherwise add a version to the newest object.
void mutate(oa::MetadataDb& db, int step) {
  std::vector<std::string> uuids = db.object_uuids();
  if (uuids.empty() || step % 3 == 0) {
    db.register_object("obj-" + std::to_string(step), "flow");
    return;
  }
  db.add_version(uuids.back(), "sum-" + std::to_string(step),
                 static_cast<std::uint64_t>(100 + step),
                 static_cast<ou::SimTime>(step) * 60'000, "eagle", "data",
                 "p/" + std::to_string(step));
}

}  // namespace

TEST_F(RealFsTest, AppendAndWriteCreateNestedDirectories) {
  ou::RealFs disk(root_);
  disk.append("a/b/log", "one");
  disk.append("a/b/log", "two");
  disk.write("c/d/e/snap", "whole");
  disk.sync();
  EXPECT_EQ(disk.read("a/b/log"), std::optional<std::string>("onetwo"));
  EXPECT_EQ(disk.read("c/d/e/snap"), std::optional<std::string>("whole"));
  EXPECT_FALSE(fs::exists(fs::path(root_) / "c/d/e/snap.tmp"));
  EXPECT_EQ(disk.sync_count(), 1u);

  disk.write("c/d/e/snap", "replaced");
  disk.remove("a/b/log");
  disk.remove("a/b/never-existed");
  disk.sync();
  EXPECT_EQ(disk.read("c/d/e/snap"), std::optional<std::string>("replaced"));
  EXPECT_FALSE(disk.read("a/b/log").has_value());
  EXPECT_EQ(disk.sync_count(), 2u);
}

TEST_F(RealFsTest, ListIsSortedAndSkipsTempFiles) {
  ou::RealFs disk(root_);
  for (const char* name : {"seg-3", "seg-1", "seg-2", "other-1"}) {
    disk.append(std::string("d/") + name, "x");
  }
  plant("d/seg-4.tmp", "half-written");
  plant("seg-9", "x");
  plant("seg-8.tmp", "x");
  EXPECT_EQ(disk.list("d/seg-"),
            (std::vector<std::string>{"d/seg-1", "d/seg-2", "d/seg-3"}));
  EXPECT_EQ(disk.list("d/"), (std::vector<std::string>{
                                 "d/other-1", "d/seg-1", "d/seg-2", "d/seg-3"}));
  EXPECT_EQ(disk.list("seg-"), (std::vector<std::string>{"seg-9"}));
  EXPECT_TRUE(disk.list("missing/").empty());
}

TEST_F(RealFsTest, WalOverRealFsRecoversCheckpointsAndTail) {
  oa::WalOptions options;
  options.dir = "wal/p0";
  std::string expected;
  {
    ou::RealFs disk(root_);
    osprey::obs::MetricsRegistry metrics;
    oa::MetadataDb db;
    oa::Wal wal(disk, options, metrics);
    oa::RecoveryStats fresh = wal.recover(db);
    EXPECT_FALSE(fresh.checkpoint_loaded);
    EXPECT_EQ(fresh.next_lsn, 1u);

    int step = 0;
    for (; step < 6; ++step) mutate(db, step);
    wal.checkpoint();  // lsn 6; prunes segment wal-1
    for (; step < 10; ++step) mutate(db, step);
    wal.checkpoint();  // lsn 10
    for (; step < 13; ++step) mutate(db, step);
    wal.checkpoint();  // lsn 13; prunes checkpoint-6 and segment wal-7
    for (; step < 18; ++step) mutate(db, step);
    expected = db.to_json().to_json();

    EXPECT_EQ(metrics.counter("aero_wal_appends_total").value(), 18u);
    EXPECT_EQ(metrics.counter("aero_wal_checkpoints_total").value(), 3u);
    EXPECT_EQ(disk.sync_count(),
              metrics.counter("aero_wal_fsyncs_total").value());
  }

  // A crash mid-checkpoint leaves a temp file next to the real ones;
  // recovery must neither list nor read it.
  plant("wal/p0/checkpoint-000000000099.tmp", "torn");

  ou::RealFs disk(root_);
  EXPECT_EQ(disk.list("wal/p0/"),
            (std::vector<std::string>{"wal/p0/checkpoint-000000000010",
                                      "wal/p0/checkpoint-000000000013",
                                      "wal/p0/wal-000000000011",
                                      "wal/p0/wal-000000000014"}));

  osprey::obs::MetricsRegistry metrics;
  oa::MetadataDb db;
  oa::Wal wal(disk, options, metrics);
  oa::RecoveryStats stats = wal.recover(db);
  EXPECT_TRUE(stats.checkpoint_loaded);
  EXPECT_EQ(stats.checkpoint_lsn, 13u);
  EXPECT_EQ(stats.replayed, 5u);
  EXPECT_EQ(stats.torn, 0u);
  EXPECT_EQ(stats.corrupt, 0u);
  EXPECT_EQ(stats.next_lsn, 19u);
  EXPECT_EQ(db.to_json().to_json(), expected);

  // The recovered log stays appendable.
  mutate(db, 18);
  EXPECT_EQ(wal.next_lsn(), 20u);
}
