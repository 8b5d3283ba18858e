#include "fabric/transfer.hpp"

#include <gtest/gtest.h>

#include <vector>

#include "util/error.hpp"

namespace of = osprey::fabric;
namespace ou = osprey::util;

class TransferTest : public ::testing::Test {
 protected:
  of::EventLoop loop;
  of::AuthService auth;
  of::StorageEndpoint src{"src", loop, auth};
  of::StorageEndpoint dst{"dst", loop, auth};
  of::TransferService transfers{loop, auth, 2 * ou::kSecond, 1.0e6};
  std::string token = auth.issue_full_token("mover");

  void SetUp() override {
    src.create_collection("c", token);
    dst.create_collection("c", token);
  }
};

TEST_F(TransferTest, CopiesBytesAndVerifiesChecksum) {
  src.put("c", "a.csv", "payload-bytes", token);
  bool done = false;
  transfers.transfer(src, "c", "a.csv", dst, "c", "b.csv", token,
                     [&](const of::TransferRecord& rec) {
                       done = true;
                       EXPECT_EQ(rec.status, of::TransferStatus::kSucceeded);
                       EXPECT_EQ(rec.bytes, 13u);
                     });
  EXPECT_FALSE(dst.exists("c", "b.csv"));  // async: not yet
  loop.run_all();
  EXPECT_TRUE(done);
  EXPECT_EQ(dst.get("c", "b.csv", token).bytes, "payload-bytes");
  EXPECT_EQ(dst.get("c", "b.csv", token).checksum,
            src.get("c", "a.csv", token).checksum);
}

TEST_F(TransferTest, DurationFollowsCostModel) {
  // 1 MB at 1 MB/s + 2 s latency = 3 s.
  std::string big(1'000'000, 'x');
  src.put("c", "big", big, token);
  ou::SimTime took = -1;
  transfers.transfer(src, "c", "big", dst, "c", "big", token,
                     [&](const of::TransferRecord& rec) {
                       took = rec.completed - rec.submitted;
                     });
  loop.run_all();
  EXPECT_EQ(took, 3 * ou::kSecond);
}

TEST_F(TransferTest, SnapshotsSourceAtSubmission) {
  src.put("c", "f", "version-1", token);
  transfers.transfer(src, "c", "f", dst, "c", "f", token);
  src.put("c", "f", "version-2-longer", token);  // overwrite mid-flight
  loop.run_all();
  EXPECT_EQ(dst.get("c", "f", token).bytes, "version-1");
}

TEST_F(TransferTest, MissingSourceFails) {
  bool done = false;
  of::TransferStatus status = of::TransferStatus::kInFlight;
  transfers.transfer(src, "c", "missing", dst, "c", "x", token,
                     [&](const of::TransferRecord& rec) {
                       done = true;
                       status = rec.status;
                       EXPECT_FALSE(rec.error.empty());
                     });
  loop.run_all();
  EXPECT_TRUE(done);
  EXPECT_EQ(status, of::TransferStatus::kFailed);
  EXPECT_EQ(transfers.completed_count(), 0u);
  EXPECT_EQ(transfers.in_flight(), 0u);
}

TEST_F(TransferTest, RequiresTransferScope) {
  std::string weak = auth.issue_token("weak", {of::scopes::kStorageRead});
  EXPECT_THROW(
      transfers.transfer(src, "c", "a", dst, "c", "a", weak),
      ou::AuthError);
}

TEST_F(TransferTest, RecordsAccumulate) {
  src.put("c", "a", "1", token);
  src.put("c", "b", "2", token);
  std::vector<of::TransferId> completed;
  auto on_done = [&](const of::TransferRecord& rec) {
    completed.push_back(rec.id);
  };
  EXPECT_EQ(transfers.transfer(src, "c", "a", dst, "c", "a", token, on_done),
            0u);
  EXPECT_EQ(transfers.transfer(src, "c", "b", dst, "c", "b", token, on_done),
            1u);
  EXPECT_EQ(transfers.in_flight(), 2u);
  loop.run_all();
  EXPECT_EQ(completed, (std::vector<of::TransferId>{0, 1}));
  EXPECT_EQ(transfers.completed_count(), 2u);
  // Completed records are retired; the callback had the last look.
  EXPECT_EQ(transfers.in_flight(), 0u);
}
