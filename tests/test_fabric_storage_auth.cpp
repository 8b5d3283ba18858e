#include <gtest/gtest.h>

#include <string>
#include <string_view>

#include "crypto/sha256.hpp"
#include "fabric/auth.hpp"
#include "fabric/event_loop.hpp"
#include "fabric/fault.hpp"
#include "fabric/storage.hpp"
#include "util/error.hpp"

namespace of = osprey::fabric;
namespace ou = osprey::util;

class StorageAuthTest : public ::testing::Test {
 protected:
  of::EventLoop loop;
  of::AuthService auth;
  of::StorageEndpoint eagle{"eagle", loop, auth};
  std::string alice = auth.issue_full_token("alice");
  std::string bob = auth.issue_full_token("bob");
};

TEST_F(StorageAuthTest, TokenValidation) {
  std::string t = auth.issue_token("carol", {of::scopes::kStorageRead});
  EXPECT_EQ(auth.identity_of(t), "carol");
  EXPECT_NO_THROW(auth.validate(t, of::scopes::kStorageRead));
  EXPECT_THROW(auth.validate(t, of::scopes::kStorageWrite), ou::AuthError);
  EXPECT_THROW(auth.validate("tok-bogus", of::scopes::kStorageRead),
               ou::AuthError);
}

// The three rejections and the injected expiry keep their texts.
TEST_F(StorageAuthTest, ValidateErrorMessages) {
  auto message = [&](const std::string& token, std::string_view scope) {
    try {
      auth.validate(token, scope);
    } catch (const ou::AuthError& e) {
      return std::string(e.what());
    }
    return std::string("accepted");
  };
  std::string t = auth.issue_token("carol", {of::scopes::kStorageRead});
  EXPECT_EQ(message("tok-bogus", of::scopes::kStorageRead), "unknown token");
  EXPECT_EQ(message(t, of::scopes::kStorageWrite),
            "token lacks scope: storage:write");
  EXPECT_EQ(message(t, of::scopes::kStorageRead), "accepted");
  EXPECT_EQ(message(t, ""), "accepted");
  auth.revoke(t);
  EXPECT_EQ(message(t, of::scopes::kStorageRead), "token revoked");

  of::FaultPlan plan(5);
  plan.set_rate(of::FaultKind::kAuthExpiry, 1.0);
  auth.set_fault_plan(&plan, &loop);
  std::string u = auth.issue_token("dave", {of::scopes::kServe});
  EXPECT_EQ(message(u, of::scopes::kServe),
            "token expired (injected): re-authenticate");
  EXPECT_EQ(message(u, ""), "accepted");
  ASSERT_EQ(plan.log().size(), 1u);
  auth.set_fault_plan(nullptr, nullptr);
}

TEST_F(StorageAuthTest, RevokedTokenRejected) {
  std::string t = auth.issue_full_token("dave");
  auth.revoke(t);
  EXPECT_THROW(auth.validate(t, of::scopes::kStorageRead), ou::AuthError);
}

TEST_F(StorageAuthTest, PutGetRoundTripWithChecksum) {
  eagle.create_collection("data", alice);
  std::string payload = "day,conc\n0,1.5\n";
  std::string checksum = eagle.put("data", "ww/raw.csv", payload, alice);
  EXPECT_EQ(checksum, osprey::crypto::Sha256::hash_hex(payload));
  const of::StoredObject& obj = eagle.get("data", "ww/raw.csv", alice);
  EXPECT_EQ(obj.bytes, payload);
  EXPECT_EQ(obj.checksum, checksum);
  EXPECT_EQ(obj.generation, 1u);
}

TEST_F(StorageAuthTest, OverwriteBumpsGenerationAndTimestamp) {
  eagle.create_collection("data", alice);
  eagle.put("data", "x", "v1", alice);
  loop.run_until(5 * ou::kMinute);
  eagle.put("data", "x", "v2", alice);
  const of::StoredObject& obj = eagle.get("data", "x", alice);
  EXPECT_EQ(obj.generation, 2u);
  EXPECT_EQ(obj.modified, 5 * ou::kMinute);
  EXPECT_EQ(obj.bytes, "v2");
}

TEST_F(StorageAuthTest, NonOwnerDeniedWithoutGrant) {
  eagle.create_collection("data", alice);
  eagle.put("data", "x", "secret", alice);
  EXPECT_THROW(eagle.get("data", "x", bob), ou::AuthError);
  EXPECT_THROW(eagle.put("data", "y", "z", bob), ou::AuthError);
}

TEST_F(StorageAuthTest, ReadGrantAllowsReadOnly) {
  eagle.create_collection("data", alice);
  eagle.put("data", "x", "shared", alice);
  eagle.grant("data", "bob", of::Permission::kRead, alice);
  EXPECT_EQ(eagle.get("data", "x", bob).bytes, "shared");
  EXPECT_THROW(eagle.put("data", "x", "nope", bob), ou::AuthError);
  EXPECT_EQ(eagle.permission_of("data", "bob"), of::Permission::kRead);
}

TEST_F(StorageAuthTest, ReadWriteGrant) {
  eagle.create_collection("data", alice);
  eagle.grant("data", "bob", of::Permission::kReadWrite, alice);
  EXPECT_NO_THROW(eagle.put("data", "b", "bob-data", bob));
  EXPECT_EQ(eagle.get("data", "b", bob).bytes, "bob-data");
}

TEST_F(StorageAuthTest, OnlyOwnerGrants) {
  eagle.create_collection("data", alice);
  EXPECT_THROW(eagle.grant("data", "eve", of::Permission::kRead, bob),
               ou::InvalidArgument);
}

TEST_F(StorageAuthTest, ListWithPrefix) {
  eagle.create_collection("data", alice);
  eagle.put("data", "rt/0/summary", "a", alice);
  eagle.put("data", "rt/1/summary", "b", alice);
  eagle.put("data", "plants/0/raw", "c", alice);
  std::vector<std::string> rt = eagle.list("data", "rt/", alice);
  EXPECT_EQ(rt.size(), 2u);
  EXPECT_EQ(eagle.list("data", "", alice).size(), 3u);
}

TEST_F(StorageAuthTest, RemoveAndMissingObject) {
  eagle.create_collection("data", alice);
  eagle.put("data", "x", "v", alice);
  EXPECT_TRUE(eagle.exists("data", "x"));
  eagle.remove("data", "x", alice);
  EXPECT_FALSE(eagle.exists("data", "x"));
  EXPECT_THROW(eagle.get("data", "x", alice), ou::NotFound);
  EXPECT_THROW(eagle.remove("data", "x", alice), ou::NotFound);
}

TEST_F(StorageAuthTest, UnknownCollectionThrows) {
  EXPECT_THROW(eagle.get("nope", "x", alice), ou::NotFound);
  EXPECT_FALSE(eagle.exists("nope", "x"));
}

TEST_F(StorageAuthTest, DuplicateCollectionThrows) {
  eagle.create_collection("data", alice);
  EXPECT_THROW(eagle.create_collection("data", alice), ou::InvalidArgument);
}

TEST_F(StorageAuthTest, BytesAccounting) {
  eagle.create_collection("data", alice);
  eagle.put("data", "x", "12345", alice);
  EXPECT_EQ(eagle.bytes_stored(), 5u);
  eagle.put("data", "x", "123", alice);  // overwrite shrinks
  EXPECT_EQ(eagle.bytes_stored(), 3u);
  eagle.put("data", "y", "zz", alice);
  EXPECT_EQ(eagle.bytes_stored(), 5u);
  eagle.remove("data", "y", alice);
  EXPECT_EQ(eagle.bytes_stored(), 3u);
  EXPECT_EQ(eagle.num_objects(), 1u);
}
