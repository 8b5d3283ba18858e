#pragma once

/// \file storage.hpp
/// Simulated Globus storage endpoint: named collections holding
/// checksummed objects with per-identity ACLs. Plays the role of the
/// ALCF "Eagle" Globus endpoint in the paper — the "bring your own
/// storage" half of AERO's design. Payloads live here, never in the
/// AERO metadata server.

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "fabric/auth.hpp"
#include "fabric/event_loop.hpp"
#include "fabric/fault.hpp"

namespace osprey::fabric {

enum class Permission { kNone, kRead, kReadWrite };

/// One stored blob plus its integrity/version metadata.
struct StoredObject {
  std::string bytes;
  std::string checksum;       // SHA-256 hex of bytes
  SimTime modified = 0;       // virtual time of the last write
  std::uint64_t generation = 0;  // bumped on every overwrite
};

/// A storage endpoint with collections, objects and ACLs.
class StorageEndpoint {
 public:
  /// `owner` has implicit read-write on every collection it creates.
  StorageEndpoint(std::string name, EventLoop& loop, AuthService& auth);

  const std::string& name() const { return name_; }

  /// Create a collection owned by the token's identity.
  void create_collection(const std::string& collection,
                         const std::string& token);

  /// Grant `identity` access to `collection`; caller must be the owner.
  /// Mirrors "outputs are directly shareable with public health
  /// stakeholders through standard Globus Collection permissions".
  void grant(const std::string& collection, const std::string& identity,
             Permission permission, const std::string& token);

  Permission permission_of(const std::string& collection,
                           const std::string& identity) const;

  /// Write an object (creates or overwrites). Requires storage:write and
  /// read-write permission on the collection. Returns the new checksum.
  std::string put(const std::string& collection, const std::string& path,
                  std::string bytes, const std::string& token);

  /// Read an object. Requires storage:read and at least read permission.
  const StoredObject& get(const std::string& collection,
                          const std::string& path,
                          const std::string& token) const;

  bool exists(const std::string& collection, const std::string& path) const;

  /// Paths in a collection with the given prefix, sorted.
  std::vector<std::string> list(const std::string& collection,
                                const std::string& prefix,
                                const std::string& token) const;

  void remove(const std::string& collection, const std::string& path,
              const std::string& token);

  // --- introspection for the workflow trace tables ---
  std::size_t num_objects() const;
  std::uint64_t bytes_stored() const { return bytes_stored_; }
  std::size_t puts() const { return puts_; }
  std::size_t gets() const { return gets_; }

 private:
  struct Collection {
    std::string owner;
    std::map<std::string, Permission> acl;
    std::map<std::string, StoredObject> objects;
  };

  const Collection& collection_for(const std::string& name) const;
  Collection& collection_for(const std::string& name);
  void require_permission(const Collection& col, const std::string& token,
                          Permission needed, std::string_view scope) const;

  void maybe_inject_acl_race(const std::string& collection) const;

  std::string name_;
  EventLoop& loop_;
  AuthService& auth_;
  std::map<std::string, Collection> collections_;
  std::uint64_t bytes_stored_ = 0;
  std::size_t puts_ = 0;
  mutable std::size_t gets_ = 0;
};

}  // namespace osprey::fabric
