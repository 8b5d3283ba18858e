#include "fabric/storage.hpp"

#include "crypto/sha256.hpp"
#include "util/error.hpp"

namespace osprey::fabric {

StorageEndpoint::StorageEndpoint(std::string name, EventLoop& loop,
                                 AuthService& auth)
    : name_(std::move(name)), loop_(loop), auth_(auth) {}

void StorageEndpoint::create_collection(const std::string& collection,
                                        const std::string& token) {
  const TokenInfo& info = auth_.validate(token, scopes::kStorageWrite);
  OSPREY_REQUIRE(!collection.empty(), "collection name must not be empty");
  OSPREY_REQUIRE(collections_.count(collection) == 0,
                 "collection already exists: " + collection);
  Collection col;
  col.owner = info.identity;
  collections_.emplace(collection, std::move(col));
}

const StorageEndpoint::Collection& StorageEndpoint::collection_for(
    const std::string& name) const {
  auto it = collections_.find(name);
  if (it == collections_.end()) {
    throw osprey::util::NotFound("no such collection: " + name);
  }
  return it->second;
}

StorageEndpoint::Collection& StorageEndpoint::collection_for(
    const std::string& name) {
  return const_cast<Collection&>(
      static_cast<const StorageEndpoint*>(this)->collection_for(name));
}

void StorageEndpoint::require_permission(const Collection& col,
                                         const std::string& token,
                                         Permission needed,
                                         std::string_view scope) const {
  const TokenInfo& info = auth_.validate(token, scope);
  if (info.identity == col.owner) return;  // owner always has full access
  auto it = col.acl.find(info.identity);
  Permission have = (it == col.acl.end()) ? Permission::kNone : it->second;
  bool ok = (needed == Permission::kRead)
                ? (have == Permission::kRead || have == Permission::kReadWrite)
                : (have == Permission::kReadWrite);
  if (!ok) {
    throw osprey::util::AuthError("identity '" + info.identity +
                                  "' lacks permission on collection");
  }
}

void StorageEndpoint::grant(const std::string& collection,
                            const std::string& identity,
                            Permission permission,
                            const std::string& token) {
  Collection& col = collection_for(collection);
  const TokenInfo& info = auth_.validate(token, scopes::kStorageWrite);
  OSPREY_REQUIRE(info.identity == col.owner,
                 "only the collection owner may grant permissions");
  col.acl[identity] = permission;
}

Permission StorageEndpoint::permission_of(const std::string& collection,
                                          const std::string& identity) const {
  const Collection& col = collection_for(collection);
  if (identity == col.owner) return Permission::kReadWrite;
  auto it = col.acl.find(identity);
  return it == col.acl.end() ? Permission::kNone : it->second;
}

void StorageEndpoint::maybe_inject_acl_race(
    const std::string& collection) const {
  FaultPlan* plan = loop_.fault_plan();
  if (plan == nullptr) return;
  if (plan->should_inject(FaultKind::kAclRace, "storage", name_,
                          loop_.now())) {
    throw osprey::util::AuthError(
        "ACL propagation race on collection '" + collection +
        "' (injected): permission not yet visible");
  }
}

std::string StorageEndpoint::put(const std::string& collection,
                                 const std::string& path, std::string bytes,
                                 const std::string& token) {
  Collection& col = collection_for(collection);
  require_permission(col, token, Permission::kReadWrite,
                     scopes::kStorageWrite);
  maybe_inject_acl_race(collection);
  StoredObject& obj = col.objects[path];
  bytes_stored_ += bytes.size();
  bytes_stored_ -= obj.bytes.size();
  obj.checksum = osprey::crypto::Sha256::hash_hex(bytes);
  obj.bytes = std::move(bytes);
  obj.modified = loop_.now();
  ++obj.generation;
  ++puts_;
  return obj.checksum;
}

const StoredObject& StorageEndpoint::get(const std::string& collection,
                                         const std::string& path,
                                         const std::string& token) const {
  const Collection& col = collection_for(collection);
  require_permission(col, token, Permission::kRead, scopes::kStorageRead);
  maybe_inject_acl_race(collection);
  auto it = col.objects.find(path);
  if (it == col.objects.end()) {
    throw osprey::util::NotFound("no such object: " + collection + "/" + path);
  }
  ++gets_;
  return it->second;
}

bool StorageEndpoint::exists(const std::string& collection,
                             const std::string& path) const {
  auto it = collections_.find(collection);
  if (it == collections_.end()) return false;
  return it->second.objects.count(path) > 0;
}

std::vector<std::string> StorageEndpoint::list(const std::string& collection,
                                               const std::string& prefix,
                                               const std::string& token) const {
  const Collection& col = collection_for(collection);
  require_permission(col, token, Permission::kRead, scopes::kStorageRead);
  std::vector<std::string> out;
  for (const auto& [path, obj] : col.objects) {
    (void)obj;
    if (path.compare(0, prefix.size(), prefix) == 0) out.push_back(path);
  }
  return out;
}

void StorageEndpoint::remove(const std::string& collection,
                             const std::string& path,
                             const std::string& token) {
  Collection& col = collection_for(collection);
  require_permission(col, token, Permission::kReadWrite,
                     scopes::kStorageWrite);
  auto it = col.objects.find(path);
  if (it == col.objects.end()) {
    throw osprey::util::NotFound("no such object: " + collection + "/" + path);
  }
  bytes_stored_ -= it->second.bytes.size();
  col.objects.erase(it);
}

std::size_t StorageEndpoint::num_objects() const {
  std::size_t n = 0;
  for (const auto& [name, col] : collections_) {
    (void)name;
    n += col.objects.size();
  }
  return n;
}

}  // namespace osprey::fabric
