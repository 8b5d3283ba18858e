#pragma once

/// \file auth.hpp
/// Simulated Globus Auth: identities, bearer tokens, and scope checks.
/// Every fabric service validates the caller's token and required scope,
/// mirroring the paper's reliance on "the security and robustness of
/// Globus technologies such as Globus Auth".

#include <map>
#include <set>
#include <string>
#include <string_view>
#include <vector>

#include "fabric/fault.hpp"
#include "util/uuid.hpp"

namespace osprey::fabric {

class EventLoop;

/// Well-known scopes used by the fabric services.
namespace scopes {
inline const char* kStorageRead = "storage:read";
inline const char* kStorageWrite = "storage:write";
inline const char* kTransfer = "transfer";
inline const char* kCompute = "compute";
inline const char* kFlows = "flows";
inline const char* kTimers = "timers";
/// Serving-tier reads (serve::FrontEnd admission).
inline const char* kServe = "serve";
}  // namespace scopes

struct TokenInfo {
  std::string identity;
  /// Transparent comparator: validate() looks a scope up without
  /// building a std::string.
  std::set<std::string, std::less<>> scopes;
  bool revoked = false;
};

/// Issues and validates bearer tokens.
class AuthService {
 public:
  explicit AuthService(std::uint64_t seed = 0xA117);

  /// Issue a token for `identity` carrying `scopes`.
  std::string issue_token(const std::string& identity,
                          const std::vector<std::string>& token_scopes);

  /// Issue a token carrying every well-known scope (convenience for
  /// platform bootstrap).
  std::string issue_full_token(const std::string& identity);

  void revoke(const std::string& token);

  /// Attach a chaos FaultPlan (non-owning; nullptr detaches both). The
  /// plan can make validate() fail transiently ("token expired"); the
  /// loop supplies virtual timestamps for the incident log.
  void set_fault_plan(FaultPlan* plan, const EventLoop* loop);

  /// Validate token + scope; throws AuthError on unknown/revoked tokens
  /// or missing scope. Returns the token's info on success.
  const TokenInfo& validate(const std::string& token,
                            std::string_view required_scope) const;

  /// Identity behind a token (throws AuthError if unknown/revoked).
  const std::string& identity_of(const std::string& token) const;

 private:
  osprey::util::UuidFactory uuids_;
  std::map<std::string, TokenInfo> tokens_;
  FaultPlan* plan_ = nullptr;
  const EventLoop* loop_ = nullptr;
};

}  // namespace osprey::fabric
