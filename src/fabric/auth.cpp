#include "fabric/auth.hpp"

#include "fabric/event_loop.hpp"
#include "util/error.hpp"

namespace osprey::fabric {

AuthService::AuthService(std::uint64_t seed) : uuids_(seed) {}

std::string AuthService::issue_token(
    const std::string& identity,
    const std::vector<std::string>& token_scopes) {
  OSPREY_REQUIRE(!identity.empty(), "identity must not be empty");
  std::string token = "tok-" + uuids_.next();
  TokenInfo info;
  info.identity = identity;
  info.scopes.insert(token_scopes.begin(), token_scopes.end());
  tokens_.emplace(token, std::move(info));
  return token;
}

std::string AuthService::issue_full_token(const std::string& identity) {
  return issue_token(identity,
                     {scopes::kStorageRead, scopes::kStorageWrite,
                      scopes::kTransfer, scopes::kCompute, scopes::kFlows,
                      scopes::kTimers, scopes::kServe});
}

void AuthService::revoke(const std::string& token) {
  auto it = tokens_.find(token);
  if (it != tokens_.end()) it->second.revoked = true;
}

void AuthService::set_fault_plan(FaultPlan* plan, const EventLoop* loop) {
  plan_ = plan;
  loop_ = loop;
}

const TokenInfo& AuthService::validate(
    const std::string& token, std::string_view required_scope) const {
  auto it = tokens_.find(token);
  if (it == tokens_.end()) {
    throw osprey::util::AuthError("unknown token");
  }
  if (it->second.revoked) {
    throw osprey::util::AuthError("token revoked");
  }
  if (!required_scope.empty() &&
      it->second.scopes.find(required_scope) == it->second.scopes.end()) {
    throw osprey::util::AuthError("token lacks scope: " +
                                  std::string(required_scope));
  }
  if (plan_ != nullptr && loop_ != nullptr && !required_scope.empty() &&
      plan_->should_inject(FaultKind::kAuthExpiry, "auth",
                           std::string(required_scope), loop_->now())) {
    // Transient expiry: the token itself stays valid, so the caller's
    // retry (with the same token) succeeds once the fault passes.
    throw osprey::util::AuthError("token expired (injected): re-authenticate");
  }
  return it->second;
}

const std::string& AuthService::identity_of(const std::string& token) const {
  return validate(token, "").identity;
}

}  // namespace osprey::fabric
