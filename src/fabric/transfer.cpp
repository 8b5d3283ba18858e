#include "fabric/transfer.hpp"

#include <cmath>

#include "crypto/sha256.hpp"
#include "util/error.hpp"
#include "util/log.hpp"

namespace osprey::fabric {

TransferService::TransferService(EventLoop& loop, AuthService& auth,
                                 SimTime latency,
                                 double bandwidth_bytes_per_s)
    : loop_(loop),
      auth_(auth),
      latency_(latency),
      bandwidth_(bandwidth_bytes_per_s),
      m_completed_(loop.metrics().counter(
          "fabric_transfers_completed_total",
          "transfers whose destination write completed and verified")),
      m_failed_(loop.metrics().counter(
          "fabric_transfers_failed_total",
          "transfers that ended in a terminal failure")),
      m_bytes_(loop.metrics().histogram(
          "fabric_transfer_bytes", {1e3, 1e4, 1e5, 1e6, 1e7, 1e8},
          "payload size per completed transfer (bytes)")) {
  OSPREY_REQUIRE(bandwidth_ > 0.0, "bandwidth must be positive");
}

void TransferService::set_default_timeout(SimTime timeout) {
  OSPREY_REQUIRE(timeout >= 0, "timeout must be non-negative");
  timeout_ = timeout;
}

void TransferService::finish_obs(const TransferRecord& rec) {
  const bool ok = rec.status == TransferStatus::kSucceeded;
  if (tracer_ != nullptr) {
    tracer_->end_span(rec.trace_span, obs::sim_ns(rec.completed), ok,
                      rec.error);
  }
  if (ok) {
    m_completed_.inc();
    m_bytes_.observe(static_cast<double>(rec.bytes));
  } else {
    m_failed_.inc();
  }
}

void TransferService::fail_after(TransferId id, SimTime delay,
                                 std::string error, const Callback& on_done) {
  loop_.schedule_after(delay,
                       [this, id, error = std::move(error), on_done] {
                         TransferRecord r = retire(id);
                         r.status = TransferStatus::kFailed;
                         r.error = error;
                         r.completed = loop_.now();
                         finish_obs(r);
                         if (on_done) on_done(r);
                       });
}

TransferRecord TransferService::retire(TransferId id) {
  auto node = in_flight_.extract(id);
  OSPREY_CHECK(!node.empty(), "transfer completed twice");
  return std::move(node.mapped());
}

SimTime TransferService::duration_for(std::uint64_t bytes) const {
  double seconds = static_cast<double>(bytes) / bandwidth_;
  return latency_ + static_cast<SimTime>(
                        std::llround(seconds * osprey::util::kSecond));
}

TransferId TransferService::transfer(
    StorageEndpoint& src, const std::string& src_collection,
    const std::string& src_path, StorageEndpoint& dst,
    const std::string& dst_collection, const std::string& dst_path,
    const std::string& token, Callback on_done) {
  auth_.validate(token, scopes::kTransfer);

  TransferId id = next_id_++;
  TransferRecord rec;
  rec.id = id;
  rec.src_endpoint = src.name();
  rec.src_collection = src_collection;
  rec.src_path = src_path;
  rec.dst_endpoint = dst.name();
  rec.dst_collection = dst_collection;
  rec.dst_path = dst_path;
  rec.submitted = loop_.now();

  // Snapshot the source now; the copy materializes at completion time.
  std::string bytes;
  std::string checksum;
  std::string error;
  bool read_ok = true;
  try {
    const StoredObject& obj = src.get(src_collection, src_path, token);
    bytes = obj.bytes;
    checksum = obj.checksum;
  } catch (const osprey::util::Error& e) {
    read_ok = false;
    error = e.what();
  }

  rec.bytes = bytes.size();
  rec.checksum = checksum;
  if (tracer_ != nullptr) {
    rec.trace_span = tracer_->begin_span(
        obs::Category::kTransfer,
        "transfer:" + rec.src_endpoint + "->" + rec.dst_endpoint,
        obs::sim_ns(rec.submitted), obs::kInheritParent,
        std::to_string(rec.bytes) + " B " + dst_collection + "/" + dst_path);
  }

  if (!read_ok) {
    // Fails at submission, so it is never in flight; the callback still
    // fires from the loop, never re-entrantly.
    rec.status = TransferStatus::kFailed;
    rec.error = error;
    rec.completed = loop_.now();
    finish_obs(rec);
    if (on_done) {
      loop_.schedule_after(0,
                           [rec = std::move(rec), on_done] { on_done(rec); });
    }
    return id;
  }
  const std::uint64_t size = rec.bytes;
  in_flight_.emplace(id, std::move(rec));

  SimTime now = loop_.now();
  FaultPlan* plan = loop_.fault_plan();
  if (plan != nullptr &&
      plan->should_inject(FaultKind::kTransferDrop, "transfer", dst.name(),
                          now)) {
    // Injected network failure: surfaces after the setup latency, like a
    // dropped connection.
    fail_after(id, latency_, "injected network failure", on_done);
    return id;
  }

  SimTime stall = 0;
  if (plan != nullptr &&
      plan->should_inject(FaultKind::kTransferStall, "transfer", dst.name(),
                          now)) {
    stall = plan->stall_delay;
  }
  SimTime duration = duration_for(size) + stall;
  if (timeout_ > 0 && duration > timeout_) {
    // The per-operation timeout converts a stalled transfer into a
    // recoverable failure instead of an indefinitely late completion.
    fail_after(id, timeout_,
               "transfer timed out after " +
                   osprey::util::format_duration(timeout_),
               on_done);
    return id;
  }

  if (plan != nullptr &&
      plan->should_inject(FaultKind::kTransferCorrupt, "transfer",
                          dst.name(), now)) {
    // Flip a bit in flight; the digest check below must catch it.
    if (bytes.empty()) {
      bytes.push_back('\x01');
    } else {
      bytes[0] = static_cast<char>(bytes[0] ^ 0x01);
    }
  }

  loop_.schedule_after(
      duration, [this, id, &dst, dst_collection, dst_path, token,
                 bytes = std::move(bytes), checksum, on_done] {
        TransferRecord r = retire(id);
        // Verify the digest of what actually arrived BEFORE the
        // destination write: a corrupted payload is rejected, never
        // accepted into storage (the caller re-transfers).
        std::string digest = osprey::crypto::Sha256::hash_hex(bytes);
        if (digest != checksum) {
          r.status = TransferStatus::kFailed;
          r.error = "checksum mismatch: payload corrupted in flight";
          if (FaultPlan* p = loop_.fault_plan(); p != nullptr) {
            p->log().record(loop_.now(), IncidentCategory::kRecovery,
                            "corrupt-payload-rejected", "transfer",
                            r.dst_endpoint,
                            r.dst_collection + "/" + r.dst_path +
                                " rejected before write");
          }
        } else {
          try {
            dst.put(dst_collection, dst_path, bytes, token);
            r.status = TransferStatus::kSucceeded;
          } catch (const osprey::util::Error& e) {
            r.status = TransferStatus::kFailed;
            r.error = e.what();
          }
        }
        r.completed = loop_.now();
        finish_obs(r);
        OSPREY_LOG_DEBUG("transfer",
                         r.src_endpoint << "/" << r.src_path << " -> "
                                        << r.dst_endpoint << "/" << r.dst_path
                                        << " (" << r.bytes << " B)");
        if (on_done) on_done(r);
      });
  return id;
}

}  // namespace osprey::fabric
