#pragma once

/// \file transfer.hpp
/// Simulated Globus Transfer: asynchronous endpoint-to-endpoint copies
/// with a latency + bandwidth cost model and checksum verification.
/// AERO stages inputs/outputs through this service; the AERO server
/// itself never touches payload bytes.

#include <cstdint>
#include <functional>
#include <string>
#include <unordered_map>

#include "fabric/auth.hpp"
#include "fabric/event_loop.hpp"
#include "fabric/fault.hpp"
#include "fabric/storage.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace osprey::fabric {

using TransferId = std::uint64_t;

enum class TransferStatus { kInFlight, kSucceeded, kFailed };

struct TransferRecord {
  TransferId id = 0;
  std::string src_endpoint, src_collection, src_path;
  std::string dst_endpoint, dst_collection, dst_path;
  std::uint64_t bytes = 0;
  std::string checksum;
  SimTime submitted = 0;
  SimTime completed = 0;
  TransferStatus status = TransferStatus::kInFlight;
  std::string error;
  obs::SpanId trace_span = obs::kNoSpan;
};

/// Cost model and async execution of copies between StorageEndpoints.
class TransferService {
 public:
  /// `latency` is a fixed per-transfer setup cost; `bandwidth` is in
  /// bytes per virtual second.
  TransferService(EventLoop& loop, AuthService& auth,
                  SimTime latency = 2 * osprey::util::kSecond,
                  double bandwidth_bytes_per_s = 100.0e6);

  /// Attach a trace recorder (non-owning; nullptr detaches). Each
  /// transfer becomes a span from submission to completion, parented
  /// to the submitting thread's current span.
  void set_tracer(obs::TraceRecorder* tracer) { tracer_ = tracer; }

  /// Per-operation timeout: a transfer whose (possibly stalled) virtual
  /// duration exceeds it fails at the deadline instead of hanging the
  /// workflow. 0 disables (the default).
  void set_default_timeout(SimTime timeout);

  using Callback = std::function<void(const TransferRecord&)>;

  /// Start an async copy; `on_done` fires (in virtual time) when the
  /// write at the destination has completed and its checksum verified.
  /// The source is read at submission time (consistent snapshot). The
  /// record is retired when its completion lands: `on_done` gets the
  /// final record, and the service keeps no history.
  TransferId transfer(StorageEndpoint& src, const std::string& src_collection,
                      const std::string& src_path, StorageEndpoint& dst,
                      const std::string& dst_collection,
                      const std::string& dst_path, const std::string& token,
                      Callback on_done = nullptr);

  /// Transfers submitted whose completion has not landed yet.
  std::size_t in_flight() const { return in_flight_.size(); }

  /// Virtual duration a payload of `bytes` takes under the cost model.
  SimTime duration_for(std::uint64_t bytes) const;

  /// Verified completions across this loop's TransferServices.
  std::size_t completed_count() const {
    return static_cast<std::size_t>(m_completed_.value());
  }

 private:
  EventLoop& loop_;
  AuthService& auth_;
  SimTime latency_;
  double bandwidth_;
  /// In-flight records by id; a record leaves when its completion lands.
  std::unordered_map<TransferId, TransferRecord> in_flight_;
  TransferId next_id_ = 0;
  SimTime timeout_ = 0;
  obs::TraceRecorder* tracer_ = nullptr;
  obs::Counter& m_completed_;
  obs::Counter& m_failed_;
  obs::Histogram& m_bytes_;

  void fail_after(TransferId id, SimTime delay, std::string error,
                  const Callback& on_done);
  /// Removes a record from the in-flight table as its completion lands.
  TransferRecord retire(TransferId id);
  /// Ends the span and bumps metrics once a record reaches a terminal
  /// status (every completion path funnels through this).
  void finish_obs(const TransferRecord& rec);
};

}  // namespace osprey::fabric
