#pragma once

/// \file frontend.hpp
/// Request front end for the serving tier: per-tenant auth, admission
/// control, and load shedding in front of a ResultCache.
///
/// Requests are admitted into a bounded FIFO queue and served one at a
/// time on the event loop (the serving tier is a single logical server
/// in the simulation; capacity is modeled by per-outcome service
/// times). Overload never blocks the loop and never silently drops
/// work: a request arriving with the queue full completes immediately
/// with the explicit `kShed` outcome, and a request whose token lacks
/// the `serve` scope completes with `kDenied`. Everything else resolves
/// to the cache outcome (hit / miss / revalidate) after its service
/// time, with queueing delay included in the reported latency.
///
/// A served read allocates nothing in steady state: the queue is a ring
/// of `max_queue_depth` slots allocated at construction, a read that
/// finds the server idle and the queue empty starts service without
/// entering it, and responses are written into two alternating buffers
/// whose strings keep their capacity from read to read.

#include <array>
#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "fabric/auth.hpp"
#include "fabric/event_loop.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "serve/cache.hpp"
#include "util/sim_time.hpp"

namespace osprey::serve {

using osprey::util::SimTime;

enum class ServeOutcome { kHit, kMiss, kRevalidate, kDenied, kShed };

const char* serve_outcome_name(ServeOutcome outcome);

struct ServeRequest {
  std::string uuid;    // data object to read
  std::string token;   // bearer token; must carry scopes::kServe
  std::string tenant;  // requesting tenant, for spans/accounting
};

struct ServeResponse {
  ServeOutcome outcome = ServeOutcome::kShed;
  /// Engaged estimate for hit/miss/revalidate; default-constructed for
  /// denied/shed (those outcomes carry no data).
  aero::AeroServer::ServedEstimate estimate;
  SimTime enqueued_at = 0;
  SimTime completed_at = 0;

  /// End-to-end latency including queueing delay.
  SimTime latency() const { return completed_at - enqueued_at; }
};

struct FrontEndConfig {
  /// Requests allowed to wait (beyond the one in service); arrivals
  /// past this complete immediately as kShed. The front end allocates
  /// this many queue slots at construction.
  std::size_t max_queue_depth = 64;
  /// Service time per cache outcome. Hits skip the origin entirely;
  /// revalidates pay a metadata query; misses pay the full origin path.
  SimTime hit_service_time = 1;
  SimTime revalidate_service_time = 5;
  SimTime miss_service_time = 20;
};

class FrontEnd {
 public:
  using Callback = std::function<void(const ServeResponse&)>;

  FrontEnd(fabric::EventLoop& loop, fabric::AuthService& auth,
           ResultCache& cache, obs::MetricsRegistry& metrics,
           FrontEndConfig config = {});

  FrontEnd(const FrontEnd&) = delete;
  FrontEnd& operator=(const FrontEnd&) = delete;

  /// Attach a trace recorder (non-owning; nullptr detaches). Each
  /// served request becomes a "serve:<uuid>" span from dequeue to
  /// completion.
  void set_tracer(obs::TraceRecorder* tracer) { tracer_ = tracer; }

  /// Submit a read. Denied/shed requests complete synchronously;
  /// admitted requests complete via the event loop after queueing plus
  /// service time. `done` may be empty (fire-and-forget). The response
  /// `done` receives stays intact until `done` returns, even when `done`
  /// submits again.
  void submit(ServeRequest request, Callback done);

  const FrontEndConfig& config() const { return config_; }
  std::size_t queue_depth() const { return waiting_; }
  std::uint64_t served() const { return served_->value(); }
  std::uint64_t shed() const { return shed_->value(); }
  std::uint64_t denied() const { return denied_->value(); }

 private:
  struct Queued {
    ServeRequest request;
    Callback done;
    SimTime enqueued_at = 0;
  };
  /// The one request in service: everything its completion needs, kept
  /// here so the completion event captures only `this`. Its response is
  /// responses_[response].
  struct InService {
    Callback done;
    std::size_t response = 0;
    obs::SpanId span = obs::kNoSpan;
  };

  /// Put `request` in service: decide its cache outcome into the next
  /// response buffer and schedule its completion.
  void start(const ServeRequest& request, Callback&& done,
             SimTime enqueued_at);
  /// Start service on the queue head (no-op when busy or empty).
  void pump();
  /// Complete the request in service, then start the next one.
  void finish();

  fabric::EventLoop& loop_;
  fabric::AuthService& auth_;
  ResultCache& cache_;
  FrontEndConfig config_;
  obs::TraceRecorder* tracer_ = nullptr;

  std::vector<Queued> ring_;  // max_queue_depth slots
  std::size_t head_ = 0;      // ring_ index of the oldest waiting request
  std::size_t waiting_ = 0;   // requests in ring_
  bool busy_ = false;         // a request is in service
  InService current_;         // valid while busy_
  /// The response in service and the one its predecessor's `done` may
  /// still be reading: a `done` that submits fills the other buffer.
  std::array<ServeResponse, 2> responses_;

  obs::Counter* served_ = nullptr;
  obs::Counter* shed_ = nullptr;
  obs::Counter* denied_ = nullptr;
  obs::Gauge* queue_depth_gauge_ = nullptr;
  obs::Histogram* latency_ms_ = nullptr;
};

}  // namespace osprey::serve
