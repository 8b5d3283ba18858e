#include "serve/frontend.hpp"

#include <utility>

#include "util/error.hpp"

namespace osprey::serve {

const char* serve_outcome_name(ServeOutcome outcome) {
  switch (outcome) {
    case ServeOutcome::kHit:        return "hit";
    case ServeOutcome::kMiss:       return "miss";
    case ServeOutcome::kRevalidate: return "revalidate";
    case ServeOutcome::kDenied:     return "denied";
    case ServeOutcome::kShed:       return "shed";
  }
  return "?";
}

namespace {

ServeOutcome to_serve_outcome(CacheOutcome outcome) {
  switch (outcome) {
    case CacheOutcome::kHit:        return ServeOutcome::kHit;
    case CacheOutcome::kMiss:       return ServeOutcome::kMiss;
    case CacheOutcome::kRevalidate: return ServeOutcome::kRevalidate;
  }
  return ServeOutcome::kMiss;
}

}  // namespace

FrontEnd::FrontEnd(fabric::EventLoop& loop, fabric::AuthService& auth,
                   ResultCache& cache, obs::MetricsRegistry& metrics,
                   FrontEndConfig config)
    : loop_(loop),
      auth_(auth),
      cache_(cache),
      config_(config),
      ring_(config.max_queue_depth) {
  served_ = &metrics.counter("serve_requests_served_total",
                             "requests completed with a cache outcome");
  shed_ = &metrics.counter("serve_requests_shed_total",
                           "requests rejected by admission control");
  denied_ = &metrics.counter("serve_requests_denied_total",
                             "requests whose token lacked the serve scope");
  queue_depth_gauge_ =
      &metrics.gauge("serve_queue_depth", "requests currently waiting");
  latency_ms_ = &metrics.histogram(
      "serve_latency_ms",
      {1, 2, 5, 10, 20, 50, 100, 200, 500, 1000, 2000, 5000},
      "end-to-end request latency including queueing (virtual ms)");
}

void FrontEnd::submit(ServeRequest request, Callback done) {
  SimTime now = loop_.now();
  try {
    auth_.validate(request.token, fabric::scopes::kServe);
  } catch (const osprey::util::AuthError&) {
    denied_->inc();
    ServeResponse resp;
    resp.outcome = ServeOutcome::kDenied;
    resp.enqueued_at = now;
    resp.completed_at = now;
    if (done) done(resp);
    return;
  }
  if (waiting_ >= config_.max_queue_depth) {
    // Overload: refuse honestly and immediately. The queue bound keeps
    // tail latency finite; shed traffic is the pressure signal.
    shed_->inc();
    if (tracer_ != nullptr) {
      tracer_->instant(obs::Category::kServe, "shed:" + request.uuid,
                       obs::sim_ns(now), obs::kNoSpan, request.tenant);
    }
    ServeResponse resp;
    resp.outcome = ServeOutcome::kShed;
    resp.enqueued_at = now;
    resp.completed_at = now;
    if (done) done(resp);
    return;
  }
  if (!busy_ && waiting_ == 0) {
    // Idle: what entering the queue and leaving it at once would do.
    start(request, std::move(done), now);
    return;
  }
  std::size_t tail = head_ + waiting_;
  if (tail >= ring_.size()) tail -= ring_.size();
  Queued& slot = ring_[tail];
  slot.request = std::move(request);
  slot.done = std::move(done);
  slot.enqueued_at = now;
  ++waiting_;
  queue_depth_gauge_->set(static_cast<double>(waiting_));
  pump();
}

void FrontEnd::start(const ServeRequest& request, Callback&& done,
                     SimTime enqueued_at) {
  current_.response ^= 1;
  ServeResponse& resp = responses_[current_.response];

  // The cache outcome is decided at dequeue time; the per-outcome
  // service time models the work that outcome costs.
  const CacheOutcome outcome = cache_.lookup_into(request.uuid, resp.estimate);
  busy_ = true;
  resp.outcome = to_serve_outcome(outcome);
  resp.enqueued_at = enqueued_at;
  current_.done = std::move(done);
  SimTime service = config_.hit_service_time;
  if (outcome == CacheOutcome::kMiss) {
    service = config_.miss_service_time;
  } else if (outcome == CacheOutcome::kRevalidate) {
    service = config_.revalidate_service_time;
  }

  current_.span = obs::kNoSpan;
  if (tracer_ != nullptr) {
    current_.span = tracer_->begin_span(
        obs::Category::kServe, "serve:" + request.uuid,
        obs::sim_ns(loop_.now()), obs::kNoSpan,
        request.tenant + " " + serve_outcome_name(resp.outcome));
  }
  queue_depth_gauge_->set(static_cast<double>(waiting_));

  loop_.schedule_after(service, [this] { finish(); });
}

void FrontEnd::pump() {
  if (busy_ || waiting_ == 0) return;
  Queued& q = ring_[head_];
  if (++head_ == ring_.size()) head_ = 0;
  --waiting_;
  // Nothing start() calls submits, so the slot is not reused under it.
  start(q.request, std::move(q.done), q.enqueued_at);
}

void FrontEnd::finish() {
  ServeResponse& resp = responses_[current_.response];
  resp.completed_at = loop_.now();
  served_->inc();
  latency_ms_->observe(static_cast<double>(resp.latency()));
  if (tracer_ != nullptr) {
    tracer_->end_span(current_.span, obs::sim_ns(loop_.now()), true);
  }
  // `done` may submit, and so start the next service, which reuses
  // current_ and fills the other response buffer.
  Callback done = std::move(current_.done);
  busy_ = false;
  if (done) done(resp);
  pump();
}

}  // namespace osprey::serve
