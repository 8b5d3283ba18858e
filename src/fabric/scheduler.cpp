#include "fabric/scheduler.hpp"

#include <algorithm>

#include "util/error.hpp"
#include "util/log.hpp"

namespace osprey::fabric {

const char* job_state_name(JobState s) {
  switch (s) {
    case JobState::kQueued: return "QUEUED";
    case JobState::kRunning: return "RUNNING";
    case JobState::kComplete: return "COMPLETE";
    case JobState::kTimeout: return "TIMEOUT";
    case JobState::kCancelled: return "CANCELLED";
  }
  return "?";
}

BatchScheduler::BatchScheduler(EventLoop& loop, int total_nodes,
                               std::string name)
    : loop_(loop),
      total_nodes_(total_nodes),
      free_nodes_(total_nodes),
      name_(std::move(name)),
      m_queue_wait_(loop.metrics().histogram(
          "fabric_job_queue_wait_ms",
          {1e3, 60e3, 600e3, 3.6e6, 14.4e6, 86.4e6},
          "virtual queue wait per started batch job (ms)")) {
  OSPREY_REQUIRE(total_nodes > 0, "scheduler needs at least one node");
}

JobId BatchScheduler::submit(JobSpec spec) {
  OSPREY_REQUIRE(spec.nodes >= 1, "job needs at least one node");
  OSPREY_REQUIRE(spec.nodes <= total_nodes_,
                 "job requests more nodes than the machine has");
  OSPREY_REQUIRE(static_cast<bool>(spec.run), "job has no work");
  JobId id = records_.size();
  JobRecord rec;
  rec.id = id;
  rec.name = spec.name;
  rec.nodes = spec.nodes;
  rec.submitted = loop_.now();
  records_.push_back(rec);
  if (tracer_ != nullptr) {
    records_[id].trace_span = tracer_->begin_span(
        obs::Category::kCompute, "job:" + records_[id].name,
        obs::sim_ns(rec.submitted), obs::kInheritParent,
        name_ + ", " + std::to_string(rec.nodes) + " node(s)");
  }
  if (first_submit_ < 0) first_submit_ = loop_.now();
  queue_.push_back(QueuedJob{id, std::move(spec)});
  // Start eligible jobs on the next tick so submission order within one
  // event is respected.
  loop_.schedule_after(0, [this] { try_start_jobs(); });
  return id;
}

bool BatchScheduler::cancel(JobId id) {
  for (auto it = queue_.begin(); it != queue_.end(); ++it) {
    if (it->id == id) {
      queue_.erase(it);
      records_[id].state = JobState::kCancelled;
      records_[id].ended = loop_.now();
      if (tracer_ != nullptr) {
        tracer_->end_span(records_[id].trace_span,
                          obs::sim_ns(records_[id].ended), false, "cancelled");
      }
      return true;
    }
  }
  return false;
}

void BatchScheduler::try_start_jobs() {
  FaultPlan* plan = loop_.fault_plan();
  if (plan != nullptr &&
      plan->in_window(FaultKind::kEndpointOutage, "scheduler", name_,
                      loop_.now())) {
    // Machine outage: jobs stay queued; one re-check is armed for the
    // end of the (longest matching) window.
    if (!outage_recheck_pending_) {
      outage_recheck_pending_ = true;
      SimTime end = plan->window_end(FaultKind::kEndpointOutage, name_,
                                     loop_.now());
      loop_.schedule_at(end, [this] {
        outage_recheck_pending_ = false;
        try_start_jobs();
      });
    }
    return;
  }
  // FIFO with first-fit backfill: walk the queue and start every job
  // that fits in the currently free nodes.
  for (auto it = queue_.begin(); it != queue_.end();) {
    if (it->spec.nodes > free_nodes_) {
      ++it;
      continue;
    }
    JobId id = it->id;
    JobSpec spec = std::move(it->spec);
    it = queue_.erase(it);

    free_nodes_ -= spec.nodes;
    JobRecord& rec = records_[id];
    rec.state = JobState::kRunning;
    rec.started = loop_.now();
    m_queue_wait_.observe(static_cast<double>(rec.queue_wait()));
    OSPREY_LOG_DEBUG("pbs", "job " << id << " '" << rec.name << "' started on "
                                   << spec.nodes << " node(s)");

    // The work executes inline at start time and declares its duration;
    // the guard parents the compute task's span under the job's span.
    obs::CurrentSpanGuard span_guard(tracer_ != nullptr ? rec.trace_span
                                                        : obs::current_span());
    SimTime duration = spec.run();
    OSPREY_CHECK(duration >= 0, "job reported negative duration");
    bool timed_out = duration > spec.walltime;
    SimTime occupied = std::min(duration, spec.walltime);
    loop_.schedule_after(occupied, [this, id, timed_out] {
      finish_job(id, timed_out ? JobState::kTimeout : JobState::kComplete);
    });
  }
}

void BatchScheduler::finish_job(JobId id, JobState state) {
  JobRecord& rec = records_[id];
  rec.state = state;
  rec.ended = loop_.now();
  if (tracer_ != nullptr) {
    tracer_->end_span(rec.trace_span, obs::sim_ns(rec.ended),
                      state == JobState::kComplete,
                      state == JobState::kComplete ? std::string()
                                                   : job_state_name(state));
  }
  free_nodes_ += rec.nodes;
  busy_node_ms_ += static_cast<double>(rec.nodes) *
                   static_cast<double>(rec.ended - rec.started);
  last_end_ = std::max(last_end_, rec.ended);
  OSPREY_LOG_DEBUG("pbs", "job " << id << " " << job_state_name(state));
  try_start_jobs();
}

const JobRecord& BatchScheduler::job(JobId id) const {
  OSPREY_REQUIRE(id < records_.size(), "unknown job id");
  return records_[id];
}

double BatchScheduler::utilization() const {
  if (first_submit_ < 0 || last_end_ <= first_submit_) return 0.0;
  double span = static_cast<double>(last_end_ - first_submit_) *
                static_cast<double>(total_nodes_);
  return busy_node_ms_ / span;
}

}  // namespace osprey::fabric
