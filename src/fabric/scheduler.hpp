#pragma once

/// \file scheduler.hpp
/// Simulated PBS-style batch scheduler. The paper's R(t) analysis
/// function is "run using a Globus Compute endpoint configured for a
/// compute node": Globus Compute queues a job on Bebop's PBS scheduler.
/// This class models that queueing: a fixed pool of nodes, a FIFO queue
/// with first-fit backfill, queue-wait accounting and walltime kills.

#include <cstdint>
#include <deque>
#include <functional>
#include <string>
#include <vector>

#include "fabric/event_loop.hpp"
#include "fabric/fault.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace osprey::fabric {

using JobId = std::uint64_t;

enum class JobState { kQueued, kRunning, kComplete, kTimeout, kCancelled };

const char* job_state_name(JobState s);

struct JobSpec {
  std::string name;
  int nodes = 1;
  /// Kill the job if it runs longer than this.
  SimTime walltime = 4 * osprey::util::kHour;
  /// Executed (inline, at virtual start time) when the job starts.
  /// Returns the job's simulated duration; completion fires then.
  std::function<SimTime()> run;
};

struct JobRecord {
  JobId id = 0;
  std::string name;
  int nodes = 1;
  SimTime submitted = 0;
  SimTime started = -1;
  SimTime ended = -1;
  JobState state = JobState::kQueued;
  obs::SpanId trace_span = obs::kNoSpan;

  SimTime queue_wait() const { return started < 0 ? -1 : started - submitted; }
};

/// FIFO + first-fit-backfill scheduler over `total_nodes` identical nodes.
class BatchScheduler {
 public:
  BatchScheduler(EventLoop& loop, int total_nodes,
                 std::string name = "pbs-sim");

  const std::string& name() const { return name_; }
  int total_nodes() const { return total_nodes_; }
  int free_nodes() const { return free_nodes_; }

  /// Attach a trace recorder (non-owning; nullptr detaches). Each job
  /// becomes a span from submission to its terminal state, so queue
  /// wait is visible as the gap before the nested compute span.
  void set_tracer(obs::TraceRecorder* tracer) { tracer_ = tracer; }

  JobId submit(JobSpec spec);
  /// Cancel a queued job (running jobs cannot be cancelled in this model).
  bool cancel(JobId id);

  const JobRecord& job(JobId id) const;
  const std::vector<JobRecord>& jobs() const { return records_; }

  /// Fraction of node-time busy between the first submit and the last
  /// completion observed so far (0 when nothing has run).
  double utilization() const;

 private:
  struct QueuedJob {
    JobId id;
    JobSpec spec;
  };

  void try_start_jobs();
  void finish_job(JobId id, JobState state);

  EventLoop& loop_;
  int total_nodes_;
  int free_nodes_;
  std::string name_;
  obs::TraceRecorder* tracer_ = nullptr;
  obs::Histogram& m_queue_wait_;
  bool outage_recheck_pending_ = false;
  std::deque<QueuedJob> queue_;
  std::vector<JobRecord> records_;
  double busy_node_ms_ = 0.0;
  SimTime first_submit_ = -1;
  SimTime last_end_ = -1;
};

}  // namespace osprey::fabric
