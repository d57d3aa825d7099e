// SolveScheduler: the serving seam of the library. Frontends hand it typed
// SolveJobs (solver name + SolveRequest + priority); it admits or rejects
// them against a bounded queue, runs them concurrently on a shared
// ThreadPool against cached snapshots, memoizes deterministic solves, and
// returns futures.
//
// Admission control:
//   - Bounded queue depth: Enqueue returns ResourceExhausted (typed
//     backpressure, never blocking) when queue + running reaches
//     max_queue_depth.
//   - Deadlines: a job's request.deadline is moved onto the scheduler's
//     per-job RunContext, so deadline trips surface exactly like direct
//     registry calls — a DeadlineExceeded Status carrying the partial
//     SolveResult payload. The solver sees the trip at its next context
//     check; nothing outside the solver can stop it sooner.
//   - Priority aging: workers pop the job with the highest *effective*
//     priority (static priority + seconds-waited / aging_interval), so a
//     flood of high-priority interactive jobs cannot starve batch jobs —
//     every waiting job eventually outranks fresh arrivals.
//   - Graceful drain: Drain() (and the destructor) stops admission and
//     waits for every accepted job to finish; submitted futures always
//     complete.
//
// Caching: the scheduler keys each job by its snapshot's content hash
// (computed once, when the snapshot is built) and consults its ResultCache
// before dispatch.
// Deadline-free jobs are deterministic — every registered algorithm is,
// given its options (LP rounding is seeded) — so they are served from cache
// when the (snapshot, solver, k, ŝ, canonical options) key matches;
// deadline-bearing jobs bypass the cache both ways since their partials
// depend on timing. Snapshots themselves are not cached: a job holds its
// InstancePtr until it completes, and nothing else here does.
//
// One attempt per job: every served solver is a deterministic function of
// (snapshot, request), so re-running a failed solve would recompute the
// same status. A failure is reported once, typed, on the job's future.
//
// Fault injection (src/common/fault.h): with an installed FaultPlan the
// scheduler's solve call site can be told to fail (solver_error), throw
// (solver_throw — contained and converted to Status::Internal) or stall
// (solver_delay); the result cache carries its own point.
//
// Observability: every serve-path moment is recorded once, into one
// TraceSession: the caller's SchedulerOptions::trace, else — when SLO rules
// are configured — a bounded session the scheduler owns, so an SLO
// violation can dump the history that led up to it. With neither, nothing
// is recorded and each site costs one pointer branch. Per job: a
// serve.enqueue span (value: queue depth after admission) carrying any
// serve.reject/{tenant_quota,draining,queue_full} event, and a serve.run
// span (value: queue wait) carrying tenant/, cache.hit|cache.miss and
// fault/* events. Counters serve.jobs.{accepted,rejected,completed,failed},
// serve.result_cache.* and serve.faults.* go to the session's
// MetricRegistry, or to the scheduler's own when the caller gave no
// session.

#ifndef SCWSC_SERVE_SCHEDULER_H_
#define SCWSC_SERVE_SCHEDULER_H_

#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <future>
#include <list>
#include <map>
#include <memory>
#include <mutex>
#include <string>

#include "src/api/registry.h"
#include "src/common/thread_pool.h"
#include "src/obs/metrics.h"
#include "src/obs/trace.h"
#include "src/serve/cache.h"
#include "src/serve/telemetry.h"
#include "src/serve/tenant.h"

namespace scwsc {
namespace serve {

/// One unit of work for the scheduler.
struct SolveJob {
  std::string solver;         // registry name (case-insensitive)
  api::SolveRequest request;  // deadline and label ride inside
  /// Larger = more urgent. Interactive frontends use higher priorities;
  /// aging guarantees lower-priority batch jobs still run.
  int priority = 0;
};

/// What a job's future resolves to.
struct JobOutcome {
  /// The solve outcome — including interruption Statuses carrying partial
  /// SolveResult payloads, exactly as the registry returns them.
  Result<api::SolveResult> result = Status::Internal("job never ran");
  bool from_result_cache = false;
  double queue_seconds = 0.0;  // admission -> dispatch
  double run_seconds = 0.0;    // dispatch -> completion (0 on cache hit)
  std::string label;           // echoed from the request
};

struct SchedulerOptions {
  /// Jobs admitted but not yet finished; Enqueue beyond this is
  /// ResourceExhausted. 0 = unbounded.
  std::size_t max_queue_depth = 256;
  /// Seconds of waiting that add one effective priority level.
  double aging_interval_seconds = 0.25;
  /// Result-cache entries (deterministic solves memoized). 0 disables.
  std::size_t result_cache_entries = 512;
  /// Optional trace session: serve.enqueue/serve.run spans, their events,
  /// all serve.* counters and the jobs' solver spans go here. The scheduler
  /// keeps its own MetricRegistry when null, so counters are always
  /// available via metrics().
  obs::TraceSession* trace = nullptr;
  /// Continuous telemetry (JSONL time series, Prometheus exposition, SLO
  /// rules). Inert unless configured() — see serve/telemetry.h. The pump's
  /// tick sampler refreshes serve.queue.depth and the per-priority
  /// serve.queue.wait_seconds.p<N> gauges.
  TelemetryOptions telemetry;
  /// Multi-tenant admission quotas and weighted-fair dequeue (see
  /// serve/tenant.h). The default is inert: dequeue order and admission are
  /// bit-identical to a scheduler without tenancy.
  TenantPolicy tenant;
};

/// Empty, and kept only so that perfbench's
/// `SnapshotStore(&scheduler->snapshot_cache())` still compiles; a change to
/// the benchmark drops those calls and then this type.
struct SnapshotCache {};

class SolveScheduler {
 public:
  /// `pool` must outlive the scheduler, or at least its Drain(): a drained
  /// scheduler submits no more tasks. Jobs run as pool tasks; solvers that
  /// parallelize internally create their own pools, so scheduler
  /// concurrency and solver concurrency never deadlock each other.
  SolveScheduler(ThreadPool* pool, SchedulerOptions options = {});

  SolveScheduler(const SolveScheduler&) = delete;
  SolveScheduler& operator=(const SolveScheduler&) = delete;

  /// Drains: stops admission and waits for accepted jobs to finish.
  ~SolveScheduler();

  /// Admits a job, returning the future its outcome will resolve on.
  /// ResourceExhausted when the queue is full (typed backpressure),
  /// Cancelled after Drain(). Never blocks on queue space.
  Result<std::future<JobOutcome>> Enqueue(SolveJob job);

  /// Stops admission, waits until every accepted job has completed.
  /// Idempotent.
  void Drain();

  /// Counters: serve.jobs.*, serve.result_cache.*, serve.faults.*.
  /// The session's registry when options.trace was set, else internal.
  obs::MetricRegistry& metrics() { return *metrics_; }

  /// The session serve-path spans and events are recorded into:
  /// options.trace, the owned SLO history, or nullptr.
  const obs::TraceSession* history() const { return trace_; }

  /// The empty SnapshotCache stub, for perfbench only.
  SnapshotCache& snapshot_cache() { return snapshot_cache_; }
  ResultCache& result_cache() { return *result_cache_; }

  /// Jobs admitted but not yet completed (queued + running).
  std::size_t in_flight() const;

  /// The telemetry pump, or nullptr when options.telemetry is inert.
  TelemetryPump* telemetry() { return pump_.get(); }

  /// Forces one telemetry tick so reports read final counters (including
  /// last-interval SLO evaluations). No-op without a pump.
  void FlushTelemetry();

 private:
  struct PendingJob {
    SolveJob job;
    std::promise<JobOutcome> promise;
    std::chrono::steady_clock::time_point enqueued_at;
  };

  /// Worker-side: pops the job with the highest effective priority and
  /// runs it to completion (cache lookup, one solve, cache fill).
  void RunOneJob();

  /// Completes one popped job: consults the result cache, runs the solve
  /// once, fills the outcome and the promise.
  void ExecuteJob(PendingJob pending, double queue_seconds);

  /// Telemetry tick sampler: refreshes serve.queue.depth and the
  /// per-priority wait gauges from the live queue.
  void SampleQueueGauges();

  ThreadPool* const pool_;
  const SchedulerOptions options_;
  std::unique_ptr<obs::TraceSession> owned_trace_;  // SLO history, or null
  obs::TraceSession* trace_;  // options_.trace, owned_trace_ or nullptr
  obs::MetricRegistry* metrics_;  // session registry or owned_metrics_
  std::unique_ptr<obs::MetricRegistry> owned_metrics_;
  SnapshotCache snapshot_cache_;  // empty stub, see snapshot_cache()
  std::unique_ptr<ResultCache> result_cache_;
  std::unique_ptr<TenantAdmission> tenants_;

  mutable std::mutex mu_;
  std::condition_variable drained_cv_;  // fires when in_flight_ hits 0
  std::list<PendingJob> queue_;
  std::size_t in_flight_ = 0;  // queued + running
  bool draining_ = false;
  /// Weighted-fair accounting: jobs dispatched per tenant. Only written
  /// when the tenant policy is enabled; guarded by mu_.
  std::map<std::string, double> tenant_served_;

  // Declared last: the pump's destructor stops its tick thread (which
  // touches metrics_ and the queue via the sampler) before anything above
  // is torn down.
  std::unique_ptr<TelemetryPump> pump_;
};

}  // namespace serve
}  // namespace scwsc

#endif  // SCWSC_SERVE_SCHEDULER_H_
