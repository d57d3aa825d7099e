#include "src/serve/scheduler.h"

#include <algorithm>
#include <stdexcept>
#include <thread>
#include <utility>

#include "src/common/fault.h"
#include "src/common/run_context.h"
#include "src/common/stopwatch.h"

namespace scwsc {
namespace serve {
namespace {

/// Closed spans plus events an owned SLO history retains per recording
/// thread: the incident window an SLO dump can show, at a few hundred KB
/// per thread. A worker records two per cache-served job (serve.run and
/// cache.hit), so this holds its last ~2,000 such jobs.
constexpr std::size_t kSloHistoryRecords = 4096;

double SecondsSince(std::chrono::steady_clock::time_point start,
                    std::chrono::steady_clock::time_point now) {
  return std::chrono::duration<double>(now - start).count();
}

}  // namespace

SolveScheduler::SolveScheduler(ThreadPool* pool, SchedulerOptions options)
    : pool_(pool), options_(std::move(options)) {
  if (options_.trace == nullptr && !options_.telemetry.slo_rules.empty()) {
    owned_trace_ = std::make_unique<obs::TraceSession>(kSloHistoryRecords);
  }
  trace_ = options_.trace != nullptr ? options_.trace : owned_trace_.get();
  if (options_.trace != nullptr) {
    metrics_ = &options_.trace->metrics();
  } else {
    owned_metrics_ = std::make_unique<obs::MetricRegistry>();
    metrics_ = owned_metrics_.get();
  }
  snapshot_cache_ =
      std::make_unique<SnapshotCache>(options_.snapshot_cache_bytes, metrics_);
  result_cache_ = std::make_unique<ResultCache>(
      options_.result_cache_entries == 0 ? 1 : options_.result_cache_entries,
      metrics_);
  tenants_ = std::make_unique<TenantAdmission>(options_.tenant);
  if (options_.telemetry.configured()) {
    pump_ = std::make_unique<TelemetryPump>(metrics_, options_.telemetry,
                                            trace_);
    pump_->SetTickSampler([this] { SampleQueueGauges(); });
  }
}

SolveScheduler::~SolveScheduler() { Drain(); }

Result<std::future<JobOutcome>> SolveScheduler::Enqueue(SolveJob job) {
  obs::Span enqueue_span(trace_, "serve.enqueue");
  if (job.request.instance == nullptr) {
    return Status::InvalidArgument("SolveJob has no instance snapshot");
  }
  // Tenant quota, before the queue lock: the bucket has its own mutex, and
  // a quota rejection must not consume queue bookkeeping. A quota-admitted
  // job can still bounce off a full queue below (it spent a token; the
  // queue-full retry hint covers that window).
  if (tenants_->enabled()) {
    const std::string& tenant = EffectiveTenant(job.request.tenant);
    Status admitted = tenants_->Admit(tenant);
    if (!admitted.ok()) {
      metrics_->counter("serve.jobs.rejected").Increment();
      metrics_->counter("serve.tenant." + tenant + ".rejected").Increment();
      enqueue_span.Event("serve.reject/tenant_quota");
      return admitted;
    }
  }
  std::future<JobOutcome> future;
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (draining_) {
      metrics_->counter("serve.jobs.rejected").Increment();
      enqueue_span.Event("serve.reject/draining");
      return Status::Cancelled(
          "scheduler is draining; new jobs are not admitted");
    }
    if (options_.max_queue_depth > 0 &&
        in_flight_ >= options_.max_queue_depth) {
      metrics_->counter("serve.jobs.rejected").Increment();
      enqueue_span.Event("serve.reject/queue_full",
                         static_cast<double>(in_flight_));
      // The hint approximates one aging interval — long enough for a worker
      // to pop at least one job, short enough that clients keep the queue
      // warm. Machine-readable so wire frontends emit retry_after_ms.
      return Status::ResourceExhausted(
                 "scheduler queue is full (" +
                 std::to_string(options_.max_queue_depth) +
                 " jobs in flight); retry after completions drain the queue")
          .WithPayload(RetryAfterHint{
              std::max(options_.aging_interval_seconds, 0.05) * 1000.0});
    }
    PendingJob pending;
    pending.job = std::move(job);
    pending.enqueued_at = std::chrono::steady_clock::now();
    future = pending.promise.get_future();
    queue_.push_back(std::move(pending));
    ++in_flight_;
    metrics_->counter("serve.jobs.accepted").Increment();
    metrics_->gauge("serve.queue.depth")
        .Set(static_cast<double>(queue_.size()));
    enqueue_span.set_value(static_cast<double>(queue_.size()));
  }
  // Close the span before the job's task exists: until then at least one
  // admitted job stays queued, so Drain() cannot return and the history
  // session the scheduler may own is still alive.
  enqueue_span.End();
  // One pool task per admitted job; the task picks the most urgent waiting
  // job at pop time, which is how priority aging takes effect.
  pool_->Submit([this] { RunOneJob(); });
  return future;
}

void SolveScheduler::Drain() {
  std::unique_lock<std::mutex> lock(mu_);
  draining_ = true;
  drained_cv_.wait(lock, [this] { return in_flight_ == 0; });
}

std::size_t SolveScheduler::in_flight() const {
  std::lock_guard<std::mutex> lock(mu_);
  return in_flight_;
}

void SolveScheduler::RunOneJob() {
  PendingJob pending;
  double queue_seconds = 0.0;
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (queue_.empty()) return;  // defensive: one task per queued job
    // Weighted-fair tenant selection (when enabled): dispatch from the
    // tenant with the smallest served / weight among tenants with waiting
    // jobs. Fairness picks the tenant; priority aging (below) orders that
    // tenant's own jobs, so the two mechanisms compose instead of compete.
    std::string fair_tenant;
    if (tenants_->enabled()) {
      bool have = false;
      double best_norm = 0.0;
      for (const PendingJob& waiting : queue_) {
        const std::string& t = EffectiveTenant(waiting.job.request.tenant);
        const double norm = tenant_served_[t] / tenants_->WeightOf(t);
        if (!have || norm < best_norm) {
          have = true;
          best_norm = norm;
          fair_tenant = t;
        }
      }
      tenant_served_[fair_tenant] += 1.0;
    }
    // Scan-on-pop for the highest effective priority: static priority plus
    // one level per aging interval waited. O(depth) per pop is fine at the
    // depths admission control allows.
    const auto now = std::chrono::steady_clock::now();
    auto best = queue_.end();
    double best_effective = 0.0;
    for (auto it = queue_.begin(); it != queue_.end(); ++it) {
      if (!fair_tenant.empty() &&
          EffectiveTenant(it->job.request.tenant) != fair_tenant) {
        continue;
      }
      const double waited = SecondsSince(it->enqueued_at, now);
      const double effective =
          static_cast<double>(it->job.priority) +
          (options_.aging_interval_seconds > 0.0
               ? waited / options_.aging_interval_seconds
               : 0.0);
      if (best == queue_.end() || effective > best_effective) {
        best = it;
        best_effective = effective;
      }
    }
    pending = std::move(*best);
    queue_.erase(best);
    queue_seconds = SecondsSince(pending.enqueued_at, now);
    metrics_->gauge("serve.queue.depth")
        .Set(static_cast<double>(queue_.size()));
  }
  ExecuteJob(std::move(pending), queue_seconds);
}

void SolveScheduler::SampleQueueGauges() {
  // Tick-time refresh: depth plus, per static priority, the longest wait
  // currently in the queue. Priorities that emptied since the last tick
  // are zeroed (gauges are last-write-wins, so a vanished priority would
  // otherwise freeze at its final wait forever).
  static constexpr const char* kWaitPrefix = "serve.queue.wait_seconds.p";
  for (const auto& [name, value] : metrics_->GaugeValues()) {
    if (value != 0.0 && name.rfind(kWaitPrefix, 0) == 0) {
      metrics_->gauge(name).Set(0.0);
    }
  }
  const auto now = std::chrono::steady_clock::now();
  std::map<int, double> max_wait;
  std::size_t depth = 0;
  {
    std::lock_guard<std::mutex> lock(mu_);
    depth = queue_.size();
    for (const PendingJob& pending : queue_) {
      double& wait = max_wait[pending.job.priority];
      wait = std::max(wait, SecondsSince(pending.enqueued_at, now));
    }
  }
  metrics_->gauge("serve.queue.depth").Set(static_cast<double>(depth));
  for (const auto& [priority, wait] : max_wait) {
    metrics_->gauge(kWaitPrefix + std::to_string(priority)).Set(wait);
  }
}

void SolveScheduler::FlushTelemetry() {
  if (pump_ != nullptr) pump_->TickNow();
}

void SolveScheduler::ExecuteJob(PendingJob pending, double queue_seconds) {
  obs::Span run_span(trace_, "serve.run");
  run_span.set_value(queue_seconds);
  JobOutcome outcome;
  outcome.queue_seconds = queue_seconds;
  outcome.label = pending.job.request.label;

  // Tenant identity for accounting. Scoped metrics are stamped whenever the
  // request names a tenant or the policy is on; a tenant-less job under the
  // default policy keeps the legacy metric surface untouched.
  const std::string tenant = EffectiveTenant(pending.job.request.tenant);
  const bool tenant_scoped =
      tenants_->enabled() || !pending.job.request.tenant.empty();

  api::SolveRequest& request = pending.job.request;
  api::SolverRegistry& registry = api::SolverRegistry::Global();
  const api::SolverInfo* info = registry.Find(pending.job.solver);

  if (tenant_scoped && trace_ != nullptr) run_span.Event("tenant/" + tenant);

  auto complete = [&](JobOutcome finished) {
    // Completed means a result came back: a full one, or an interruption's
    // best-so-far payload. A ResourceExhausted with nothing to show (a
    // snapshot over max_patterns) failed, as the batch report counts it.
    const Status& status = finished.result.status();
    const bool succeeded =
        finished.result.ok() ||
        (status.IsInterruption() &&
         status.payload<api::SolveResult>() != nullptr);
    metrics_->counter(succeeded ? "serve.jobs.completed" : "serve.jobs.failed")
        .Increment();
    // Per-solver latency sketch member; the telemetry pump merges the
    // family into the aggregate the latency SLO rules evaluate.
    metrics_
        ->sketch("serve.latency_seconds#" +
                 (info != nullptr ? info->name : std::string("unknown")))
        .Observe(finished.queue_seconds + finished.run_seconds);
    if (tenant_scoped) {
      // The same family#member naming as the solver sketch, so tenant-scoped
      // SLO rules read serve.tenant.latency_seconds#<tenant> and the pump's
      // per-tenant error rate reads the counter deltas.
      metrics_
          ->counter("serve.tenant." + tenant +
                    (succeeded ? ".completed" : ".failed"))
          .Increment();
      metrics_->sketch("serve.tenant.latency_seconds#" + tenant)
          .Observe(finished.queue_seconds + finished.run_seconds);
    }
    // Close the span first: once the last slot is freed, Drain() returns
    // and the scheduler, with the history session it may own, can be
    // destroyed.
    run_span.End();
    // Free the slot and fulfil the promise under one lock: a caller that
    // sees its future ready and enqueues again must find the slot free.
    std::lock_guard<std::mutex> lock(mu_);
    pending.promise.set_value(std::move(finished));
    if (--in_flight_ == 0) drained_cv_.notify_all();
  };

  // Deadline-free solves are deterministic: memoizable. Keys use the
  // canonical spelling so "CWSC" and "cwsc" share one entry.
  const bool cacheable = info != nullptr && request.deadline.count() == 0 &&
                         options_.result_cache_entries > 0;
  ResultKey key;
  if (cacheable) {
    // Keyed by content, never by address: a snapshot allocated where a
    // freed one lived must not inherit its results.
    key = MakeResultKey(ContentHash(*request.instance), info->name, request);
    // A cache hit bypasses the solver's fault points entirely.
    if (std::optional<api::SolveResult> cached = result_cache_->Lookup(key)) {
      run_span.Event("cache.hit");
      outcome.result = *std::move(cached);
      outcome.from_result_cache = true;
      complete(std::move(outcome));
      return;
    }
    run_span.Event("cache.miss");
  }

  // Solver spans go to the caller's session only; the owned SLO history
  // keeps serve-path records, so one large solve cannot flush it.
  if (request.trace == nullptr) request.trace = options_.trace;

  Stopwatch timer;
  // The job deadline becomes this job's RunContext; the registry would
  // reject a request carrying both.
  RunContext context;
  RunContext* run_context = nullptr;
  if (request.deadline.count() > 0) {
    context.SetDeadline(request.deadline);
    run_context = &context;
    request.deadline = std::chrono::milliseconds{0};
  }
  if (FaultPlan* plan = FaultPlan::Active();
      plan != nullptr && plan->ShouldFire(FaultPoint::kSolverDelay)) {
    metrics_->counter("serve.faults.solver_delay").Increment();
    run_span.Event("fault/solver_delay");
    std::this_thread::sleep_for(
        std::chrono::milliseconds(plan->solver_delay_ms()));
  }
  // The solver call site is exception-contained: a throwing solver (or an
  // injected throw) becomes Status::Internal, never a lost future.
  try {
    if (FaultFires(FaultPoint::kSolverError)) {
      metrics_->counter("serve.faults.solver_error").Increment();
      run_span.Event("fault/solver_error");
      outcome.result = Status::Internal(
          "injected fault: solver failure (FaultPoint solver_error)");
    } else if (FaultFires(FaultPoint::kSolverThrow)) {
      metrics_->counter("serve.faults.solver_throw").Increment();
      run_span.Event("fault/solver_throw");
      throw std::runtime_error(
          "injected fault: solver exception (FaultPoint solver_throw)");
    } else {
      outcome.result = registry.Solve(pending.job.solver, request, run_context);
    }
  } catch (const std::exception& e) {
    outcome.result = Status::Internal(std::string("solver threw: ") + e.what());
  } catch (...) {
    outcome.result = Status::Internal("solver threw a non-standard exception");
  }
  outcome.run_seconds = timer.ElapsedSeconds();

  if (cacheable && outcome.result.ok()) {
    result_cache_->Insert(key, *outcome.result);
  }
  complete(std::move(outcome));
}

}  // namespace serve
}  // namespace scwsc
