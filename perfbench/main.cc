// perfbench: the repository's end-to-end benchmark of served solves.
//
//   perfbench --workload <carrier-7m|trace-700k> --seed N
//             --seconds S --trace 0|1
//
// One process starts the real serving stack in-process: a SnapshotStore
// holding the workload's paper-scale snapshot as head "live", a
// SolveScheduler on a 2-worker pool and the epoll SolveServer on a loopback
// port. One client thread then drives the workload through wire protocol
// v2 (main thread + loop thread + 2 workers = 4 threads) in three rounds
// of three phases, so that every metric's samples spread over the whole run
// (on a shared 4-core x86 VM, memory-bound work runs up to 2x slower for
// 10-30 s at a time):
//
//   open      open-loop reads: evenly spaced arrivals at a fixed rate, each
//             timed from its scheduled send time to its response line;
//   capacity  closed loop with 2 solves in flight (one per worker);
//   write     one delta to the live head, followed by a ping on a second
//             connection (the loop stall) and, once acked, by one solve
//             (read-after-write); on trace-700k, more deltas go to a second
//             head while that solve runs.
//
// Quantiles are Harrell-Davis estimates (see Quantile).
//
// Every response is checked against its request's contract, a seeded sample
// is re-solved in-process on the same snapshot version and must match bit
// for bit, and the published head must hash like a from-scratch rebuild.
// The last stdout line is one JSON object: {"correct", "attempted",
// "failed", "metrics"}; with --trace 0 the metrics are the end-to-end ones,
// with --trace 1 the per-layer ones, timed by spans around the benchmark's
// own calls into the api, serve, core and pattern modules. The traced run
// also writes .bench_build/traces/<workload>-<seed>.json (Chrome trace).
// Exit code 1 when any check fails, 2 on bad arguments or a failed setup.

#include <malloc.h>
#include <sys/resource.h>

#include <algorithm>
#include <array>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "perfbench/inputs.h"
#include "perfbench/session.h"
#include "perfbench/spans.h"
#include "src/api/delta.h"
#include "src/api/instance.h"
#include "src/api/registry.h"
#include "src/api/solver.h"
#include "src/common/thread_pool.h"
#include "src/core/benefit_engine.h"
#include "src/serve/json.h"
#include "src/serve/scheduler.h"
#include "src/serve/server.h"
#include "src/serve/wire.h"

namespace perfbench {
namespace {

namespace api = scwsc::api;
namespace serve = scwsc::serve;
using serve::JsonArray;
using serve::JsonObject;
using serve::JsonValue;

constexpr std::size_t kCarrierElements = 7'000'000;
constexpr std::size_t kTraceRows = 700'000;
// A run must end well inside 180 s; requests still unanswered by then count
// as missing.
constexpr double kRunDeadlineSeconds = 170.0;

// Open-loop rates, fixed at 35-45 % of each read mix's capacity_rps as
// measured on the seed commit (4-core x86 VM, whose speed drifts by a third
// over hours), so later changes are judged at the same offered load.
constexpr double kCarrierRate = 1.3;
constexpr double kTraceRate = 1.6;
// Each read mix's capacity_rps on the seed commit: the closed loop runs a
// fixed number of solves sized to take its share of --seconds there.
constexpr double kCarrierCapacity = 3.4;
constexpr double kTraceCapacity = 5.4;
// Rounds of open loop, closed loop and writes in a run.
constexpr std::size_t kRounds = 3;
// trace-700k's second head, which takes the appends that only time the
// delta round trip; its versions are never read, so never enumerated.
constexpr char kSideHead[] = "side";
// The instances are fixed, as in bench/shard_scaling and bench::MakeTrace;
// the workload seed draws the requests, arrivals and deltas.
constexpr std::uint64_t kCarrierSeed = 1234;
constexpr std::uint64_t kTraceSeed = 42;

struct MetricSpec {
  const char* name;
  const char* unit;
  bool layer;
};

// Every metric the benchmark reports. End-to-end ones are measured with
// tracing off; per-layer ones come from the traced run. A per-layer count
// or ratio of a layer the workload does not exercise reads 0.
constexpr MetricSpec kMetrics[] = {
    {"solve_p50_ms", "ms", false},
    {"solve_p90_ms", "ms", false},
    {"capacity_rps", "solves/s", false},
    {"delta_p50_ms", "ms", false},
    {"fresh_p50_ms", "ms", false},
    {"setup_s", "s", false},
    {"peak_rss_mb", "MB", false},
    {"core.alg_ms.cwsc", "ms", true},
    {"core.alg_ms.cmc", "ms", true},
    {"core.alg_ms.greedy-wsc", "ms", true},
    {"core.evals_per_pick.cwsc", "count", true},
    {"core.evals_per_pick.cmc", "count", true},
    {"core.evals_per_pick.greedy-wsc", "count", true},
    {"core.engine_build_ms", "ms", true},
    {"api.solve_ms.cwsc", "ms", true},
    {"api.solve_ms.cmc", "ms", true},
    {"api.solve_ms.greedy-wsc", "ms", true},
    {"api.finish_ms.cwsc", "ms", true},
    {"api.finish_ms.cmc", "ms", true},
    {"api.finish_ms.greedy-wsc", "ms", true},
    {"api.snapshot_build_s", "s", true},
    {"api.materialize_s", "s", true},
    {"api.delta_apply_ms", "ms", true},
    {"pattern.considered.opt-cwsc", "count", true},
    {"serve.store_apply_ms", "ms", true},
    {"serve.loop_stall_ms", "ms", true},
    {"serve.queue_ms.p50", "ms", true},
    {"serve.queue_ms.p90", "ms", true},
    {"serve.wire_ms", "ms", true},
    {"serve.decode_ms", "ms", true},
    {"serve.cache_hit_ratio", "ratio", true},
    {"bench.gen_lag_ms.p99", "ms", true},
    {"bench.trace_overhead_ratio", "ratio", true},
};

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 25.0;
  bool trace = false;
};

bool ParseArgs(int argc, char** argv, Args* args) {
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const std::string value = argv[i + 1];
    char* end = nullptr;
    if (flag == "--workload") {
      args->workload = value;
    } else if (flag == "--seed") {
      args->seed = std::strtoull(value.c_str(), &end, 10);
    } else if (flag == "--seconds") {
      args->seconds = std::strtod(value.c_str(), &end);
    } else if (flag == "--trace") {
      args->trace = value == "1";
      if (value != "0" && value != "1") return false;
    } else {
      return false;
    }
    if (end != nullptr && *end != '\0') return false;
  }
  return argc % 2 == 1 && args->seconds >= 1.0 && args->seconds <= 60.0 &&
         (args->workload == "carrier-7m" || args->workload == "trace-700k");
}

/// Continued fraction of the regularized incomplete beta function
/// (modified Lentz), for x < (a + 1) / (a + b + 2).
double BetaFraction(double a, double b, double x) {
  constexpr double kTiny = 1e-300;
  const auto guard = [](double v) { return std::fabs(v) < kTiny ? kTiny : v; };
  double c = 1.0;
  double d = 1.0 / guard(1.0 - (a + b) * x / (a + 1.0));
  double h = d;
  for (int m = 1; m <= 300; ++m) {
    const double m2 = 2.0 * m;
    double aa = m * (b - m) * x / ((a + m2 - 1.0) * (a + m2));
    d = 1.0 / guard(1.0 + aa * d);
    c = guard(1.0 + aa / c);
    h *= d * c;
    aa = -(a + m) * (a + b + m) * x / ((a + m2) * (a + m2 + 1.0));
    d = 1.0 / guard(1.0 + aa * d);
    c = guard(1.0 + aa / c);
    h *= d * c;
    if (std::fabs(d * c - 1.0) < 1e-13) break;
  }
  return h;
}

/// The regularized incomplete beta function I_x(a, b).
double IncompleteBeta(double a, double b, double x) {
  if (x <= 0.0) return 0.0;
  if (x >= 1.0) return 1.0;
  const double front =
      std::exp(std::lgamma(a + b) - std::lgamma(a) - std::lgamma(b) +
               a * std::log(x) + b * std::log1p(-x));
  if (x < (a + 1.0) / (a + b + 2.0)) return front * BetaFraction(a, b, x) / a;
  return 1.0 - front * BetaFraction(b, a, 1.0 - x) / b;
}

/// Harrell-Davis estimate of quantile q: a Beta-weighted mean of every
/// order statistic. On the 3 to 30 samples a run affords it moves far less
/// between runs than one or two order statistics do. 0 for an empty sample.
double Quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double n = static_cast<double>(values.size());
  const double a = q * (n + 1.0);
  const double b = (1.0 - q) * (n + 1.0);
  double estimate = 0.0;
  double below = 0.0;
  for (std::size_t i = 0; i < values.size(); ++i) {
    const double upto =
        IncompleteBeta(a, b, static_cast<double>(i + 1) / n);
    estimate += (upto - below) * values[i];
    below = upto;
  }
  return estimate;
}

double Median(const std::vector<double>& values) {
  return Quantile(values, 0.5);
}

double PeakRssMb() {
  rusage usage{};
  ::getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // kB on Linux
}

std::string HashHex(std::uint64_t hash) {
  char hex[2 + 16 + 1];
  std::snprintf(hex, sizeof(hex), "0x%016llx",
                static_cast<unsigned long long>(hash));
  return hex;
}

[[noreturn]] void SetupFailure(const std::string& what) {
  std::fprintf(stderr, "perfbench: setup failed: %s\n", what.c_str());
  std::exit(2);
}

/// The serving stack under test. Members are destroyed in reverse order:
/// the server stops before the store and scheduler it points at, and the
/// scheduler drains before its pool goes away.
struct Stack {
  /// Stops the server, then drops the store, the scheduler (draining it)
  /// and the pool, in that order.
  void Shutdown() {
    server.reset();
    store.reset();
    scheduler.reset();
    pool.reset();
  }

  std::unique_ptr<scwsc::ThreadPool> pool;
  std::unique_ptr<serve::SolveScheduler> scheduler;
  std::unique_ptr<serve::SnapshotStore> store;
  std::unique_ptr<serve::SolveServer> server;
};

Stack StartStack(api::InstancePtr head) {
  Stack stack;
  stack.pool = std::make_unique<scwsc::ThreadPool>(2);
  stack.scheduler = std::make_unique<serve::SolveScheduler>(stack.pool.get());
  stack.store = std::make_unique<serve::SnapshotStore>(
      &stack.scheduler->snapshot_cache());
  if (!stack.store->Put("live", std::move(head)).ok()) {
    SetupFailure("publishing the head snapshot");
  }
  stack.server = std::make_unique<serve::SolveServer>(stack.scheduler.get(),
                                                      stack.store.get());
  const scwsc::Status started = stack.server->Start();
  if (!started.ok()) SetupFailure(started.ToString());
  return stack;
}

/// The read that follows a delta's ack, given the version it will see.
using FreshQuery = std::function<Query(std::size_t version)>;

/// Round `round` of kRounds's share of `all`.
template <typename T>
std::vector<T> RoundShare(const std::vector<T>& all, std::size_t round) {
  return std::vector<T>(all.begin() + static_cast<std::ptrdiff_t>(
                                          round * all.size() / kRounds),
                        all.begin() + static_cast<std::ptrdiff_t>(
                                          (round + 1) * all.size() / kRounds));
}

class Bench {
 public:
  explicit Bench(const Args& args)
      : args_(args), spans_(args.trace), session_(spans_), rng_(args.seed) {}

  int Run();

 private:
  void RunCarrier();
  void RunTrace();

  /// Builds the snapshot `reps` times (materializing its set system when
  /// asked) and starts the stack around the last one; setup_s is the
  /// median of the reps. `prepare` makes each rep's input outside the
  /// timed region.
  template <typename Prepare, typename Build>
  api::InstancePtr SetUp(Prepare prepare, Build build, bool materialize,
                         int reps);

  /// Runs kRounds rounds: each sends its share of `reads` open loop at
  /// `rate`, then its share of `capacity` closed loop, then calls
  /// `write(round)`.
  void RunRounds(const std::vector<Query>& reads, double rate,
                 const std::vector<Query>& capacity,
                 const std::function<void(std::size_t round)>& write);
  /// Sends reads[i] at offsets[i] seconds from the phase start, whatever
  /// the server's progress, and waits for every answer.
  void OpenLoop(const std::vector<double>& offsets,
                const std::vector<Query>& reads);
  void ClosedLoop(const std::vector<Query>& queries);
  /// Sends `delta` to the live head and, once it is acked, one fresh read.
  /// While that read is outstanding, also sends `sides` copies of `side`
  /// to the side head, one at a time and `every` seconds apart (the rest
  /// after the read, if it ends first): delta round trips spread over the
  /// read's ~10 s instead of taken back to back.
  void WriteRound(const JsonObject& delta, const FreshQuery& fresh,
                  const JsonObject& side = {}, std::size_t sides = 0,
                  double every = 0.0);
  std::size_t SendDelta(JsonObject body, const std::string& phase,
                        const std::string& snapshot = "live");
  /// Handles completed requests: a delta's ack triggers its fresh read.
  void React(const std::vector<std::size_t>& completed,
             const FreshQuery& fresh);
  bool FreshPending() const;
  void WaitFor(const std::vector<std::size_t>& indices,
               const FreshQuery& fresh);

  /// Traced run only: times the layers the served path calls, from
  /// outside, on `head`.
  void LayerProbes(const api::InstancePtr& head, const JsonObject& delta);
  /// Solves `query` in-process on `instance`, recording the api, core and
  /// pattern layer timings; nullopt (and a failed check) on error.
  std::optional<api::SolveResult> SolveInProcess(
      const Query& query, const api::InstancePtr& instance);
  /// Re-solves request `index` in-process on `instance` and compares the
  /// served response bit for bit.
  void Resolve(std::size_t index, const api::InstancePtr& instance);
  /// Contract checks over every solve response on version `version`.
  void CheckResponses(std::size_t n, std::size_t first_version,
                      std::size_t last_version,
                      const std::map<std::string, double>* label_costs);
  /// Seeded sample: up to `per_solver` solve indices of each solver among
  /// the solves on `version` in `phases`.
  std::vector<std::size_t> Sample(std::size_t version,
                                  const std::set<std::string>& phases,
                                  std::size_t per_solver);
  /// The content hash the server acknowledged for `version`'s delta.
  std::string AckedHash(std::size_t version) const;
  void Fail(const std::string& what);
  /// Requests in a phase given `rate` per second over `share` of --seconds.
  std::size_t PhaseCount(double rate, double share) const {
    return static_cast<std::size_t>(
        std::max(2L, std::lround(rate * share * args_.seconds)));
  }
  void Record(const std::string& name, double value) {
    samples_[name].push_back(value);
  }

  void CollectServedMetrics();
  int Report();

  const Args args_;
  SpanRecorder spans_;
  Session session_;
  scwsc::Rng rng_;
  Stack stack_;
  double deadline_ = 0.0;

  std::vector<double> lag_;
  std::vector<std::size_t> deltas_;
  std::vector<std::pair<std::size_t, std::size_t>> fresh_;  // delta, solve
  // Closed-loop completions and their time, and open-loop wall time and
  // the part of it spent recording spans, summed over the rounds.
  std::size_t capacity_completed_ = 0;
  double capacity_seconds_ = 0.0;
  double open_seconds_ = 0.0;
  double open_span_seconds_ = 0.0;

  std::map<std::string, std::vector<double>> samples_;
  std::map<std::string, double> metrics_;
  std::size_t contract_checked_ = 0;
  std::size_t resolved_ = 0;
  std::vector<std::string> failures_;
};

template <typename Prepare, typename Build>
api::InstancePtr Bench::SetUp(Prepare prepare, Build build, bool materialize,
                              int reps) {
  const std::size_t span = spans_.Begin("bench.setup");
  api::InstancePtr head;
  std::vector<double> totals;
  for (int rep = 0; rep < reps; ++rep) {
    auto input = prepare();
    stack_.Shutdown();  // the previous rep's stack and snapshot go first
    head.reset();
    const double t0 = Now();
    const std::size_t build_span = spans_.Begin("api.snapshot_build");
    auto snapshot = build(std::move(input));
    spans_.End(build_span);
    if (!snapshot.ok()) SetupFailure(snapshot.status().ToString());
    head = *std::move(snapshot);
    const double t1 = Now();
    if (materialize) {
      const std::size_t materialize_span =
          spans_.Begin("api.materialize");
      if (!head->set_system().ok()) SetupFailure("materializing patterns");
      spans_.End(materialize_span);
    }
    const double t2 = Now();
    const std::size_t start_span = spans_.Begin("serve.start");
    stack_ = StartStack(head);
    spans_.End(start_span);
    const double t3 = Now();
    totals.push_back(t3 - t0);
    Record("api.snapshot_build_s", t1 - t0);
    Record("api.materialize_s", t2 - t1);
  }
  spans_.End(span);
  metrics_["setup_s"] = Median(totals);
  std::printf("# setup: %d rep(s), median %.3f s (build %.3f s, materialize "
              "%.3f s)\n",
              reps, metrics_["setup_s"],
              Median(samples_["api.snapshot_build_s"]),
              Median(samples_["api.materialize_s"]));
  if (!session_.Open(stack_.server->port())) SetupFailure("connecting");
  deadline_ = Now() + kRunDeadlineSeconds;
  return head;
}

std::size_t Bench::SendDelta(JsonObject body, const std::string& phase,
                             const std::string& snapshot) {
  const std::size_t index =
      session_.SendDelta(std::move(body), phase, snapshot);
  deltas_.push_back(index);
  session_.SendPing(phase);  // right behind the delta: the loop stall
  return index;
}

void Bench::React(const std::vector<std::size_t>& completed,
                  const FreshQuery& fresh) {
  for (const std::size_t index : completed) {
    const Request& request = session_.requests()[index];
    if (request.kind != Request::Kind::kDelta || !request.ok || !fresh ||
        request.phase == kSideHead) {
      continue;
    }
    fresh_.emplace_back(
        index, session_.SendSolve(fresh(session_.version()), "fresh", 0.0));
  }
}

bool Bench::FreshPending() const {
  for (const auto& [delta, solve] : fresh_) {
    if (session_.requests()[solve].received < 0.0) return true;
  }
  for (const std::size_t delta : deltas_) {
    if (session_.requests()[delta].received < 0.0) return true;
  }
  return false;
}

void Bench::WaitFor(const std::vector<std::size_t>& indices,
                    const FreshQuery& fresh) {
  const auto done = [&] {
    for (const std::size_t i : indices) {
      if (session_.requests()[i].received < 0.0) return false;
    }
    return !FreshPending();
  };
  while (!done() && !session_.broken() && Now() < deadline_) {
    React(session_.Pump(0.05), fresh);
  }
}

void Bench::RunRounds(const std::vector<Query>& reads, double rate,
                      const std::vector<Query>& capacity,
                      const std::function<void(std::size_t round)>& write) {
  for (std::size_t round = 0; round < kRounds; ++round) {
    const std::vector<Query> share = RoundShare(reads, round);
    OpenLoop(EvenOffsets(share.size(), rate, rng_), share);
    ClosedLoop(RoundShare(capacity, round));
    write(round);
  }
}

void Bench::OpenLoop(const std::vector<double>& offsets,
                     const std::vector<Query>& reads) {
  const std::size_t span = spans_.Begin("bench.open_loop");
  const double own_before = spans_.own_seconds();
  const double t0 = Now() + 0.05;
  std::vector<std::size_t> awaited;
  for (std::size_t i = 0; i < reads.size(); ++i) {
    const double due = t0 + offsets[i];
    while (Now() < due) session_.Pump(due - Now());
    lag_.push_back(Now() - due);
    awaited.push_back(session_.SendSolve(reads[i], "open", due));
  }
  WaitFor(awaited, FreshQuery());
  open_seconds_ += Now() - t0;
  open_span_seconds_ += spans_.own_seconds() - own_before;
  spans_.End(span);
}

void Bench::ClosedLoop(const std::vector<Query>& queries) {
  const std::size_t span = spans_.Begin("bench.capacity");
  const double t0 = Now();
  std::set<std::size_t> in_flight;
  std::size_t sent = 0, completed = 0;
  double last = t0;
  while (sent < std::min<std::size_t>(2, queries.size())) {
    in_flight.insert(session_.SendSolve(queries[sent++], "capacity", 0.0));
  }
  // Only completions while both workers had work count: the last one
  // would charge a worker's idle tail to the rate.
  while (!in_flight.empty() && !session_.broken() && Now() < deadline_) {
    for (const std::size_t index : session_.Pump(0.05)) {
      if (in_flight.erase(index) == 0) continue;
      const Request& request = session_.requests()[index];
      if (in_flight.empty() && sent >= queries.size()) continue;
      if (request.ok) ++completed;
      last = request.received;
      if (sent < queries.size()) {
        in_flight.insert(session_.SendSolve(queries[sent++], "capacity", 0.0));
      }
    }
  }
  capacity_completed_ += completed;
  capacity_seconds_ += last - t0;
  spans_.End(span);
}

void Bench::WriteRound(const JsonObject& delta, const FreshQuery& fresh,
                       const JsonObject& side, std::size_t sides,
                       double every) {
  const std::size_t span = spans_.Begin("bench.write");
  const std::size_t live = SendDelta(delta, "write");
  std::optional<std::size_t> side_delta;
  double next = 0.0;
  while ((FreshPending() || sides > 0) && !session_.broken() &&
         Now() < deadline_) {
    const bool side_idle =
        !side_delta || session_.requests()[*side_delta].received >= 0.0;
    double wait = 0.05;
    if (session_.requests()[live].received >= 0.0 && sides > 0 && side_idle) {
      if (Now() >= next) {
        side_delta = SendDelta(side, kSideHead, kSideHead);
        next = Now() + every;
        --sides;
      } else {
        wait = std::min(wait, next - Now());
      }
    }
    React(session_.Pump(wait), fresh);
  }
  spans_.End(span);
}

void Bench::Fail(const std::string& what) {
  if (failures_.size() < 20) {
    std::fprintf(stderr, "perfbench: check failed: %s\n", what.c_str());
  }
  failures_.push_back(what);
}

std::string Bench::AckedHash(std::size_t version) const {
  for (const std::size_t index : deltas_) {
    const Request& request = session_.requests()[index];
    if (request.version != version || request.phase == kSideHead) continue;
    const JsonValue* hash = request.result.Find("content_hash");
    return hash != nullptr && hash->is_string() ? hash->as_string() : "";
  }
  return "";
}

void Bench::CheckResponses(std::size_t n, std::size_t first_version,
                           std::size_t last_version,
                           const std::map<std::string, double>* label_costs) {
  for (std::size_t i = 0; i < session_.requests().size(); ++i) {
    const Request& request = session_.requests()[i];
    if (request.kind != Request::Kind::kSolve || !request.ok ||
        request.version < first_version || request.version > last_version) {
      continue;
    }
    ++contract_checked_;
    const std::string why =
        CheckContract(request.query, request.result, n, label_costs);
    if (!why.empty()) {
      Fail("r" + std::to_string(i) + " (" + request.query.solver + "): " + why);
    }
  }
}

std::vector<std::size_t> Bench::Sample(std::size_t version,
                                       const std::set<std::string>& phases,
                                       std::size_t per_solver) {
  std::map<std::string, std::vector<std::size_t>> by_solver;
  for (std::size_t i = 0; i < session_.requests().size(); ++i) {
    const Request& request = session_.requests()[i];
    if (request.kind == Request::Kind::kSolve && request.ok &&
        request.version == version && phases.count(request.phase) != 0) {
      by_solver[request.query.solver].push_back(i);
    }
  }
  std::vector<std::size_t> picked;
  for (auto& [solver, indices] : by_solver) {
    // Distinct cache keys only: a repeated key re-checks nothing new.
    std::set<std::pair<std::size_t, double>> keys;
    for (std::size_t taken = 0; taken < per_solver && !indices.empty();) {
      const std::size_t at = rng_.NextBounded(indices.size());
      const Query& q = session_.requests()[indices[at]].query;
      if (keys.insert({q.k, q.coverage}).second) {
        picked.push_back(indices[at]);
        ++taken;
      }
      indices.erase(indices.begin() + static_cast<std::ptrdiff_t>(at));
    }
  }
  return picked;
}

std::optional<api::SolveResult> Bench::SolveInProcess(
    const Query& q, const api::InstancePtr& instance) {
  auto request = api::SolveRequest::Builder(instance)
                     .WithK(q.k)
                     .WithCoverage(q.coverage)
                     .Build();
  if (!request.ok()) {
    Fail("building an in-process request: " + request.status().ToString());
    return std::nullopt;
  }
  const std::size_t span = spans_.Begin("api.solve");
  const double t0 = Now();
  auto result = api::SolverRegistry::Global().Solve(q.solver, *request);
  const double wall = Now() - t0;
  spans_.End(span);
  if (!result.ok()) {
    Fail("in-process " + q.solver + " failed: " + result.status().ToString());
    return std::nullopt;
  }
  Record("api.solve_ms." + q.solver, wall * 1e3);
  Record("api.finish_ms." + q.solver, (wall - result->seconds) * 1e3);
  if (q.solver == "opt-cwsc") {
    Record("pattern.considered.opt-cwsc",
           static_cast<double>(result->counters.sets_considered));
  } else {
    Record("core.alg_ms." + q.solver, result->seconds * 1e3);
    Record("core.evals_per_pick." + q.solver,
           static_cast<double>(result->counters.sets_considered) /
               static_cast<double>(std::max<std::size_t>(
                   1, result->solution.sets.size())));
  }
  return *std::move(result);
}

void Bench::Resolve(std::size_t index, const api::InstancePtr& instance) {
  const Request& served = session_.requests()[index];
  const Query& q = served.query;
  ++resolved_;
  const std::optional<api::SolveResult> result = SolveInProcess(q, instance);
  if (!result) return;

  std::vector<std::string> labels;
  if (const JsonValue* selection = served.result.Find("selection")) {
    for (const JsonValue& label : selection->as_array()) {
      labels.push_back(label.as_string());
    }
  }
  const JsonValue* cost = served.result.Find("total_cost");
  const JsonValue* covered = served.result.Find("covered");
  if (labels != result->labels || cost == nullptr ||
      cost->as_number() != result->total_cost || covered == nullptr ||
      covered->as_number() != static_cast<double>(result->covered)) {
    Fail("r" + std::to_string(index) + " (" + q.solver + " k=" +
         std::to_string(q.k) + ") differs from the in-process re-solve");
  }
}

void Bench::LayerProbes(const api::InstancePtr& head, const JsonObject& delta) {
  const std::size_t span = spans_.Begin("bench.layer_probes");
  auto system = head->set_system();
  for (int rep = 0; system.ok() && rep < 3; ++rep) {
    const std::size_t s = spans_.Begin("core.engine_build");
    const double t0 = Now();
    { const scwsc::BenefitEngine engine(**system); }
    Record("core.engine_build_ms", (Now() - t0) * 1e3);
    spans_.End(s);
  }

  auto parsed = serve::ParseDeltaObject(JsonValue(delta), "probe");
  if (!parsed.ok()) {
    Fail("probe delta: " + parsed.status().ToString());
  } else {
    serve::SnapshotStore store(&stack_.scheduler->snapshot_cache());
    (void)store.Put("probe", head);
    for (int rep = 0; rep < 2; ++rep) {
      std::size_t s = spans_.Begin("api.delta_apply");
      double t0 = Now();
      const bool applied = api::ApplyDelta(head, *parsed).ok();
      Record("api.delta_apply_ms", (Now() - t0) * 1e3);
      spans_.End(s);
      s = spans_.Begin("serve.store_apply");
      t0 = Now();
      const bool stored = store.Apply("probe", *parsed).ok();
      Record("serve.store_apply_ms", (Now() - t0) * 1e3);
      spans_.End(s);
      if (!applied || !stored) Fail("probe delta did not apply");
    }
  }

  std::size_t decoded = 0;
  for (const Request& request : session_.requests()) {
    if (request.kind == Request::Kind::kPing || decoded++ >= 400) continue;
    const std::size_t s = spans_.Begin("serve.decode");
    const double t0 = Now();
    auto root = serve::ParseJson(request.line);
    if (root.ok() && request.kind == Request::Kind::kSolve) {
      (void)serve::ParseJobObject(*root, head, "request", serve::kWireVersion);
    } else if (root.ok()) {
      (void)serve::ParseDeltaObject(*root, "request");
    }
    Record("serve.decode_ms", (Now() - t0) * 1e3);
    spans_.End(s);
  }
  spans_.End(span);
}

void Bench::CollectServedMetrics() {
  std::vector<double> latency, queue, wire, deltas, stalls, fresh;
  std::size_t solves = 0, hits = 0;
  for (const Request& request : session_.requests()) {
    if (request.received < 0.0 || !request.ok) continue;
    const double rtt = request.received - request.sent;
    switch (request.kind) {
      case Request::Kind::kPing:
        stalls.push_back(rtt * 1e3);
        break;
      case Request::Kind::kDelta:
        deltas.push_back(rtt * 1e3);
        break;
      case Request::Kind::kSolve: {
        ++solves;
        const JsonValue* hit = request.result.Find("from_result_cache");
        if (hit != nullptr && hit->as_bool()) ++hits;
        if (request.phase != "open") break;
        latency.push_back((request.received - request.due) * 1e3);
        const JsonValue* q = request.result.Find("queue_seconds");
        const JsonValue* r = request.result.Find("run_seconds");
        if (q != nullptr && r != nullptr) {
          queue.push_back(q->as_number() * 1e3);
          wire.push_back((rtt - q->as_number() - r->as_number()) * 1e3);
        }
        break;
      }
    }
  }
  for (const auto& [delta, solve] : fresh_) {
    const Request& answer = session_.requests()[solve];
    if (answer.received >= 0.0) {
      fresh.push_back((answer.received - session_.requests()[delta].sent) *
                      1e3);
    }
  }
  metrics_["solve_p50_ms"] = Median(latency);
  metrics_["solve_p90_ms"] = Quantile(latency, 0.9);
  metrics_["capacity_rps"] =
      capacity_seconds_ > 0.0
          ? static_cast<double>(capacity_completed_) / capacity_seconds_
          : 0.0;
  metrics_["delta_p50_ms"] = Median(deltas);
  metrics_["fresh_p50_ms"] = Median(fresh);
  metrics_["serve.loop_stall_ms"] = Median(stalls);
  metrics_["serve.queue_ms.p50"] = Median(queue);
  metrics_["serve.queue_ms.p90"] = Quantile(queue, 0.9);
  metrics_["serve.wire_ms"] = Median(wire);
  metrics_["serve.cache_hit_ratio"] =
      solves > 0 ? static_cast<double>(hits) / static_cast<double>(solves)
                 : 0.0;
  std::vector<double> lag_ms;
  for (const double l : lag_) lag_ms.push_back(l * 1e3);
  metrics_["bench.gen_lag_ms.p99"] = Quantile(lag_ms, 0.99);
  metrics_["bench.trace_overhead_ratio"] =
      open_seconds_ / (open_seconds_ - open_span_seconds_);
  std::printf("# open-loop solves: %zu, p50 %.1f ms, p90 %.1f ms (%zu beyond "
              "p90); deltas %zu, fresh reads %zu, pings %zu\n",
              latency.size(), metrics_["solve_p50_ms"],
              metrics_["solve_p90_ms"], latency.size() / 10, deltas.size(),
              fresh.size(), stalls.size());
  for (const auto& [name, values] :
       {std::pair{"delta", &deltas}, std::pair{"fresh", &fresh}}) {
    std::printf("# %s ms:", name);
    for (const double v : *values) std::printf(" %.1f", v);
    std::printf("\n");
  }
}

void Bench::RunCarrier() {
  // Reads dominate: cwsc's parked-candidate recounts and the post-solve
  // finish of every solver. Every key is distinct, so nothing is served
  // from the result cache; one delta after each round's reads gives the
  // write metrics without disturbing them. cwsc is three fifths of the
  // mix, so both the median and the p90 fall inside its latency range
  // instead of on the edge between cheap and expensive solves.
  const scwsc::SetSystem base = CarrierSystem(kCarrierElements, kCarrierSeed);
  SetSystemLog log(base);
  const api::InstancePtr head = SetUp(
      [&] { return base.Clone(); },
      [](scwsc::SetSystem s) {
        return api::InstanceSnapshot::FromSetSystem(std::move(s));
      },
      false, 3);

  const QueryMix mix{{"cwsc", "cmc", "cwsc", "greedy-wsc", "cwsc"}, 300, 900,
                     0.35, 0.65};
  std::set<QueryKey> used;
  const std::vector<Query> reads =
      DrawQueries(mix, PhaseCount(kCarrierRate, 0.9), rng_, &used);
  const std::vector<Query> capacity =
      DrawQueries(mix, PhaseCount(kCarrierCapacity, 0.24), rng_, &used);
  const FreshQuery fresh = [&](std::size_t) {
    return DrawQueries({{"greedy-wsc"}, 300, 900, 0.35, 0.65}, 1, rng_, &used)[0];
  };
  std::vector<JsonObject> writes;
  for (std::size_t i = 0; i < kRounds; ++i) {
    writes.push_back(SetSystemLog::ToWire(log.NextDelta(rng_)));
  }
  RunRounds(reads, kCarrierRate, capacity, [&](std::size_t round) {
    WriteRound(writes[round], fresh);
  });
  session_.Drain(deadline_);
  metrics_["peak_rss_mb"] = PeakRssMb();

  const std::size_t last = log.latest();
  if (args_.trace) {
    LayerProbes(head, SetSystemLog::ToWire(log.NextDelta(rng_)));
  }
  const std::size_t span = spans_.Begin("bench.verify");
  CheckResponses(kCarrierElements, 0, last, &log.label_costs());
  for (const std::size_t i : Sample(0, {"open", "capacity"}, 1)) {
    Resolve(i, head);
  }
  const api::InstancePtr served = *stack_.store->Get("live");
  auto rebuilt = api::InstanceSnapshot::FromSetSystem(log.Build(last));
  if (!rebuilt.ok() || (*rebuilt)->content_hash() != served->content_hash() ||
      HashHex(served->content_hash()) != AckedHash(last)) {
    Fail("head content_hash differs from a from-scratch rebuild");
  }
  for (const std::size_t i : Sample(last, {"fresh"}, 1)) Resolve(i, served);
  spans_.End(span);
}

void Bench::RunTrace() {
  // Set-backed cwsc / greedy-wsc reads over the enumerated 700k-row trace;
  // each round ends with a one-row append followed by a cwsc solve that
  // waits for the new version's re-enumeration, so the next round reads an
  // enumerated version. The lattice opt-cwsc (~9 s) and cmc
  // (~4 s) are not served: a single one of them would dominate the open
  // loop's latencies and the run's time. The traced run solves one of each
  // in-process on the final head for the cmc and lattice layer metrics.
  const scwsc::Table table = Trace(kTraceRows, kTraceSeed);
  // The store holds version 0 (as both heads); once the appends have moved
  // the heads on, the snapshot cache's eviction frees its patterns (~1 GB).
  (void)SetUp(
      [&] { return table; },
      [](scwsc::Table t) {
        return api::InstanceSnapshot::FromTable(
            std::move(t),
            scwsc::pattern::CostFunction(scwsc::pattern::CostKind::kMax));
      },
      true, 1);
  (void)stack_.store->Put(kSideHead, *stack_.store->Get("live"));

  const QueryMix mix{{"cwsc", "greedy-wsc"}, 10, 50, 0.35, 0.65};
  std::set<QueryKey> used;
  const std::vector<Query> reads =
      DrawQueries(mix, PhaseCount(kTraceRate, 0.33), rng_, &used);
  const std::vector<Query> capacity =
      DrawQueries(mix, PhaseCount(kTraceCapacity, 0.13), rng_, &used);
  const FreshQuery fresh = [&](std::size_t) {
    return DrawQueries({{"cwsc"}, 10, 50, 0.35, 0.65}, 1, rng_, &used)[0];
  };

  // Appends of one row shaped like an existing one, so it joins live
  // patterns. The side head appends a row with other values, so that no
  // side version has the content (the snapshot cache's key) of a live one.
  const auto values_of = [&](std::size_t donor) {
    JsonArray values;
    for (std::size_t a = 0; a < table.num_attributes(); ++a) {
      values.push_back(JsonValue(table.value_name(
          static_cast<scwsc::RowId>(donor), a)));
    }
    return JsonValue(std::move(values));
  };
  const auto append_of = [&](std::size_t donor) {
    JsonObject row;
    row["values"] = values_of(donor);
    row["measure"] =
        JsonValue(table.measure(static_cast<scwsc::RowId>(donor)));
    JsonObject append;
    append["append_rows"] = JsonValue(JsonArray{JsonValue(std::move(row))});
    return append;
  };
  const std::size_t donor = rng_.NextBounded(table.num_rows());
  std::size_t side_donor = donor;
  while (values_of(side_donor).Dump() == values_of(donor).Dump()) {
    side_donor = rng_.NextBounded(table.num_rows());
  }
  const JsonObject append = append_of(donor);
  const JsonObject side = append_of(side_donor);
  // Each read of a new version re-enumerates its patterns (~10 s), so a
  // round appends once to the live head, for the read-after-write, and
  // times further appends on the side head during that read. Spaced
  // 0.85 s apart, their round trips sample the machine's drifting speed
  // (memory-bound work on one core of a shared VM varies by up to 2x over
  // 5-20 s) instead of one moment of it. The snapshot cache (default
  // 256 MiB) holds 13 trace versions and evicts in insertion order; with
  // 11 side appends a round, version 0 (~1 GB of patterns) leaves it at
  // round 2's live append in every run, between two enumerations, which
  // keeps peak_rss_mb steady.
  constexpr std::size_t kSideAppends = 11;
  constexpr double kSideEvery = 0.85;
  RunRounds(reads, kTraceRate, capacity, [&](std::size_t round) {
    // The first round's reads are re-solved on version 0 before the append
    // moves the head on (and the cache lets version 0 go).
    if (round == 0) {
      const std::size_t span = spans_.Begin("bench.verify");
      const api::InstancePtr seen = *stack_.store->Get("live");
      for (const std::size_t i : Sample(0, {"open", "capacity"}, 1)) {
        Resolve(i, seen);
      }
      spans_.End(span);
    }
    // Freed pages go back to the kernel before each enumeration, so that
    // peak_rss_mb does not depend on whether the worker that enumerates
    // reuses another thread's freed patterns (which varies run to run).
    malloc_trim(0);
    WriteRound(append, fresh, side, kSideAppends, kSideEvery);
  });
  session_.Drain(deadline_);
  metrics_["peak_rss_mb"] = PeakRssMb();

  const api::InstancePtr head = *stack_.store->Get("live");
  if (args_.trace) {
    LayerProbes(head, append);
    for (const char* solver : {"cmc", "opt-cwsc"}) {
      (void)SolveInProcess(
          DrawQueries({{solver}, 10, 50, 0.35, 0.65}, 1, rng_, &used)[0],
          head);
    }
  }
  const std::size_t span = spans_.Begin("bench.verify");
  for (std::size_t v = 0; v <= kRounds; ++v) {
    CheckResponses(kTraceRows + v, v, v, nullptr);
  }
  for (const std::size_t i : Sample(kRounds, {"fresh"}, 1)) Resolve(i, head);
  if (HashHex(head->content_hash()) != AckedHash(kRounds)) {
    Fail("head content_hash differs from the acknowledged append");
  }
  spans_.End(span);
}

int Bench::Run() {
  std::printf("# perfbench workload=%s seed=%llu seconds=%g trace=%d\n",
              args_.workload.c_str(),
              static_cast<unsigned long long>(args_.seed), args_.seconds,
              args_.trace ? 1 : 0);
  const std::size_t span = spans_.Begin("bench.run");
  if (args_.workload == "carrier-7m") {
    RunCarrier();
  } else {
    RunTrace();
  }
  spans_.End(span);
  return Report();
}

int Bench::Report() {
  CollectServedMetrics();
  for (const auto& [name, values] : samples_) {
    if (metrics_.count(name) == 0) metrics_[name] = Median(values);
  }

  // Load and failures per phase; a refusal or a missing response fails.
  std::map<std::string, std::array<std::size_t, 4>> phases;
  std::size_t attempted = 0, failed = 0;
  for (const Request& request : session_.requests()) {
    auto& counts = phases[request.phase];  // sent, ok, refused, missing
    ++counts[0];
    ++attempted;
    if (request.received < 0.0) {
      ++counts[3];
    } else if (request.ok) {
      ++counts[1];
    } else if (request.error == "ResourceExhausted") {
      ++counts[2];
    }
    if (request.received < 0.0 || !request.ok) ++failed;
  }
  for (const auto& [phase, c] : phases) {
    std::printf("# phase %-8s sent %zu succeeded %zu failed %zu (refused %zu, "
                "missing %zu)\n",
                phase.c_str(), c[0], c[1], c[0] - c[1], c[2], c[3]);
  }
  std::printf("# fail_ratio %.6f (%zu of %zu requests)\n",
              attempted > 0 ? static_cast<double>(failed) /
                                  static_cast<double>(attempted)
                            : 0.0,
              failed, attempted);
  std::printf("# checks: %zu responses against their contract, %zu "
              "in-process re-solves, %zu failure(s)\n",
              contract_checked_, resolved_, failures_.size());

  if (args_.trace) {
    for (const auto& [layer, seconds] : spans_.SelfSecondsByLayer()) {
      std::printf("# self time %-8s %.3f s\n", layer.c_str(), seconds);
    }
    const std::filesystem::path dir = ".bench_build/traces";
    std::error_code ec;
    std::filesystem::create_directories(dir, ec);
    const std::string path =
        (dir / (args_.workload + "-" + std::to_string(args_.seed) + ".json"))
            .string();
    if (spans_.WriteChromeTrace(path)) {
      std::printf("# trace written to %s\n", path.c_str());
    }
  }

  JsonObject metrics;
  for (const MetricSpec& spec : kMetrics) {
    if (spec.layer != args_.trace) continue;
    JsonObject entry;
    entry["value"] = JsonValue(metrics_.count(spec.name) != 0
                                   ? metrics_[spec.name]
                                   : 0.0);
    entry["unit"] = JsonValue(spec.unit);
    metrics[spec.name] = JsonValue(std::move(entry));
    std::printf("# %-32s %14.4f %s\n", spec.name,
                metrics[spec.name].Find("value")->as_number(), spec.unit);
  }
  const bool correct = failures_.empty();
  JsonObject out;
  out["correct"] = JsonValue(correct);
  out["attempted"] = JsonValue(attempted);
  out["failed"] = JsonValue(failed);
  out["metrics"] = JsonValue(std::move(metrics));
  std::printf("%s\n", JsonValue(std::move(out)).Dump().c_str());
  std::fflush(stdout);
  return correct ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  perfbench::Args args;
  if (!perfbench::ParseArgs(argc, argv, &args)) {
    std::fprintf(stderr,
                 "usage: perfbench --workload carrier-7m|trace-700k "
                 "--seed N --seconds S --trace 0|1\n");
    return 2;
  }
  // The serving stack is left to the exit: tearing it down would free the
  // run's snapshots (~2 GB of patterns on trace-700k), which takes seconds
  // and measures nothing.
  auto* bench = new perfbench::Bench(args);
  const int code = bench->Run();
  std::fflush(nullptr);
  std::_Exit(code);
}
