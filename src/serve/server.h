// Socket front end for live serving: a single-threaded epoll loop speaking
// the versioned wire protocol (serve/wire.h) over persistent TCP
// connections, in front of the same SolveScheduler the batch path uses.
//
// Protocol: newline-delimited JSON, one request object per line, one
// response object per request (responses may arrive out of order — clients
// correlate by "id"). Request types:
//
//   {"version": 2, "id": "r1", "type": "ping"}
//   {"version": 2, "id": "r2", "type": "list_solvers"}
//   {"version": 2, "id": "r3", "type": "solve", "snapshot": "live",
//    "solver": "cwsc", "k": 5, "coverage": 0.5, "tenant": "acme", ...}
//   {"version": 2, "id": "r4", "type": "delta", "snapshot": "live",
//    "add_sets": [{"elements": [1, 2], "cost": 0.5, "label": "s9"}],
//    "remove_sets": [3]}
//
// "solve" resolves the named snapshot from the SnapshotStore, builds the
// job through the shared ParseJobObject (so CLI batch files and socket
// requests cannot drift), enqueues it, and answers when the future
// resolves — the loop keeps serving other connections meanwhile. "delta"
// applies a SnapshotDelta to the named head and publishes the child as the
// new head.
//
// Concurrency model: one epoll thread owns every connection; solves run on
// the scheduler's pool and come back as futures the loop polls between
// epoll waits. Sockets are non-blocking; response bytes that do not fit the
// kernel buffer wait for EPOLLOUT (backpressure, never a blocked loop).
// Stop() wakes the loop through an eventfd and joins.

#ifndef SCWSC_SERVE_SERVER_H_
#define SCWSC_SERVE_SERVER_H_

#include <cstddef>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "src/api/delta.h"
#include "src/api/instance.h"
#include "src/common/result.h"
#include "src/serve/scheduler.h"

namespace scwsc {
namespace serve {

/// Named snapshot heads, each the latest version of a live instance.
/// Put() registers (or replaces) a head; Apply() advances one by a delta,
/// atomically swapping the head to the child version. Readers always get
/// a consistent InstancePtr — in-flight solves keep the version they
/// resolved. The store holds only its heads: a replaced version lives
/// exactly as long as some job or caller still holds its InstancePtr.
class SnapshotStore {
 public:
  /// The parameter is ignored. It is kept only so that perfbench's
  /// `SnapshotStore(&scheduler->snapshot_cache())` compiles until a change
  /// to the benchmark drops the argument.
  explicit SnapshotStore(SnapshotCache* = nullptr) {}

  /// Registers or replaces the head for `name`. InvalidArgument on a null
  /// snapshot or empty name.
  Status Put(const std::string& name, api::InstancePtr snapshot);

  /// The current head. NotFound when `name` was never Put.
  Result<api::InstancePtr> Get(const std::string& name) const;

  /// Applies `delta` to the current head of `name` and publishes the child
  /// as the new head. Errors from api::ApplyDelta pass through and leave
  /// the head unchanged.
  Result<api::AppliedDelta> Apply(const std::string& name,
                                  const api::SnapshotDelta& delta);

  /// Registered head names, sorted.
  std::vector<std::string> Names() const;

 private:
  mutable std::mutex mu_;
  std::map<std::string, api::InstancePtr> heads_;
};

struct ServerOptions {
  /// Listen address; tests keep the loopback default.
  std::string host = "127.0.0.1";
  /// 0 = ephemeral: the kernel picks, port() reports it after Start().
  int port = 0;
  /// Concurrent connections; accepts beyond this are closed immediately.
  std::size_t max_connections = 64;
  /// Longest accepted request line; a connection that exceeds it without
  /// a newline gets a typed error and is closed (a hostile peer cannot
  /// grow a buffer without bound).
  std::size_t max_request_bytes = 1 << 20;
};

/// The epoll front end. Construct over a scheduler and a store (both must
/// outlive the server), Start(), connect, speak the wire protocol.
class SolveServer {
 public:
  SolveServer(SolveScheduler* scheduler, SnapshotStore* store,
              ServerOptions options = {});

  SolveServer(const SolveServer&) = delete;
  SolveServer& operator=(const SolveServer&) = delete;

  /// Stops if still running.
  ~SolveServer();

  /// Binds, listens, and spawns the epoll thread. Unavailable when the
  /// socket cannot be bound, FailedPrecondition-free otherwise: calling
  /// Start() twice is InvalidArgument.
  Status Start();

  /// Wakes the loop, closes every connection, joins. Idempotent. Futures
  /// of solves already enqueued still complete inside the scheduler; their
  /// responses are dropped with the connections.
  void Stop();

  /// The bound port (the kernel-assigned one under port = 0), or 0 before
  /// Start().
  int port() const { return bound_port_; }

 private:
  struct Connection;

  void Loop();
  /// Parses and dispatches one request line; appends any immediate
  /// response to the connection's output buffer (solves append later,
  /// when their future resolves).
  void HandleLine(Connection& conn, const std::string& line);
  /// Moves resolved solve futures into response bytes. Returns true when
  /// any connection made progress (the loop then retries flushing).
  bool PumpPending();
  void FlushOutput(Connection& conn);
  void CloseConnection(int fd);

  SolveScheduler* const scheduler_;
  SnapshotStore* const store_;
  const ServerOptions options_;

  int listen_fd_ = -1;
  int epoll_fd_ = -1;
  int wake_fd_ = -1;  // eventfd Stop() writes to unblock epoll_wait
  int bound_port_ = 0;
  bool started_ = false;
  std::mutex stop_mu_;
  bool stopped_ = false;
  std::thread thread_;

  std::map<int, std::unique_ptr<Connection>> connections_;
};

}  // namespace serve
}  // namespace scwsc

#endif  // SCWSC_SERVE_SERVER_H_
