#include "src/serve/server.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/epoll.h>
#include <sys/eventfd.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <cstring>
#include <future>
#include <list>
#include <utility>

#include "src/common/logging.h"
#include "src/serve/json.h"
#include "src/serve/wire.h"

namespace scwsc {
namespace serve {

// --- SnapshotStore ---------------------------------------------------------

Status SnapshotStore::Put(const std::string& name, api::InstancePtr snapshot) {
  if (name.empty()) {
    return Status::InvalidArgument("snapshot name must not be empty");
  }
  if (snapshot == nullptr) {
    return Status::InvalidArgument("snapshot must not be null");
  }
  std::lock_guard<std::mutex> lock(mu_);
  heads_[name] = std::move(snapshot);
  return Status::OK();
}

Result<api::InstancePtr> SnapshotStore::Get(const std::string& name) const {
  std::lock_guard<std::mutex> lock(mu_);
  const auto it = heads_.find(name);
  if (it == heads_.end()) {
    return Status::NotFound("no snapshot named '" + name + "'");
  }
  return it->second;
}

Result<api::AppliedDelta> SnapshotStore::Apply(const std::string& name,
                                               const api::SnapshotDelta& delta) {
  std::lock_guard<std::mutex> lock(mu_);
  const auto it = heads_.find(name);
  if (it == heads_.end()) {
    return Status::NotFound("no snapshot named '" + name + "'");
  }
  SCWSC_ASSIGN_OR_RETURN(api::AppliedDelta applied,
                         api::ApplyDelta(it->second, delta));
  // The swap drops the store's reference to the parent; the parent is
  // freed here unless a job or caller still holds it.
  it->second = applied.snapshot;
  return applied;
}

std::vector<std::string> SnapshotStore::Names() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<std::string> names;
  names.reserve(heads_.size());
  for (const auto& [name, head] : heads_) names.push_back(name);
  return names;
}

// --- SolveServer -----------------------------------------------------------

struct SolveServer::Connection {
  int fd = -1;
  std::uint32_t armed = EPOLLIN;  // events currently registered with epoll
  std::string in;                 // bytes read, not yet a complete line
  std::string out;                // response bytes not yet written
  /// Solves in flight: the future plus the response envelope (version, id,
  /// forward echo) prepared at parse time.
  struct PendingSolve {
    std::future<JobOutcome> future;
    JsonObject envelope;
    std::string solver;
  };
  std::list<PendingSolve> pending;
  bool broken = false;   // unrecoverable I/O error; close on next sweep
  bool closing = false;  // peer done sending; close once out + pending drain
};

namespace {

std::string Errno(const char* what) {
  return std::string(what) + ": " + std::strerror(errno);
}

/// Renders a resolved solve as one response line. The "result" object
/// carries the same per-job fields as a batch report entry, so a client
/// can share its decoding between the two surfaces.
std::string RenderSolveResponse(JsonObject envelope, const std::string& solver,
                                JobOutcome outcome) {
  JsonObject result;
  result["label"] = JsonValue(outcome.label);
  result["solver"] = JsonValue(solver);
  result["from_result_cache"] = JsonValue(outcome.from_result_cache);
  result["queue_seconds"] = JsonValue(outcome.queue_seconds);
  result["run_seconds"] = JsonValue(outcome.run_seconds);
  const api::SolveResult* solve = nullptr;
  if (outcome.result.ok()) {
    envelope["ok"] = JsonValue(true);
    solve = &*outcome.result;
  } else {
    envelope["ok"] = JsonValue(false);
    envelope["error"] = ErrorToJson(ErrorInfoFromStatus(outcome.result.status()));
    // An interruption still surfaces its best-so-far partial.
    solve = outcome.result.status().payload<api::SolveResult>();
  }
  if (solve != nullptr) AddResultFields(*solve, result);
  envelope["result"] = JsonValue(std::move(result));
  return JsonValue(std::move(envelope)).Dump() + "\n";
}

}  // namespace

SolveServer::SolveServer(SolveScheduler* scheduler, SnapshotStore* store,
                         ServerOptions options)
    : scheduler_(scheduler), store_(store), options_(std::move(options)) {}

SolveServer::~SolveServer() { Stop(); }

Status SolveServer::Start() {
  if (started_) return Status::InvalidArgument("server already started");
  listen_fd_ = ::socket(AF_INET, SOCK_STREAM | SOCK_NONBLOCK | SOCK_CLOEXEC, 0);
  if (listen_fd_ < 0) return Status::Unavailable(Errno("socket"));
  const int reuse = 1;
  (void)::setsockopt(listen_fd_, SOL_SOCKET, SO_REUSEADDR, &reuse,
                     sizeof(reuse));
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<std::uint16_t>(options_.port));
  if (::inet_pton(AF_INET, options_.host.c_str(), &addr.sin_addr) != 1) {
    ::close(listen_fd_);
    listen_fd_ = -1;
    return Status::InvalidArgument("invalid listen host '" + options_.host +
                                   "'");
  }
  const auto fail = [this](std::string message) {
    if (wake_fd_ >= 0) ::close(wake_fd_);
    if (epoll_fd_ >= 0) ::close(epoll_fd_);
    ::close(listen_fd_);
    listen_fd_ = epoll_fd_ = wake_fd_ = -1;
    return Status::Unavailable(std::move(message));
  };
  if (::bind(listen_fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) !=
      0) {
    return fail(Errno("bind"));
  }
  if (::listen(listen_fd_, 64) != 0) return fail(Errno("listen"));
  sockaddr_in bound{};
  socklen_t bound_len = sizeof(bound);
  if (::getsockname(listen_fd_, reinterpret_cast<sockaddr*>(&bound),
                    &bound_len) != 0) {
    return fail(Errno("getsockname"));
  }
  bound_port_ = static_cast<int>(ntohs(bound.sin_port));

  epoll_fd_ = ::epoll_create1(EPOLL_CLOEXEC);
  if (epoll_fd_ < 0) return fail(Errno("epoll_create1"));
  wake_fd_ = ::eventfd(0, EFD_NONBLOCK | EFD_CLOEXEC);
  if (wake_fd_ < 0) return fail(Errno("eventfd"));
  epoll_event ev{};
  ev.events = EPOLLIN;
  ev.data.fd = listen_fd_;
  if (::epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, listen_fd_, &ev) != 0) {
    return fail(Errno("epoll_ctl(listen)"));
  }
  ev.data.fd = wake_fd_;
  if (::epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, wake_fd_, &ev) != 0) {
    return fail(Errno("epoll_ctl(wake)"));
  }

  {
    std::lock_guard<std::mutex> lock(stop_mu_);
    stopped_ = false;
  }
  started_ = true;
  thread_ = std::thread([this] { Loop(); });
  SCWSC_LOG_INFO("serve: listening on %s:%d", options_.host.c_str(),
                 bound_port_);
  return Status::OK();
}

void SolveServer::Stop() {
  {
    std::lock_guard<std::mutex> lock(stop_mu_);
    if (!started_ || stopped_) return;
    stopped_ = true;
  }
  const std::uint64_t one = 1;
  (void)!::write(wake_fd_, &one, sizeof(one));
  if (thread_.joinable()) thread_.join();
  for (auto& [fd, conn] : connections_) ::close(fd);
  connections_.clear();
  ::close(listen_fd_);
  ::close(epoll_fd_);
  ::close(wake_fd_);
  listen_fd_ = epoll_fd_ = wake_fd_ = -1;
  bound_port_ = 0;
  started_ = false;
}

void SolveServer::Loop() {
  epoll_event events[64];
  std::vector<int> dead;
  for (;;) {
    bool have_pending = false;
    for (const auto& [fd, conn] : connections_) {
      if (!conn->pending.empty()) {
        have_pending = true;
        break;
      }
    }
    // With solves in flight the loop doubles as their poller; otherwise it
    // sleeps until a socket or the stop eventfd wakes it.
    const int timeout_ms = have_pending ? 10 : -1;
    const int n = ::epoll_wait(epoll_fd_, events, 64, timeout_ms);
    if (n < 0) {
      if (errno == EINTR) continue;
      SCWSC_LOG_ERROR("serve: %s", Errno("epoll_wait").c_str());
      return;
    }
    bool stop = false;
    for (int i = 0; i < n; ++i) {
      const int fd = events[i].data.fd;
      if (fd == wake_fd_) {
        std::uint64_t drained = 0;
        (void)!::read(wake_fd_, &drained, sizeof(drained));
        stop = true;
        continue;
      }
      if (fd == listen_fd_) {
        for (;;) {
          const int client = ::accept4(listen_fd_, nullptr, nullptr,
                                       SOCK_NONBLOCK | SOCK_CLOEXEC);
          if (client < 0) break;
          if (connections_.size() >= options_.max_connections) {
            ::close(client);
            continue;
          }
          auto conn = std::make_unique<Connection>();
          conn->fd = client;
          epoll_event add{};
          add.events = EPOLLIN;
          add.data.fd = client;
          if (::epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, client, &add) != 0) {
            ::close(client);
            continue;
          }
          connections_.emplace(client, std::move(conn));
        }
        continue;
      }
      const auto it = connections_.find(fd);
      if (it == connections_.end()) continue;  // closed earlier this batch
      Connection& conn = *it->second;
      if ((events[i].events & (EPOLLHUP | EPOLLERR)) != 0) {
        conn.broken = true;
        continue;
      }
      if ((events[i].events & EPOLLIN) != 0) {
        char buf[4096];
        for (;;) {
          const ssize_t got = ::recv(fd, buf, sizeof(buf), 0);
          if (got > 0) {
            conn.in.append(buf, static_cast<std::size_t>(got));
            continue;
          }
          if (got == 0) {
            conn.closing = true;  // peer finished sending; drain and close
          } else if (errno != EAGAIN && errno != EWOULDBLOCK) {
            conn.broken = true;
          }
          break;
        }
        std::size_t newline;
        while ((newline = conn.in.find('\n')) != std::string::npos) {
          std::string line = conn.in.substr(0, newline);
          conn.in.erase(0, newline + 1);
          HandleLine(conn, line);
        }
        if (conn.in.size() > options_.max_request_bytes) {
          JsonObject envelope;
          envelope["version"] =
              JsonValue(static_cast<std::size_t>(kWireVersion));
          envelope["ok"] = JsonValue(false);
          envelope["error"] = ErrorToJson(
              ErrorInfoFromStatus(Status::InvalidArgument(
                  "request line exceeds " +
                  std::to_string(options_.max_request_bytes) + " bytes")));
          conn.out += JsonValue(std::move(envelope)).Dump() + "\n";
          conn.in.clear();
          conn.closing = true;
        }
      }
      FlushOutput(conn);
    }
    if (stop) return;
    PumpPending();
    dead.clear();
    for (const auto& [fd, conn] : connections_) {
      if (conn->broken ||
          (conn->closing && conn->out.empty() && conn->pending.empty())) {
        dead.push_back(fd);
      }
    }
    for (const int fd : dead) CloseConnection(fd);
  }
}

void SolveServer::HandleLine(Connection& conn, const std::string& line) {
  if (line.find_first_not_of(" \t\r") == std::string::npos) return;

  JsonObject envelope;
  envelope["version"] = JsonValue(static_cast<std::size_t>(kWireVersion));
  const auto respond_error = [&](const Status& status) {
    envelope["ok"] = JsonValue(false);
    envelope["error"] = ErrorToJson(ErrorInfoFromStatus(status));
    conn.out += JsonValue(std::move(envelope)).Dump() + "\n";
  };
  const auto respond_result = [&](JsonValue result) {
    envelope["ok"] = JsonValue(true);
    envelope["result"] = std::move(result);
    conn.out += JsonValue(std::move(envelope)).Dump() + "\n";
  };

  JsonParseLimits limits;
  limits.max_bytes = options_.max_request_bytes;
  const Result<JsonValue> parsed = ParseJson(line, limits);
  if (!parsed.ok()) {
    respond_error(parsed.status());
    return;
  }
  const JsonValue& root = *parsed;
  if (!root.is_object()) {
    respond_error(Status::InvalidArgument("request must be a JSON object"));
    return;
  }
  if (const JsonValue* id = root.Find("id")) envelope["id"] = *id;
  if (const Status version = CheckWireVersion(root, "socket"); !version.ok()) {
    respond_error(version);
    return;
  }
  std::string type = "solve";
  if (const JsonValue* t = root.Find("type")) {
    if (!t->is_string()) {
      respond_error(Status::InvalidArgument("\"type\" must be a string"));
      return;
    }
    type = t->as_string();
  }

  if (type == "ping") {
    JsonObject pong;
    pong["pong"] = JsonValue(true);
    respond_result(JsonValue(std::move(pong)));
    return;
  }
  if (type == "list_solvers") {
    respond_result(SolverListToJson());
    return;
  }
  if (type != "solve" && type != "delta") {
    respond_error(Status::InvalidArgument(
        "unknown request type \"" + type +
        "\" (expected solve, delta, ping or list_solvers)"));
    return;
  }
  const JsonValue* snapshot = root.Find("snapshot");
  if (snapshot == nullptr || !snapshot->is_string()) {
    respond_error(Status::InvalidArgument("\"" + type +
                                          "\" needs a string \"snapshot\""));
    return;
  }

  if (type == "delta") {
    const Result<api::SnapshotDelta> delta = ParseDeltaObject(root, "request");
    if (!delta.ok()) {
      respond_error(delta.status());
      return;
    }
    const Result<api::AppliedDelta> applied =
        store_->Apply(snapshot->as_string(), *delta);
    if (!applied.ok()) {
      respond_error(applied.status());
      return;
    }
    respond_result(DeltaStatsToJson(applied->stats,
                                    applied->snapshot->content_hash()));
    return;
  }

  const Result<api::InstancePtr> instance = store_->Get(snapshot->as_string());
  if (!instance.ok()) {
    respond_error(instance.status());
    return;
  }
  Result<ParsedJob> job = ParseJobObject(root, *instance, "request");
  if (!job.ok()) {
    respond_error(job.status());
    return;
  }
  if (job->repeat != 1) {
    respond_error(Status::InvalidArgument(
        "\"repeat\" is a batch-file feature; send one request per solve"));
    return;
  }
  if (!job->forward.empty()) {
    envelope["forward"] = JsonValue(std::move(job->forward));
  }
  const std::string solver = job->job.solver;
  Result<std::future<JobOutcome>> future =
      scheduler_->Enqueue(std::move(job->job));
  if (!future.ok()) {
    respond_error(future.status());
    return;
  }
  Connection::PendingSolve pending;
  pending.future = std::move(*future);
  pending.envelope = std::move(envelope);
  pending.solver = solver;
  conn.pending.push_back(std::move(pending));
}

bool SolveServer::PumpPending() {
  bool progress = false;
  for (const auto& [fd, conn] : connections_) {
    bool changed = false;
    for (auto it = conn->pending.begin(); it != conn->pending.end();) {
      if (it->future.wait_for(std::chrono::seconds(0)) !=
          std::future_status::ready) {
        ++it;
        continue;
      }
      conn->out += RenderSolveResponse(std::move(it->envelope), it->solver,
                                       it->future.get());
      it = conn->pending.erase(it);
      changed = true;
    }
    if (changed) {
      FlushOutput(*conn);
      progress = true;
    }
  }
  return progress;
}

void SolveServer::FlushOutput(Connection& conn) {
  while (!conn.out.empty() && !conn.broken) {
    const ssize_t sent =
        ::send(conn.fd, conn.out.data(), conn.out.size(), MSG_NOSIGNAL);
    if (sent > 0) {
      conn.out.erase(0, static_cast<std::size_t>(sent));
      continue;
    }
    if (sent < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) break;
    conn.broken = true;
  }
  const std::uint32_t want =
      EPOLLIN | (conn.out.empty() ? 0u : static_cast<std::uint32_t>(EPOLLOUT));
  if (want != conn.armed && !conn.broken) {
    epoll_event ev{};
    ev.events = want;
    ev.data.fd = conn.fd;
    if (::epoll_ctl(epoll_fd_, EPOLL_CTL_MOD, conn.fd, &ev) == 0) {
      conn.armed = want;
    }
  }
}

void SolveServer::CloseConnection(int fd) {
  const auto it = connections_.find(fd);
  if (it == connections_.end()) return;
  (void)::epoll_ctl(epoll_fd_, EPOLL_CTL_DEL, fd, nullptr);
  ::close(fd);
  connections_.erase(it);
}

}  // namespace serve
}  // namespace scwsc
