// The benchmark's client side of the wire protocol (version 2, one JSON
// object per line): one main connection that carries every solve and delta
// in send order, so the server resolves each solve against a known head
// version, and one probe connection for pings, so a ping measures how long
// the server's loop stays unresponsive rather than queueing behind the
// main connection's lines.

#ifndef PERFBENCH_SESSION_H_
#define PERFBENCH_SESSION_H_

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "perfbench/spans.h"
#include "src/serve/json.h"

namespace perfbench {

/// One solve as the client asks for it; (solver, k, coverage) is also the
/// result-cache key the server memoizes under for a given snapshot.
struct Query {
  std::string solver;
  std::size_t k = 0;
  double coverage = 0.0;
};

/// One request the benchmark sent and what came back.
struct Request {
  enum class Kind { kSolve, kDelta, kPing };
  Kind kind = Kind::kSolve;
  std::string phase;
  Query query;              // solves only
  std::size_t version = 0;  // head version the solve is resolved against
  double due = 0.0;         // scheduled send time (open loop), else sent
  double sent = 0.0;
  double received = -1.0;  // < 0 while no response arrived
  bool ok = false;
  std::string error;  // error code of a failed response
  scwsc::serve::JsonValue result;
  std::string line;  // the request line as sent
};

/// A blocking-send, polled-receive TCP connection to the server.
class Connection {
 public:
  Connection() = default;
  ~Connection();
  Connection(const Connection&) = delete;
  Connection& operator=(const Connection&) = delete;

  bool Open(int port);
  bool Send(const std::string& line);  // appends the newline
  /// Reads whatever has arrived, without waiting; appends complete lines.
  /// False once the server closed the connection or it failed.
  bool ReadAvailable(std::vector<std::string>* lines);

  int fd() const { return fd_; }

 private:
  int fd_ = -1;
  std::string buffer_;
};

class Session {
 public:
  explicit Session(SpanRecorder& spans) : spans_(spans) {}

  bool Open(int port) { return main_.Open(port) && probe_.Open(port); }

  /// Sends a solve on the main connection; returns its index in requests().
  std::size_t SendSolve(const Query& query, const std::string& phase,
                        double due);
  /// Sends a delta (the mutation fields of `body`) to head `snapshot` on
  /// the main connection; a delta to "live" advances version().
  std::size_t SendDelta(scwsc::serve::JsonObject body,
                        const std::string& phase,
                        const std::string& snapshot = "live");
  /// Sends a ping on the probe connection.
  std::size_t SendPing(const std::string& phase);

  /// Waits up to `timeout` seconds for responses; returns the indices of
  /// requests completed by this call. A connection error marks the session
  /// broken; its outstanding requests then count as missing.
  std::vector<std::size_t> Pump(double timeout);

  /// Pumps until every request sent so far has its response, or until
  /// `deadline` (a Now() value) passes.
  void Drain(double deadline);

  const std::vector<Request>& requests() const { return requests_; }
  std::size_t version() const { return version_; }
  bool broken() const { return broken_; }

 private:
  std::size_t Send(Connection& conn, Request request,
                   scwsc::serve::JsonObject body);

  SpanRecorder& spans_;
  Connection main_;
  Connection probe_;
  std::vector<Request> requests_;
  std::size_t outstanding_ = 0;
  std::size_t version_ = 0;
  bool broken_ = false;
};

}  // namespace perfbench

#endif  // PERFBENCH_SESSION_H_
