#include "perfbench/session.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cmath>
#include <cstdlib>
#include <utility>

namespace perfbench {

using scwsc::serve::JsonObject;
using scwsc::serve::JsonValue;

Connection::~Connection() {
  if (fd_ >= 0) ::close(fd_);
}

bool Connection::Open(int port) {
  fd_ = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
  if (fd_ < 0) return false;
  const int one = 1;
  (void)::setsockopt(fd_, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<std::uint16_t>(port));
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  return ::connect(fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) == 0;
}

bool Connection::Send(const std::string& line) {
  const std::string bytes = line + "\n";
  std::size_t done = 0;
  while (done < bytes.size()) {
    const ssize_t n = ::send(fd_, bytes.data() + done, bytes.size() - done,
                             MSG_NOSIGNAL);
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) return false;
    done += static_cast<std::size_t>(n);
  }
  return true;
}

bool Connection::ReadAvailable(std::vector<std::string>* lines) {
  char chunk[65536];
  for (;;) {
    const ssize_t n = ::recv(fd_, chunk, sizeof(chunk), MSG_DONTWAIT);
    if (n > 0) {
      buffer_.append(chunk, static_cast<std::size_t>(n));
      continue;
    }
    if (n == 0) return false;  // server closed the connection
    if (errno == EAGAIN || errno == EWOULDBLOCK) break;
    if (errno != EINTR) return false;
  }
  std::size_t newline;
  while ((newline = buffer_.find('\n')) != std::string::npos) {
    lines->push_back(buffer_.substr(0, newline));
    buffer_.erase(0, newline + 1);
  }
  return true;
}

std::size_t Session::Send(Connection& conn, Request request, JsonObject body) {
  const std::size_t index = requests_.size();
  body["version"] = JsonValue(2);
  std::string id = "r";
  id += std::to_string(index);
  body["id"] = JsonValue(std::move(id));
  request.line = JsonValue(std::move(body)).Dump();
  request.sent = Now();
  if (request.due == 0.0) request.due = request.sent;
  if (!broken_ && !conn.Send(request.line)) broken_ = true;
  requests_.push_back(std::move(request));
  ++outstanding_;
  return index;
}

std::size_t Session::SendSolve(const Query& query, const std::string& phase,
                               double due) {
  Request request;
  request.kind = Request::Kind::kSolve;
  request.phase = phase;
  request.query = query;
  request.version = version_;
  request.due = due;
  JsonObject body;
  body["type"] = JsonValue("solve");
  body["snapshot"] = JsonValue("live");
  body["solver"] = JsonValue(query.solver);
  body["k"] = JsonValue(query.k);
  body["coverage"] = JsonValue(query.coverage);
  return Send(main_, std::move(request), std::move(body));
}

std::size_t Session::SendDelta(JsonObject body, const std::string& phase,
                               const std::string& snapshot) {
  Request request;
  request.kind = Request::Kind::kDelta;
  request.phase = phase;
  body["type"] = JsonValue("delta");
  body["snapshot"] = JsonValue(snapshot);
  const std::size_t index = Send(main_, std::move(request), std::move(body));
  if (snapshot == "live") {
    ++version_;
    requests_[index].version = version_;  // the version this delta creates
  }
  return index;
}

std::size_t Session::SendPing(const std::string& phase) {
  Request request;
  request.kind = Request::Kind::kPing;
  request.phase = phase;
  JsonObject body;
  body["type"] = JsonValue("ping");
  return Send(probe_, std::move(request), std::move(body));
}

std::vector<std::size_t> Session::Pump(double timeout) {
  std::vector<std::size_t> completed;
  if (broken_) return completed;
  pollfd fds[2] = {{main_.fd(), POLLIN, 0}, {probe_.fd(), POLLIN, 0}};
  const int ms = static_cast<int>(std::ceil(std::max(0.0, timeout) * 1e3));
  const int ready = ::poll(fds, 2, ms);
  if (ready <= 0) {
    if (ready < 0 && errno != EINTR) broken_ = true;
    return completed;
  }
  std::vector<std::string> lines;
  for (int i = 0; i < 2; ++i) {
    if (fds[i].revents == 0) continue;
    Connection& conn = i == 0 ? main_ : probe_;
    if (!conn.ReadAvailable(&lines)) broken_ = true;
  }
  const double now = Now();
  for (const std::string& line : lines) {
    auto parsed = scwsc::serve::ParseJson(line);
    if (!parsed.ok() || !parsed->is_object()) continue;
    const JsonValue* id = parsed->Find("id");
    if (id == nullptr || !id->is_string() || id->as_string().size() < 2) {
      continue;
    }
    const std::size_t index =
        std::strtoull(id->as_string().c_str() + 1, nullptr, 10);
    if (index >= requests_.size() || requests_[index].received >= 0.0) {
      continue;
    }
    Request& request = requests_[index];
    request.received = now;
    const JsonValue* ok = parsed->Find("ok");
    request.ok = ok != nullptr && ok->is_bool() && ok->as_bool();
    if (const JsonValue* result = parsed->Find("result")) {
      request.result = *result;
    }
    if (!request.ok) {
      const JsonValue* error = parsed->Find("error");
      const JsonValue* code = error != nullptr ? error->Find("code") : nullptr;
      request.error = code != nullptr && code->is_string() ? code->as_string()
                                                           : "malformed";
    }
    spans_.Add(request.kind == Request::Kind::kSolve   ? "serve.solve"
               : request.kind == Request::Kind::kDelta ? "serve.delta"
                                                       : "serve.ping",
               request.sent, request.received, index + 1);
    --outstanding_;
    completed.push_back(index);
  }
  return completed;
}

void Session::Drain(double deadline) {
  while (outstanding_ > 0 && !broken_ && Now() < deadline) {
    Pump(std::min(0.05, deadline - Now()));
  }
}

}  // namespace perfbench
