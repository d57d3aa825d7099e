// The socket front end: a real client over loopback speaking the v2 wire
// protocol — ping, list_solvers, solve (with tenant and forward-echo),
// delta advancing the live snapshot, typed errors for malformed requests —
// plus the SnapshotStore's head semantics.

#include "src/serve/server.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <chrono>
#include <cstring>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "gtest/gtest.h"
#include "src/api/delta.h"
#include "src/api/instance.h"
#include "src/api/registry.h"
#include "src/common/thread_pool.h"
#include "src/core/set_system.h"
#include "src/serve/json.h"
#include "src/serve/scheduler.h"
#include "src/serve/wire.h"

namespace scwsc {
namespace {

using api::InstancePtr;
using serve::JsonValue;
using serve::SnapshotStore;
using serve::SolveScheduler;
using serve::SolveServer;

InstancePtr BlockInstance() {
  SetSystem system(512);
  for (std::size_t block = 0; block < 8; ++block) {
    std::vector<ElementId> elements;
    for (std::size_t e = block * 64; e < (block + 1) * 64; ++e) {
      elements.push_back(static_cast<ElementId>(e));
    }
    EXPECT_TRUE(system
                    .AddSet(std::move(elements),
                            1.0 + 0.1 * static_cast<double>(block),
                            "block-" + std::to_string(block))
                    .ok());
  }
  auto instance = api::InstanceSnapshot::FromSetSystem(std::move(system));
  EXPECT_TRUE(instance.ok()) << instance.status().ToString();
  return *instance;
}

/// A blocking loopback client: connect, send request lines, read response
/// lines. The server is non-blocking; the client does not need to be.
class Client {
 public:
  explicit Client(int port) {
    fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
    EXPECT_GE(fd_, 0);
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(static_cast<std::uint16_t>(port));
    EXPECT_EQ(::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr), 1);
    EXPECT_EQ(
        ::connect(fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)), 0);
  }
  ~Client() {
    if (fd_ >= 0) ::close(fd_);
  }

  void Send(const std::string& line) {
    const std::string body = line + "\n";
    ASSERT_EQ(::send(fd_, body.data(), body.size(), 0),
              static_cast<ssize_t>(body.size()));
  }

  /// Reads one newline-terminated response and parses it.
  JsonValue ReadResponse() {
    while (buffer_.find('\n') == std::string::npos) {
      char chunk[4096];
      const ssize_t got = ::recv(fd_, chunk, sizeof(chunk), 0);
      EXPECT_GT(got, 0) << "connection closed mid-response";
      if (got <= 0) return JsonValue();
      buffer_.append(chunk, static_cast<std::size_t>(got));
    }
    const std::size_t newline = buffer_.find('\n');
    const std::string line = buffer_.substr(0, newline);
    buffer_.erase(0, newline + 1);
    auto parsed = serve::ParseJson(line);
    EXPECT_TRUE(parsed.ok()) << parsed.status().ToString() << ": " << line;
    return parsed.ok() ? *parsed : JsonValue();
  }

  /// Round trip: send, read the (single) response.
  JsonValue Call(const std::string& line) {
    Send(line);
    return ReadResponse();
  }

 private:
  int fd_ = -1;
  std::string buffer_;
};

struct ServerFixture {
  ServerFixture()
      : pool(2), scheduler(&pool), server(&scheduler, &store) {
    EXPECT_TRUE(store.Put("live", BlockInstance()).ok());
    EXPECT_TRUE(server.Start().ok());
    EXPECT_GT(server.port(), 0);
  }

  ThreadPool pool;
  SolveScheduler scheduler;
  SnapshotStore store;
  SolveServer server;
};

double NumberAt(const JsonValue& root, const char* key) {
  const JsonValue* v = root.Find(key);
  EXPECT_NE(v, nullptr) << key;
  return v != nullptr && v->is_number() ? v->as_number() : -1.0;
}

TEST(SnapshotStoreTest, HeadsAdvanceAndOldVersionsStayUsable) {
  SnapshotStore store;
  EXPECT_EQ(store.Get("live").status().code(), StatusCode::kNotFound);
  EXPECT_EQ(store.Put("", BlockInstance()).code(),
            StatusCode::kInvalidArgument);
  ASSERT_TRUE(store.Put("live", BlockInstance()).ok());
  auto v0 = store.Get("live");
  ASSERT_TRUE(v0.ok());

  api::SnapshotDelta delta;
  api::SnapshotDelta::SetAdd add;
  add.elements = {500};
  add.cost = 0.5;
  add.label = "extra";
  delta.add_sets.push_back(std::move(add));
  auto applied = store.Apply("live", delta);
  ASSERT_TRUE(applied.ok()) << applied.status().ToString();
  EXPECT_EQ(applied->stats.child_version, 1u);

  auto v1 = store.Get("live");
  ASSERT_TRUE(v1.ok());
  EXPECT_NE((*v0)->content_hash(), (*v1)->content_hash());
  EXPECT_EQ((*v0)->delta_version(), 0u);  // the old version is untouched
  EXPECT_EQ(store.Apply("absent", delta).status().code(),
            StatusCode::kNotFound);
  EXPECT_EQ(store.Names(), std::vector<std::string>{"live"});
}

TEST(SnapshotStoreTest, ReplacedHeadIsReleased) {
  // The store as the server holds it, next to a live scheduler.
  ServerFixture fx;
  auto head = fx.store.Get("live");
  ASSERT_TRUE(head.ok());
  InstancePtr v0 = std::move(*head);
  const std::weak_ptr<const api::InstanceSnapshot> watch = v0;

  api::SnapshotDelta delta;
  api::SnapshotDelta::SetAdd add;
  add.elements = {500};
  add.cost = 0.5;
  add.label = "extra";
  delta.add_sets.push_back(std::move(add));
  ASSERT_TRUE(fx.store.Apply("live", delta).ok());

  // A holder of the replaced version can still solve on it...
  {
    auto request =
        api::SolveRequest::Builder(v0).WithK(2).WithCoverage(0.25).Build();
    ASSERT_TRUE(request.ok()) << request.status().ToString();
    auto solved =
        api::SolverRegistry::Global().Solve("greedy-wsc", *request, nullptr);
    EXPECT_TRUE(solved.ok()) << solved.status().ToString();
  }
  EXPECT_EQ(v0->delta_version(), 0u);
  EXPECT_FALSE(watch.expired());

  // ...and once the last holder drops it, nothing else keeps it alive.
  v0.reset();
  EXPECT_TRUE(watch.expired());
}

TEST(ServerTest, PingAndListSolvers) {
  ServerFixture fx;
  Client client(fx.server.port());

  JsonValue pong = client.Call(
      R"({"version": 2, "id": "p1", "type": "ping"})");
  EXPECT_EQ(NumberAt(pong, "version"), 2.0);
  ASSERT_NE(pong.Find("id"), nullptr);
  EXPECT_EQ(pong.Find("id")->as_string(), "p1");
  ASSERT_NE(pong.Find("ok"), nullptr);
  EXPECT_TRUE(pong.Find("ok")->as_bool());

  JsonValue solvers = client.Call(
      R"({"version": 2, "id": "p2", "type": "list_solvers"})");
  ASSERT_NE(solvers.Find("result"), nullptr);
  const JsonValue* list = solvers.Find("result")->Find("solvers");
  ASSERT_NE(list, nullptr);
  EXPECT_GT(list->as_array().size(), 3u);
  // Every entry carries its OptionsSpec table.
  for (const JsonValue& entry : list->as_array()) {
    EXPECT_NE(entry.Find("name"), nullptr);
    EXPECT_NE(entry.Find("options"), nullptr);
  }
}

TEST(ServerTest, SolveOverTheWireWithTenantAndForwardEcho) {
  ServerFixture fx;
  Client client(fx.server.port());

  JsonValue response = client.Call(
      R"({"version": 2, "id": "s1", "type": "solve", "snapshot": "live",)"
      R"( "solver": "greedy-wsc", "k": 4, "coverage": 0.5,)"
      R"( "tenant": "acme", "future_hint": {"x": 1}})");
  ASSERT_NE(response.Find("ok"), nullptr);
  EXPECT_TRUE(response.Find("ok")->as_bool())
      << response.Dump();
  EXPECT_EQ(response.Find("id")->as_string(), "s1");
  // The unknown key round-trips under "forward".
  ASSERT_NE(response.Find("forward"), nullptr);
  EXPECT_NE(response.Find("forward")->Find("future_hint"), nullptr);
  const JsonValue* result = response.Find("result");
  ASSERT_NE(result, nullptr);
  EXPECT_GT(NumberAt(*result, "num_sets"), 0.0);
  EXPECT_GT(NumberAt(*result, "covered"), 0.0);
  // The tenant-scoped completion counter moved.
  EXPECT_GE(fx.scheduler.metrics().CounterValue("serve.tenant.acme.completed"),
            1u);
}

TEST(ServerTest, DeltaAdvancesTheLiveSnapshot) {
  ServerFixture fx;
  Client client(fx.server.port());

  JsonValue response = client.Call(
      R"({"version": 2, "id": "d1", "type": "delta", "snapshot": "live",)"
      R"( "add_sets": [{"elements": [500, 501], "cost": 0.5,)"
      R"( "label": "hot"}]})");
  ASSERT_NE(response.Find("ok"), nullptr);
  EXPECT_TRUE(response.Find("ok")->as_bool()) << response.Dump();
  const JsonValue* result = response.Find("result");
  ASSERT_NE(result, nullptr);
  EXPECT_EQ(NumberAt(*result, "child_version"), 1.0);
  ASSERT_NE(result->Find("content_hash"), nullptr);
  EXPECT_EQ(result->Find("content_hash")->as_string().substr(0, 2), "0x");

  // A solve against the advanced head sees the new set.
  JsonValue solve = client.Call(
      R"({"version": 2, "id": "d2", "type": "solve", "snapshot": "live",)"
      R"( "solver": "greedy-wsc", "k": 8, "coverage": 0.9})");
  EXPECT_TRUE(solve.Find("ok")->as_bool()) << solve.Dump();
}

TEST(ServerTest, TypedErrorsForBadRequests) {
  ServerFixture fx;
  Client client(fx.server.port());

  // Malformed JSON.
  JsonValue bad = client.Call("{nope");
  EXPECT_FALSE(bad.Find("ok")->as_bool());
  ASSERT_NE(bad.Find("error"), nullptr);
  EXPECT_EQ(bad.Find("error")->Find("code")->as_string(), "InvalidArgument");

  // Unknown snapshot: typed NotFound, not retryable.
  JsonValue missing = client.Call(
      R"({"version": 2, "id": "e1", "type": "solve",)"
      R"( "snapshot": "absent", "solver": "greedy-wsc"})");
  EXPECT_FALSE(missing.Find("ok")->as_bool());
  EXPECT_EQ(missing.Find("error")->Find("code")->as_string(), "NotFound");
  EXPECT_FALSE(missing.Find("error")->Find("retryable")->as_bool());
  EXPECT_EQ(missing.Find("id")->as_string(), "e1");

  // Unsupported version: typed InvalidArgument naming the supported one.
  JsonValue future = client.Call(R"({"version": 9, "type": "ping"})");
  EXPECT_FALSE(future.Find("ok")->as_bool());
  EXPECT_EQ(future.Find("error")->Find("code")->as_string(), "InvalidArgument");
  EXPECT_NE(future.Find("error")->Find("message")->as_string().find(
                "version 2"),
            std::string::npos)
      << future.Dump();

  // Unknown type.
  JsonValue unknown = client.Call(
      R"({"version": 2, "type": "teleport", "snapshot": "live"})");
  EXPECT_FALSE(unknown.Find("ok")->as_bool());

  // The connection survives all of the above.
  JsonValue pong = client.Call(R"({"version": 2, "type": "ping"})");
  EXPECT_TRUE(pong.Find("ok")->as_bool());
}

/// Parses `text` as one JSON object.
JsonValue Json(const std::string& text) {
  auto parsed = serve::ParseJson(text);
  EXPECT_TRUE(parsed.ok()) << parsed.status().ToString() << ": " << text;
  return parsed.ok() ? *parsed : JsonValue();
}

/// The error a malformed field must produce: InvalidArgument naming it.
void ExpectRejected(const Status& status, const std::string& field,
                    const std::string& body) {
  EXPECT_TRUE(status.IsInvalidArgument()) << body << ": " << status.ToString();
  EXPECT_NE(status.ToString().find(field), std::string::npos)
      << body << ": " << status.ToString();
}

// JSON numbers are doubles; a negative, fractional or out-of-range one must
// be rejected, never converted (which would be undefined behaviour).
TEST(WireDecodeTest, JobIntegersAreRangeChecked) {
  const InstancePtr instance = BlockInstance();
  const auto parse = [&](const std::string& body) {
    return serve::ParseJobObject(Json(body), instance, "job");
  };
  auto ok = parse(R"({"solver": "cwsc", "k": 9007199254740992,)"
                  R"( "deadline_ms": 1500, "priority": -2147483648,)"
                  R"( "repeat": 3})");
  ASSERT_TRUE(ok.ok()) << ok.status().ToString();
  EXPECT_EQ(ok->job.request.k, std::size_t{1} << 53);
  EXPECT_EQ(ok->job.request.deadline, std::chrono::milliseconds(1500));
  EXPECT_EQ(ok->job.priority, -2147483647 - 1);
  EXPECT_EQ(ok->repeat, 3u);

  const std::vector<std::pair<std::string, std::string>> bad = {
      {"k", "-3"},
      {"k", "2.5"},
      {"k", "9007199254740994"},
      {"k", "1e300"},
      {"deadline_ms", "-1"},
      {"deadline_ms", "0.5"},
      {"deadline_ms", "9007199254740994"},
      {"priority", "2147483648"},
      {"priority", "-2147483649"},
      {"priority", "1.5"},
      {"repeat", "0"},
      {"repeat", "2.5"},
      {"repeat", "9007199254740994"},
  };
  for (const auto& [field, value] : bad) {
    const std::string body =
        R"({"solver": "cwsc", ")" + field + "\": " + value + "}";
    ExpectRejected(parse(body).status(), "job." + field, body);
  }
}

// Each tenant names its own metrics, so neither string may grow unbounded.
TEST(WireDecodeTest, TenantAndLabelAreLengthCapped) {
  const InstancePtr instance = BlockInstance();
  const auto parse = [&](const std::string& field, std::size_t bytes) {
    const std::string body = R"({"solver": "cwsc", ")" + field + R"(": ")" +
                             std::string(bytes, 'x') + R"("})";
    return serve::ParseJobObject(Json(body), instance, "job");
  };
  constexpr std::size_t kCap = serve::kMaxTenantLabelBytes;
  auto at_cap = parse("tenant", kCap);
  ASSERT_TRUE(at_cap.ok()) << at_cap.status().ToString();
  EXPECT_EQ(at_cap->job.request.tenant, std::string(kCap, 'x'));
  auto label_at_cap = parse("label", kCap);
  ASSERT_TRUE(label_at_cap.ok()) << label_at_cap.status().ToString();
  EXPECT_EQ(label_at_cap->job.request.label, std::string(kCap, 'x'));

  ExpectRejected(parse("tenant", kCap + 1).status(), "job.tenant",
                 "tenant of kMaxTenantLabelBytes + 1");
  ExpectRejected(parse("label", kCap + 1).status(), "job.label",
                 "label of kMaxTenantLabelBytes + 1");
}

TEST(WireDecodeTest, CertifyMustBeABool) {
  const InstancePtr instance = BlockInstance();
  const auto parse = [&](const std::string& value) {
    return serve::ParseJobObject(
        Json(R"({"solver": "cwsc", "certify": )" + value + "}"), instance,
        "job");
  };
  auto on = parse("true");
  ASSERT_TRUE(on.ok()) << on.status().ToString();
  EXPECT_TRUE(on->job.request.certify);
  EXPECT_TRUE(on->forward.empty());
  auto off = parse("false");
  ASSERT_TRUE(off.ok()) << off.status().ToString();
  EXPECT_FALSE(off->job.request.certify);
  for (const std::string value : {"1", R"("true")", "null", "{}"}) {
    ExpectRejected(parse(value).status(), "job.certify", value);
  }
}

TEST(WireDecodeTest, VersionMustBeAnInteger) {
  EXPECT_TRUE(serve::CheckWireVersion(Json(R"({"version": 2})"), "t").ok());
  for (const std::string body :
       {R"({"version": 2.5})", R"({"version": 1e300})",
        R"({"version": "2"})"}) {
    ExpectRejected(serve::CheckWireVersion(Json(body), "t"), "version (t)",
                   body);
  }
}

TEST(WireDecodeTest, DeltaIntegersAreRangeChecked) {
  auto ok = serve::ParseDeltaObject(
      Json(R"({"retract_rows": [0, 9007199254740992],)"
           R"( "add_sets": [{"elements": [5, 4294967295], "cost": 1}],)"
           R"( "remove_sets": [4294967295]})"),
      "delta");
  ASSERT_TRUE(ok.ok()) << ok.status().ToString();
  EXPECT_EQ(ok->retract_rows,
            (std::vector<std::size_t>{0, std::size_t{1} << 53}));
  ASSERT_EQ(ok->add_sets.size(), 1u);
  EXPECT_EQ(ok->add_sets[0].elements,
            (std::vector<ElementId>{5, 4294967295u}));
  EXPECT_EQ(ok->remove_sets, (std::vector<SetId>{4294967295u}));

  const std::vector<std::pair<std::string, std::string>> bad = {
      {"delta.retract_rows[]", R"("retract_rows": [-1])"},
      {"delta.retract_rows[]", R"("retract_rows": [2.5])"},
      {"delta.retract_rows[]", R"("retract_rows": [9007199254740994])"},
      {"delta.add_sets[0].elements[]",
       R"("add_sets": [{"elements": [4294967301]}])"},
      {"delta.add_sets[0].elements[]", R"("add_sets": [{"elements": [2.5]}])"},
      {"delta.add_sets[0].elements[]", R"("add_sets": [{"elements": [-1]}])"},
      {"delta.remove_sets[]", R"("remove_sets": [4294967296])"},
      {"delta.remove_sets[]", R"("remove_sets": [1.5])"},
      {"delta.remove_sets[]", R"("remove_sets": [-1])"},
  };
  for (const auto& [field, member] : bad) {
    const std::string body = "{" + member + "}";
    ExpectRejected(serve::ParseDeltaObject(Json(body), "delta").status(),
                   field, body);
  }
}

TEST(ServerTest, VersionlessAndV1RequestsAreRejected) {
  ServerFixture fx;
  Client client(fx.server.port());
  for (const std::string version : {"", R"("version": 1, )"}) {
    JsonValue response = client.Call(
        "{" + version + R"("id": "old", "snapshot": "live",)" +
        R"( "solver": "greedy-wsc", "k": 4, "coverage": 0.5})");
    ASSERT_NE(response.Find("ok"), nullptr) << response.Dump();
    EXPECT_FALSE(response.Find("ok")->as_bool()) << response.Dump();
    ASSERT_NE(response.Find("id"), nullptr) << response.Dump();
    EXPECT_EQ(response.Find("id")->as_string(), "old");
    const JsonValue* error = response.Find("error");
    ASSERT_NE(error, nullptr) << response.Dump();
    EXPECT_EQ(error->Find("code")->as_string(), "InvalidArgument");
    EXPECT_NE(error->Find("message")->as_string().find("version 2"),
              std::string::npos)
        << response.Dump();
  }
  // Nothing was enqueued, and the connection still serves.
  EXPECT_EQ(fx.scheduler.metrics().CounterValue("serve.jobs.accepted"), 0u);
  EXPECT_TRUE(client.Call(R"({"version": 2, "type": "ping"})")
                  .Find("ok")
                  ->as_bool());
}

TEST(ServerTest, PipelinedRequestsAllComplete) {
  ServerFixture fx;
  Client client(fx.server.port());
  const int kRequests = 8;
  for (int i = 0; i < kRequests; ++i) {
    client.Send(
        R"({"version": 2, "id": "b)" + std::to_string(i) +
        R"(", "type": "solve", "snapshot": "live",)"
        R"( "solver": "greedy-wsc", "k": 4, "coverage": 0.5})");
  }
  int ok = 0;
  for (int i = 0; i < kRequests; ++i) {
    JsonValue response = client.ReadResponse();
    if (response.Find("ok") != nullptr && response.Find("ok")->as_bool()) {
      ++ok;
    }
  }
  EXPECT_EQ(ok, kRequests);
}

TEST(ServerTest, StopIsIdempotentAndRestartable) {
  ServerFixture fx;
  fx.server.Stop();
  fx.server.Stop();
  EXPECT_EQ(fx.server.port(), 0);
  ASSERT_TRUE(fx.server.Start().ok());
  EXPECT_GT(fx.server.port(), 0);
  Client client(fx.server.port());
  EXPECT_TRUE(client.Call(R"({"version": 2, "type": "ping"})")
                  .Find("ok")
                  ->as_bool());
}

}  // namespace
}  // namespace scwsc
