/**
 * @file
 * Tests for `cellbw serve`: HTTP parsing, fair scheduling, request
 * coalescing, byte-identity with the CLI, and graceful drain.
 *
 * The end-to-end tests run a real Server on an ephemeral port and talk
 * to it over real sockets, with a synthetic experiment (registered by
 * this TU) whose body counts its runs and can sleep — that is how the
 * coalescing tests force requests to overlap and then assert the
 * simulator ran exactly once.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <cctype>
#include <chrono>
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include "core/experiment_registry.hh"
#include "serve/coalescer.hh"
#include "serve/connection.hh"
#include "serve/server.hh"
#include "stats/table.hh"
#include "util/file.hh"

using namespace cellbw;

// ---------------------------------------------------------------------
// The synthetic experiment the server tests run.

namespace
{

std::atomic<unsigned> g_bodyRuns{0};
std::atomic<unsigned> g_bodySleepMs{0};

int
serveTestBody(core::ExperimentContext &b)
{
    g_bodyRuns.fetch_add(1);
    if (unsigned ms = g_bodySleepMs.load())
        std::this_thread::sleep_for(std::chrono::milliseconds(ms));
    b.header("Test", "serve test experiment");
    stats::Table table({"metric", "value"});
    table.addRow({"runs",
                  stats::Table::num(double(b.repeat.runs))});
    table.addRow({"seed",
                  stats::Table::num(double(b.repeat.seed))});
    b.emit(table);
    return b.finish();
}

} // namespace

CELLBW_REGISTER_EXPERIMENT(serve_test_exp, "Test",
                           "synthetic instant experiment for serve "
                           "tests", serveTestBody)

// A native-backend registration so the --sim-only gate has something
// to refuse.  The body itself is synthetic and instant.
CELLBW_REGISTER_EXPERIMENT(serve_native_test_exp, "Test N",
                           "synthetic native experiment for serve "
                           "tests", serveTestBody, core::Backend::Native)

// ---------------------------------------------------------------------
// HTTP wire format.

TEST(HttpParser, ParsesACompleteRequest)
{
    serve::HttpRequest req;
    std::size_t used = 0;
    const std::string raw = "POST /run HTTP/1.1\r\n"
                            "Host: x\r\n"
                            "Content-Length: 4\r\n"
                            "X-Cellbw-Client: alice\r\n"
                            "\r\n"
                            "bodyTRAILING";
    ASSERT_EQ(serve::parseHttpRequest(raw, req, used),
              serve::ParseStatus::Ok);
    EXPECT_EQ(req.method, "POST");
    EXPECT_EQ(req.target, "/run");
    EXPECT_EQ(req.version, "HTTP/1.1");
    EXPECT_EQ(req.body, "body");
    EXPECT_EQ(req.header("x-cellbw-client"), "alice");
    EXPECT_EQ(req.header("X-Cellbw-Client"), "alice");    // case-blind
    EXPECT_EQ(used, raw.size() - std::strlen("TRAILING"));
}

TEST(HttpParser, AsksForMoreUntilComplete)
{
    serve::HttpRequest req;
    std::size_t used = 0;
    EXPECT_EQ(serve::parseHttpRequest("GET / HT", req, used),
              serve::ParseStatus::NeedMore);
    EXPECT_EQ(serve::parseHttpRequest(
                  "POST / HTTP/1.1\r\nContent-Length: 9\r\n\r\nshort",
                  req, used),
              serve::ParseStatus::NeedMore);
    EXPECT_EQ(serve::parseHttpRequest("GET /x HTTP/1.1\r\n\r\n", req,
                                      used),
              serve::ParseStatus::Ok);
    EXPECT_EQ(req.method, "GET");
}

TEST(HttpParser, RejectsMalformedRequests)
{
    serve::HttpRequest req;
    std::size_t used = 0;
    EXPECT_EQ(serve::parseHttpRequest("nonsense\r\n\r\n", req, used),
              serve::ParseStatus::Bad);
    EXPECT_EQ(serve::parseHttpRequest("GET x HTTP/1.1\r\n\r\n", req,
                                      used),
              serve::ParseStatus::Bad);      // target must be absolute
    EXPECT_EQ(serve::parseHttpRequest("GET / SPDY/9\r\n\r\n", req,
                                      used),
              serve::ParseStatus::Bad);
    EXPECT_EQ(serve::parseHttpRequest(
                  "GET / HTTP/1.1\r\nContent-Length: -2\r\n\r\n", req,
                  used),
              serve::ParseStatus::Bad);
}

TEST(HttpParser, CapsHeaderAndBodySizes)
{
    serve::HttpRequest req;
    std::size_t used = 0;
    const std::string hugeHeader =
        "GET / HTTP/1.1\r\nX: " +
        std::string(serve::kMaxHeaderBytes, 'a');
    EXPECT_EQ(serve::parseHttpRequest(hugeHeader, req, used),
              serve::ParseStatus::TooLarge);
    const std::string hugeBody =
        "POST / HTTP/1.1\r\nContent-Length: " +
        std::to_string(serve::kMaxBodyBytes + 1) + "\r\n\r\n";
    EXPECT_EQ(serve::parseHttpRequest(hugeBody, req, used),
              serve::ParseStatus::TooLarge);
}

TEST(HttpResponse, RendersStatusHeadersAndBody)
{
    serve::HttpResponse resp;
    resp.status = 404;
    resp.body = "{\"error\":\"x\"}\n";
    resp.headers = {{"X-Cellbw-Key", "abc"}};
    const std::string wire = serve::renderHttpResponse(resp);
    EXPECT_EQ(wire.rfind("HTTP/1.1 404 Not Found\r\n", 0), 0u);
    EXPECT_NE(wire.find("Content-Length: 14\r\n"), std::string::npos);
    EXPECT_NE(wire.find("X-Cellbw-Key: abc\r\n"), std::string::npos);
    EXPECT_NE(wire.find("Connection: close\r\n\r\n{\"error\""),
              std::string::npos);
}

// ---------------------------------------------------------------------
// Scheduling primitives.

namespace
{

std::shared_ptr<serve::Job>
mkJob(serve::JobTable &table, const std::string &client,
      const std::string &key)
{
    return table.create("serve_test_exp", {}, client, key,
                        "material " + key);
}

} // namespace

TEST(FairQueue, RoundRobinsAcrossClients)
{
    serve::JobTable table;
    serve::FairQueue q;
    // alice floods three configs before bob's single request arrives.
    ASSERT_TRUE(q.push(mkJob(table, "alice", "a1")));
    ASSERT_TRUE(q.push(mkJob(table, "alice", "a2")));
    ASSERT_TRUE(q.push(mkJob(table, "alice", "a3")));
    ASSERT_TRUE(q.push(mkJob(table, "bob", "b1")));
    EXPECT_EQ(q.depth(), 4u);

    // bob is served after ONE alice job, not after all three; each
    // client's own jobs keep their submission order.
    EXPECT_EQ(q.pop()->key, "a1");
    EXPECT_EQ(q.pop()->key, "b1");
    EXPECT_EQ(q.pop()->key, "a2");
    EXPECT_EQ(q.pop()->key, "a3");
}

TEST(FairQueue, CloseRejectsNewWorkAndDrains)
{
    serve::JobTable table;
    serve::FairQueue q;
    ASSERT_TRUE(q.push(mkJob(table, "alice", "a1")));
    q.close();
    EXPECT_FALSE(q.push(mkJob(table, "alice", "a2")));
    ASSERT_NE(q.pop(), nullptr);        // queued work still drains
    EXPECT_EQ(q.pop(), nullptr);        // then pop reports closed
}

TEST(Coalescer, IdenticalKeysShareOneInFlightJob)
{
    serve::JobTable table;
    serve::Coalescer c;
    auto first = mkJob(table, "alice", "k");
    auto dup = mkJob(table, "bob", "k");

    auto [job1, admitted1] = c.admit(first);
    EXPECT_TRUE(admitted1);
    EXPECT_EQ(job1, first);

    auto [job2, admitted2] = c.admit(dup);
    EXPECT_FALSE(admitted2);
    EXPECT_EQ(job2, first);             // bob rides alice's job
    EXPECT_EQ(first->coalesced, 1u);
    EXPECT_EQ(c.inflight(), 1u);

    c.finished("k");
    EXPECT_EQ(c.inflight(), 0u);
    auto [job3, admitted3] = c.admit(mkJob(table, "carol", "k"));
    EXPECT_TRUE(admitted3);             // a finished key admits fresh
}

// ---------------------------------------------------------------------
// End to end over real sockets.

namespace
{

struct Response
{
    int status = 0;
    std::map<std::string, std::string> headers;     // lower-cased names
    std::string body;
};

/** One-shot HTTP client: connect, send, read to EOF, parse. */
Response
httpRoundTrip(std::uint16_t port, const std::string &raw)
{
    Response out;
    int fd = ::socket(AF_INET, SOCK_STREAM, 0);
    if (fd < 0)
        return out;
    sockaddr_in addr;
    std::memset(&addr, 0, sizeof(addr));
    addr.sin_family = AF_INET;
    addr.sin_port = htons(port);
    ::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
    if (::connect(fd, reinterpret_cast<sockaddr *>(&addr),
                  sizeof(addr)) != 0) {
        ::close(fd);
        return out;
    }
    std::size_t off = 0;
    while (off < raw.size()) {
        ssize_t n = ::send(fd, raw.data() + off, raw.size() - off, 0);
        if (n <= 0)
            break;
        off += static_cast<std::size_t>(n);
    }
    std::string wire;
    char chunk[4096];
    ssize_t n;
    while ((n = ::recv(fd, chunk, sizeof(chunk), 0)) > 0)
        wire.append(chunk, static_cast<std::size_t>(n));
    ::close(fd);

    const auto headerEnd = wire.find("\r\n\r\n");
    if (headerEnd == std::string::npos)
        return out;
    out.body = wire.substr(headerEnd + 4);
    const auto firstLine = wire.substr(0, wire.find("\r\n"));
    if (firstLine.size() > 12)
        out.status = std::atoi(firstLine.c_str() + 9);
    std::size_t pos = wire.find("\r\n") + 2;
    while (pos < headerEnd) {
        const auto eol = wire.find("\r\n", pos);
        const auto line = wire.substr(pos, eol - pos);
        const auto colon = line.find(':');
        if (colon != std::string::npos) {
            std::string name = line.substr(0, colon);
            for (auto &ch : name)
                ch = static_cast<char>(std::tolower(ch));
            std::string value = line.substr(colon + 1);
            while (!value.empty() && value.front() == ' ')
                value.erase(value.begin());
            out.headers[name] = value;
        }
        pos = eol + 2;
    }
    return out;
}

Response
post(std::uint16_t port, const std::string &target,
     const std::string &body)
{
    return httpRoundTrip(
        port, "POST " + target + " HTTP/1.1\r\nHost: t\r\n"
                  "Content-Length: " + std::to_string(body.size()) +
                  "\r\n\r\n" + body);
}

Response
get(std::uint16_t port, const std::string &target)
{
    return httpRoundTrip(port, "GET " + target +
                                   " HTTP/1.1\r\nHost: t\r\n\r\n");
}

/** A running server on an ephemeral port, torn down on scope exit. */
class ServerFixture
{
  public:
    explicit ServerFixture(const char *name, bool useCache = true,
                           bool simOnly = false)
    {
        root_ = testing::TempDir() + "cellbw_serve_test_" + name;
        std::filesystem::remove_all(root_);
        serve::ServeSpec spec;
        spec.port = 0;
        spec.jobs = 2;
        spec.active = 2;
        spec.cacheDir = root_ + "/cache";
        spec.useCache = useCache;
        spec.spoolDir = root_ + "/spool";
        spec.terse = true;
        spec.simOnly = simOnly;
        server_ = std::make_unique<serve::Server>(spec);
        started_ = server_->start();
        if (started_)
            loop_ = std::thread([this] { server_->run(); });
        g_bodySleepMs.store(0);
    }

    ~ServerFixture()
    {
        if (started_) {
            server_->beginShutdown();
            loop_.join();
        }
        server_.reset();
        std::filesystem::remove_all(root_);
    }

    serve::Server &server() { return *server_; }
    std::uint16_t port() const { return server_->port(); }
    bool started() const { return started_; }

  private:
    std::string root_;
    std::unique_ptr<serve::Server> server_;
    std::thread loop_;
    bool started_ = false;
};

/** What `cellbw run <exp> <args> --json <file>` writes for this config. */
std::string
cliReportBytes(const char *name, std::vector<std::string> args)
{
    const std::string path = testing::TempDir() +
                             "cellbw_serve_cli_want.json";
    std::filesystem::remove(path);
    std::vector<std::string> argStore;
    argStore.push_back(name);
    for (auto &a : args)
        argStore.push_back(std::move(a));
    argStore.push_back("--json");
    argStore.push_back(path);
    std::vector<const char *> argv;
    for (const auto &a : argStore)
        argv.push_back(a.c_str());
    EXPECT_EQ(core::runExperimentCli(name,
                                     static_cast<int>(argv.size()),
                                     argv.data()),
              0);
    std::string bytes;
    EXPECT_TRUE(util::readFile(path, bytes));
    std::filesystem::remove(path);
    return bytes;
}

} // namespace

TEST(Serve, HealthAndExperimentEndpoints)
{
    ServerFixture fx("health");
    ASSERT_TRUE(fx.started());
    auto health = get(fx.port(), "/healthz");
    EXPECT_EQ(health.status, 200);
    EXPECT_NE(health.body.find("\"draining\":false"),
              std::string::npos);
    auto list = get(fx.port(), "/experiments");
    EXPECT_EQ(list.status, 200);
    EXPECT_NE(list.body.find("serve_test_exp"), std::string::npos);
}

TEST(Serve, RunIsByteIdenticalToCli)
{
    ServerFixture fx("identity");
    ASSERT_TRUE(fx.started());
    const std::string want =
        cliReportBytes("serve_test_exp", {"--seed", "11"});

    auto cold = post(fx.port(), "/run",
                     "{\"experiment\":\"serve_test_exp\","
                     "\"args\":[\"--seed\",\"11\"]}");
    ASSERT_EQ(cold.status, 200);
    EXPECT_EQ(cold.headers["x-cellbw-cache"], "miss");
    EXPECT_EQ(cold.body, want);

    auto warm = post(fx.port(), "/run",
                     "{\"experiment\":\"serve_test_exp\","
                     "\"args\":[\"--seed\",\"11\"]}");
    ASSERT_EQ(warm.status, 200);
    EXPECT_EQ(warm.headers["x-cellbw-cache"], "hit");
    EXPECT_EQ(warm.body, want);
}

TEST(Serve, ConcurrentIdenticalRequestsCoalesceToOneRun)
{
    ServerFixture fx("coalesce");
    ASSERT_TRUE(fx.started());
    g_bodySleepMs.store(250);       // force the requests to overlap
    const unsigned before = g_bodyRuns.load();

    constexpr int kClients = 8;
    std::vector<Response> responses(kClients);
    std::vector<std::thread> clients;
    for (int i = 0; i < kClients; ++i) {
        clients.emplace_back([&, i] {
            responses[i] =
                post(fx.port(), "/run",
                     "{\"experiment\":\"serve_test_exp\","
                     "\"args\":[\"--seed\",\"22\"],"
                     "\"client\":\"c" + std::to_string(i) + "\"}");
        });
    }
    for (auto &t : clients)
        t.join();
    g_bodySleepMs.store(0);

    // One simulator run, eight identical answers.
    EXPECT_EQ(g_bodyRuns.load() - before, 1u);
    for (int i = 0; i < kClients; ++i) {
        ASSERT_EQ(responses[i].status, 200) << "client " << i;
        EXPECT_EQ(responses[i].body, responses[0].body)
            << "client " << i;
    }
    const std::string want =
        cliReportBytes("serve_test_exp", {"--seed", "22"});
    EXPECT_EQ(responses[0].body, want);
    EXPECT_GE(fx.server().metrics().counter("serve.coalesced").value() +
                  fx.server().metrics().counter("serve.cache_hits")
                      .value(),
              unsigned(kClients - 1));
    EXPECT_EQ(fx.server().metrics().counter("serve.runs").value(), 1u);
}

TEST(Serve, CoalescingHoldsWithoutTheCacheToo)
{
    // --no-cache narrows the exactly-once guarantee to the coalescing
    // window — overlapping identical requests must still share a run.
    ServerFixture fx("nocache", /*useCache=*/false);
    ASSERT_TRUE(fx.started());
    g_bodySleepMs.store(250);
    const unsigned before = g_bodyRuns.load();

    std::vector<Response> responses(4);
    std::vector<std::thread> clients;
    for (int i = 0; i < 4; ++i) {
        clients.emplace_back([&, i] {
            responses[i] = post(fx.port(), "/run",
                                "{\"experiment\":\"serve_test_exp\","
                                "\"args\":[\"--seed\",\"33\"]}");
        });
    }
    for (auto &t : clients)
        t.join();
    g_bodySleepMs.store(0);

    EXPECT_EQ(g_bodyRuns.load() - before, 1u);
    for (const auto &r : responses) {
        ASSERT_EQ(r.status, 200);
        EXPECT_EQ(r.body, responses[0].body);
    }
}

TEST(Serve, AsyncRunsCompleteThroughTheJobTable)
{
    ServerFixture fx("async");
    ASSERT_TRUE(fx.started());
    auto accepted = post(fx.port(), "/run",
                         "{\"experiment\":\"serve_test_exp\","
                         "\"args\":[\"--seed\",\"44\"],"
                         "\"wait\":false}");
    ASSERT_EQ(accepted.status, 202);
    const std::string id = accepted.headers["x-cellbw-job"];
    ASSERT_FALSE(id.empty());

    // Poll until done (the body is instant; this bounds flakiness).
    Response status;
    for (int i = 0; i < 200; ++i) {
        status = get(fx.port(), "/jobs/" + id);
        if (status.body.find("\"state\":\"done\"") != std::string::npos)
            break;
        std::this_thread::sleep_for(std::chrono::milliseconds(10));
    }
    ASSERT_EQ(status.status, 200);
    ASSERT_NE(status.body.find("\"state\":\"done\""),
              std::string::npos) << status.body;

    auto report = get(fx.port(), "/jobs/" + id + "/report");
    ASSERT_EQ(report.status, 200);
    EXPECT_EQ(report.body,
              cliReportBytes("serve_test_exp", {"--seed", "44"}));
}

TEST(Serve, RejectsBadRequests)
{
    ServerFixture fx("badreq");
    ASSERT_TRUE(fx.started());
    EXPECT_EQ(get(fx.port(), "/nope").status, 404);
    EXPECT_EQ(get(fx.port(), "/jobs/j999").status, 404);
    EXPECT_EQ(get(fx.port(), "/run").status, 405);
    EXPECT_EQ(post(fx.port(), "/run", "not json").status, 400);
    EXPECT_EQ(post(fx.port(), "/run", "{\"args\":[]}").status, 400);
    EXPECT_EQ(post(fx.port(), "/run",
                   "{\"experiment\":\"no_such_exp\"}").status, 404);
    EXPECT_EQ(post(fx.port(), "/run",
                   "{\"experiment\":\"serve_test_exp\","
                   "\"args\":[\"--json\",\"/tmp/x\"]}").status, 400);
    EXPECT_EQ(post(fx.port(), "/run",
                   "{\"experiment\":\"serve_test_exp\","
                   "\"args\":[\"--no-such-flag\"]}").status, 400);
    // 2^32 runs would wrap to 0 in the 32-bit field.
    EXPECT_EQ(post(fx.port(), "/run",
                   "{\"experiment\":\"serve_test_exp\","
                   "\"args\":[\"--runs\",\"4294967296\"]}").status,
              400);
    // A NaN clock once held the only runner with a run that never
    // ended; a negative latency once panicked mid-run.
    EXPECT_EQ(post(fx.port(), "/run",
                   "{\"experiment\":\"serve_test_exp\","
                   "\"args\":[\"--cpu-ghz\",\"nan\"]}").status,
              400);
    EXPECT_EQ(post(fx.port(), "/run",
                   "{\"experiment\":\"serve_test_exp\","
                   "\"args\":[\"--ioif-latency\",\"-40\"]}").status,
              400);
    // A wrapping MFC queue depth once crashed the process.
    EXPECT_EQ(post(fx.port(), "/run",
                   "{\"experiment\":\"serve_test_exp\","
                   "\"args\":[\"--mfc-queue-depth\",\"4294967290\"]}")
                  .status,
              400);
    auto raw = httpRoundTrip(fx.port(), "garbage\r\n\r\n");
    EXPECT_EQ(raw.status, 400);
}

TEST(Serve, BackendFieldIsValidatedAgainstTheRegistration)
{
    ServerFixture fx("backend");
    ASSERT_TRUE(fx.started());

    // Naming the registered backend explicitly is accepted...
    auto ok = post(fx.port(), "/run",
                   "{\"experiment\":\"serve_test_exp\","
                   "\"backend\":\"sim\","
                   "\"args\":[\"--seed\",\"66\"]}");
    EXPECT_EQ(ok.status, 200);

    // ...an unknown backend, a mismatching one, and a non-string
    // value are all 400s.
    EXPECT_EQ(post(fx.port(), "/run",
                   "{\"experiment\":\"serve_test_exp\","
                   "\"backend\":\"gpu\"}").status, 400);
    auto mismatch = post(fx.port(), "/run",
                         "{\"experiment\":\"serve_test_exp\","
                         "\"backend\":\"native\"}");
    EXPECT_EQ(mismatch.status, 400);
    EXPECT_NE(mismatch.body.find("sim"), std::string::npos);
    EXPECT_EQ(post(fx.port(), "/run",
                   "{\"experiment\":\"serve_test_exp\","
                   "\"backend\":7}").status, 400);
}

TEST(Serve, SimOnlyRefusesNativeExperimentsWith403)
{
    ServerFixture fx("simonly", /*useCache=*/true, /*simOnly=*/true);
    ASSERT_TRUE(fx.started());

    // Sim experiments still run...
    auto sim = post(fx.port(), "/run",
                    "{\"experiment\":\"serve_test_exp\","
                    "\"args\":[\"--seed\",\"77\"]}");
    EXPECT_EQ(sim.status, 200);

    // ...native ones are refused with a reason, and the refusal is
    // counted.
    auto nat = post(fx.port(), "/run",
                    "{\"experiment\":\"serve_native_test_exp\"}");
    EXPECT_EQ(nat.status, 403);
    EXPECT_NE(nat.body.find("--sim-only"), std::string::npos);
    EXPECT_GE(fx.server()
                  .metrics()
                  .counter("serve.rejected_native")
                  .value(),
              1u);
}

TEST(Serve, NativeRunsWorkWhenNotSimOnly)
{
    // The default daemon accepts native experiments; the synthetic
    // body makes this a routing test, not a measurement test.
    ServerFixture fx("native");
    ASSERT_TRUE(fx.started());
    auto nat = post(fx.port(), "/run",
                    "{\"experiment\":\"serve_native_test_exp\","
                    "\"backend\":\"native\","
                    "\"args\":[\"--seed\",\"88\"]}");
    EXPECT_EQ(nat.status, 200);
    EXPECT_NE(nat.body.find("\"backend\":\"native\""),
              std::string::npos);
    EXPECT_NE(nat.body.find("\"reproducible\":false"),
              std::string::npos);
    // Native results never come from nor land in the result cache.
    EXPECT_EQ(nat.headers["x-cellbw-cache"], "miss");
    auto again = post(fx.port(), "/run",
                      "{\"experiment\":\"serve_native_test_exp\","
                      "\"args\":[\"--seed\",\"88\"]}");
    EXPECT_EQ(again.status, 200);
    EXPECT_EQ(again.headers["x-cellbw-cache"], "miss");
}

TEST(Serve, TricklingClientGets408AtTheRequestDeadline)
{
    // One byte every 50 ms would renew a per-recv timeout forever; the
    // request's one deadline (300 ms here) answers 408 and closes.
    ServerFixture fx("trickle");
    ASSERT_TRUE(fx.started());
    int sv[2];
    ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, sv), 0);
    const auto start = std::chrono::steady_clock::now();
    std::thread conn([&] {
        serve::serveConnection(sv[0], "trickler", fx.server(),
                               std::chrono::milliseconds(300));
    });
    std::atomic<bool> answered{false};
    std::thread trickle([&] {
        const std::string raw = "GET /health HTTP/1.1\r\nHost: t\r\n\r\n";
        for (char c : raw) {
            if (answered.load() || ::send(sv[1], &c, 1, MSG_NOSIGNAL) != 1)
                return;
            std::this_thread::sleep_for(std::chrono::milliseconds(50));
        }
    });
    std::string wire;
    char chunk[4096];
    ssize_t n = 0;
    while ((n = ::recv(sv[1], chunk, sizeof(chunk), 0)) > 0)
        wire.append(chunk, static_cast<std::size_t>(n));
    const auto elapsed = std::chrono::steady_clock::now() - start;
    answered.store(true);
    trickle.join();
    conn.join();
    ::close(sv[1]);
    EXPECT_EQ(wire.rfind("HTTP/1.1 408 Request Timeout\r\n", 0), 0u)
        << wire;
    EXPECT_LT(elapsed, std::chrono::seconds(1));
}

TEST(Serve, DrainingRejectsNewRunsWith503)
{
    ServerFixture fx("drain");
    ASSERT_TRUE(fx.started());
    // A run accepted before the drain still completes...
    auto ok = post(fx.port(), "/run",
                   "{\"experiment\":\"serve_test_exp\","
                   "\"args\":[\"--seed\",\"55\"]}");
    ASSERT_EQ(ok.status, 200);

    fx.server().beginShutdown();
    // ...but once draining, /run refuses (exercised through route():
    // the accept loop is already closing its socket).
    serve::HttpRequest req;
    req.method = "POST";
    req.target = "/run";
    req.version = "HTTP/1.1";
    req.body = "{\"experiment\":\"serve_test_exp\"}";
    auto resp = fx.server().route(req, "peer");
    EXPECT_EQ(resp.status, 503);
    EXPECT_TRUE(fx.server().draining());
    EXPECT_GE(fx.server()
                  .metrics()
                  .counter("serve.rejected_draining")
                  .value(),
              1u);
}
