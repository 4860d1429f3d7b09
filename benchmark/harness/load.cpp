/**
 * @file
 * Closed-loop load for `cellbw serve`.
 *
 * A POST /run blocks until its report is ready (`"wait"` defaults to
 * true), so the client is closed-loop: each of --threads threads sends
 * its next request only after the previous reply, one connection per
 * request.  The request sequence is drawn once from --seed from an
 * assumed mix.  No record of real serve traffic exists to check it
 * against; the proportions are a design choice, not a measurement (see
 * benchmark/README.md):
 *
 *   85 %  warm hits over the --hits set, pre-warmed before timing
 *   10 %  cold misses on --miss-exps at fresh seeds; every config is
 *         requested twice in a row so the coalescer has work
 *    5 %  bad requests: 404 (unknown experiment), 400 (malformed JSON)
 *
 * Every reply is checked: a hit must repeat the pre-warm bytes, the two
 * replies of a miss pair must be identical reports of the requested
 * experiment and seed, a bad request must get its 4xx.  With --seconds
 * the client runs --warmup seconds unmeasured and then measures for
 * --seconds; with --requests it sends exactly that many and measures
 * all of them (the traced run uses this, so its work is fixed).
 */

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <memory>
#include <random>
#include <sstream>
#include <thread>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include "harness.hh"
#include "stats/json_writer.hh"
#include "util/file.hh"
#include "util/json.hh"

namespace cellbw::bench
{

namespace
{

struct Reply
{
    int status = 0;
    std::string body;
    std::string error;      // transport failure; empty on success
};

bool
sendAll(int fd, const std::string &data)
{
    std::size_t off = 0;
    while (off < data.size()) {
        ssize_t n = ::send(fd, data.data() + off, data.size() - off,
                           MSG_NOSIGNAL);
        if (n < 0 && errno == EINTR)
            continue;
        if (n <= 0)
            return false;
        off += static_cast<std::size_t>(n);
    }
    return true;
}

/** One request on a fresh connection; the server closes after replying. */
Reply
httpRequest(std::uint16_t port, const std::string &method,
            const std::string &target, const std::string &body)
{
    Reply r;
    int fd = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
    if (fd < 0) {
        r.error = std::string("socket: ") + std::strerror(errno);
        return r;
    }
    timeval tv{120, 0};
    ::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof(tv));
    ::setsockopt(fd, SOL_SOCKET, SO_SNDTIMEO, &tv, sizeof(tv));
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(port);
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    if (::connect(fd, reinterpret_cast<sockaddr *>(&addr),
                  sizeof(addr)) != 0) {
        r.error = std::string("connect: ") + std::strerror(errno);
        ::close(fd);
        return r;
    }
    std::string req = method + " " + target +
                      " HTTP/1.1\r\nHost: 127.0.0.1\r\n";
    if (method == "POST") {
        req += "Content-Type: application/json\r\nContent-Length: " +
               std::to_string(body.size()) + "\r\n";
    }
    req += "Connection: close\r\n\r\n" + body;
    std::string in;
    if (!sendAll(fd, req)) {
        r.error = std::string("send: ") + std::strerror(errno);
    } else {
        char buf[16384];
        for (;;) {
            ssize_t n = ::recv(fd, buf, sizeof(buf), 0);
            if (n < 0 && errno == EINTR)
                continue;
            if (n < 0) {
                r.error = std::string("recv: ") + std::strerror(errno);
                break;
            }
            if (n == 0)
                break;
            in.append(buf, static_cast<std::size_t>(n));
        }
    }
    ::close(fd);
    if (!r.error.empty())
        return r;

    std::size_t headEnd = in.find("\r\n\r\n");
    if (in.rfind("HTTP/1.1 ", 0) != 0 || headEnd == std::string::npos ||
        in.size() < 12) {
        r.error = "malformed response";
        return r;
    }
    r.status = std::atoi(in.c_str() + 9);
    r.body = in.substr(headEnd + 4);
    const std::string lengthHeader = "\r\nContent-Length: ";
    std::size_t lh = in.find(lengthHeader);
    if (lh == std::string::npos || lh > headEnd ||
        std::strtoull(in.c_str() + lh + lengthHeader.size(), nullptr,
                      10) != r.body.size())
        r.error = "body length does not match Content-Length";
    return r;
}

enum class Kind : std::uint8_t { Hit, Miss, Bad404, Bad400 };

const char *
kindName(Kind k)
{
    switch (k) {
      case Kind::Hit:
        return "hit";
      case Kind::Miss:
        return "miss";
      case Kind::Bad404:
        return "bad404";
      default:
        return "bad400";
    }
}

struct Item
{
    Kind kind;
    std::uint32_t index;    // hit config or miss config
};

struct Config
{
    std::string experiment;
    std::vector<std::string> args;
};

std::string
runBody(const Config &c, const std::string &client)
{
    stats::JsonWriter w;
    w.beginObject();
    w.key("experiment").value(c.experiment);
    w.key("args").beginArray();
    for (const auto &a : c.args)
        w.value(a);
    w.endArray();
    w.key("wait").value(true);
    w.key("client").value(client);
    w.endObject();
    return w.str();
}

struct Sample
{
    Item item;
    Clock::time_point start;
    double ms;
};

/** CPU seconds (user + sys) of process @p pid, from /proc. */
double
procCpuSeconds(long pid)
{
    std::ifstream in("/proc/" + std::to_string(pid) + "/stat");
    std::string text((std::istreambuf_iterator<char>(in)),
                     std::istreambuf_iterator<char>());
    std::size_t paren = text.rfind(')');
    if (paren == std::string::npos)
        return 0.0;
    std::istringstream fields(text.substr(paren + 2));
    std::string f;
    double utime = 0, stime = 0;
    // Fields after the command name start at field 3 (state);
    // utime and stime are fields 14 and 15.
    for (int i = 3; i <= 15 && (fields >> f); ++i) {
        if (i == 14)
            utime = std::stod(f);
        if (i == 15)
            stime = std::stod(f);
    }
    return (utime + stime) / static_cast<double>(sysconf(_SC_CLK_TCK));
}

void
writeLatency(stats::JsonWriter &w, const char *name,
             const std::vector<double> &ms)
{
    w.key(name).beginObject();
    w.key("n").value(static_cast<std::uint64_t>(ms.size()));
    w.key("p50_ms").value(quantile(ms, 0.50));
    w.key("p90_ms").value(quantile(ms, 0.90));
    w.key("p99_ms").value(quantile(ms, 0.99));
    w.endObject();
}

} // namespace

int
cmdLoad(const Args &args)
{
    const auto port = static_cast<std::uint16_t>(args.getUint("--port", 0));
    const std::uint64_t seed = args.getUint("--seed", 42);
    const unsigned threads =
        static_cast<unsigned>(std::max<std::uint64_t>(
            1, args.getUint("--threads", 4)));
    const double warmup = std::stod(args.get("--warmup", "0"));
    const double seconds = std::stod(args.get("--seconds", "0"));
    const std::uint64_t fixedRequests = args.getUint("--requests", 0);
    const long serverPid = static_cast<long>(args.getUint("--server-pid", 0));
    const std::string reportsDir = args.get("--reports");
    std::vector<std::string> hitArgs = {"--quick", "--seed",
                                        std::to_string(seed)};
    std::vector<Config> hits;
    for (const auto &e : args.getList("--hits"))
        hits.push_back({e, hitArgs});
    const std::vector<std::string> missExps = args.getList("--miss-exps");
    if (port == 0 || hits.empty() || missExps.empty() ||
        (seconds <= 0 && fixedRequests == 0) || !args.has("--out")) {
        std::fputs("usage: cellbw_bench load --port P --hits A,B "
                   "--miss-exps C,D (--seconds S [--warmup W] | "
                   "--requests N) --out FILE [--seed N] [--threads T] "
                   "[--server-pid PID] [--reports DIR] [--spans FILE]\n",
                   stderr);
        return 2;
    }
    std::unique_ptr<SpanLog> spans;
    if (args.has("--spans"))
        spans = std::make_unique<SpanLog>(args.get("--workload", "serve"));

    std::atomic<std::uint64_t> attempted{0}, failed{0};
    std::mutex failMutex;
    std::vector<std::string> failures;
    auto fail = [&](const std::string &what) {
        failed.fetch_add(1);
        std::lock_guard<std::mutex> lock(failMutex);
        if (failures.size() < 10)
            failures.push_back(what);
    };

    // Pre-warm: every hit config once, concurrently.  These replies
    // are the bytes every later hit must repeat.
    std::vector<std::string> expected(hits.size());
    auto prewarmStart = Clock::now();
    {
        std::atomic<std::size_t> next{0};
        std::vector<std::thread> pool;
        for (unsigned t = 0; t < std::min<std::size_t>(threads, hits.size());
             ++t) {
            pool.emplace_back([&] {
                for (std::size_t k; (k = next.fetch_add(1)) < hits.size();) {
                    attempted.fetch_add(1);
                    Reply r = httpRequest(port, "POST", "/run",
                                          runBody(hits[k], "prewarm"));
                    if (!r.error.empty() || r.status != 200) {
                        fail("prewarm " + hits[k].experiment + ": " +
                             (r.error.empty()
                                  ? "status " + std::to_string(r.status)
                                  : r.error));
                        continue;
                    }
                    expected[k] = std::move(r.body);
                }
            });
        }
        for (auto &t : pool)
            t.join();
    }
    const double prewarmSeconds = secondsSince(prewarmStart);
    if (!reportsDir.empty()) {
        for (std::size_t k = 0; k < hits.size(); ++k) {
            if (!expected[k].empty() &&
                !writeOut(reportsDir + "/" + hits[k].experiment + ".json",
                          expected[k]))
                return 2;
        }
    }

    // The seeded request sequence.
    std::mt19937_64 rng(seed * 0x9E3779B97F4A7C15ull + 1);
    const std::uint64_t missSeedBase = 1000000 + seed * 1000;
    std::vector<Config> misses;
    std::vector<Item> items;
    const std::size_t count =
        fixedRequests ? fixedRequests
                      : static_cast<std::size_t>(
                            (warmup + seconds) * 20000) + 1000;
    items.reserve(count + 1);
    while (items.size() < count) {
        const std::uint64_t r = rng() % 95;
        if (r < 85) {
            items.push_back({Kind::Hit,
                             static_cast<std::uint32_t>(rng() %
                                                        hits.size())});
        } else if (r < 90) {
            auto c = static_cast<std::uint32_t>(misses.size());
            misses.push_back(
                {missExps[rng() % missExps.size()],
                 {"--quick", "--seed",
                  std::to_string(missSeedBase + c)}});
            items.push_back({Kind::Miss, c});
            items.push_back({Kind::Miss, c});
        } else {
            items.push_back({rng() % 2 ? Kind::Bad404 : Kind::Bad400, 0});
        }
    }
    items.resize(count);

    std::mutex missMutex;
    std::map<std::uint32_t, std::string> missReplies;
    auto verify = [&](const Item &item, const Reply &r) -> std::string {
        if (!r.error.empty())
            return r.error;
        switch (item.kind) {
          case Kind::Hit:
            if (r.status != 200)
                return "status " + std::to_string(r.status);
            if (r.body != expected[item.index])
                return "reply differs from the pre-warm bytes";
            return "";
          case Kind::Miss: {
            if (r.status != 200)
                return "status " + std::to_string(r.status);
            const Config &c = misses[item.index];
            util::JsonValue doc;
            std::string err;
            if (!util::JsonValue::parse(r.body, doc, err))
                return "report does not parse: " + err;
            const util::JsonValue *cfg = doc.find("config");
            const util::JsonValue *s = cfg ? cfg->find("seed") : nullptr;
            if (doc.strOr("experiment", "") != c.experiment || !s ||
                s->numberToken() != c.args.back())
                return "report is not " + c.experiment + " at seed " +
                       c.args.back();
            std::lock_guard<std::mutex> lock(missMutex);
            auto [it, first] = missReplies.emplace(item.index, r.body);
            if (!first && it->second != r.body)
                return "the two replies of one config differ";
            return "";
          }
          case Kind::Bad404:
          case Kind::Bad400: {
            int want = item.kind == Kind::Bad404 ? 404 : 400;
            if (r.status != want)
                return "status " + std::to_string(r.status) +
                       ", expected " + std::to_string(want);
            if (r.body.find("\"error\"") == std::string::npos)
                return "error reply without an error message";
            return "";
          }
        }
        return "";
    };

    const auto loadStart = Clock::now();
    const bool timed = fixedRequests == 0;
    const auto windowStart =
        loadStart + std::chrono::duration_cast<Clock::duration>(
                        std::chrono::duration<double>(timed ? warmup : 0));
    const auto windowEnd =
        windowStart + std::chrono::duration_cast<Clock::duration>(
                          std::chrono::duration<double>(seconds));
    std::atomic<std::size_t> next{0};
    std::vector<std::vector<Sample>> perThread(threads);
    std::vector<std::thread> clients;
    for (unsigned t = 0; t < threads; ++t) {
        clients.emplace_back([&, t] {
            const std::string client = "c" + std::to_string(t);
            for (;;) {
                std::size_t i = next.fetch_add(1);
                if (i >= items.size() ||
                    (timed && Clock::now() >= windowEnd))
                    break;
                const Item &item = items[i];
                std::string body;
                switch (item.kind) {
                  case Kind::Hit:
                    body = runBody(hits[item.index], client);
                    break;
                  case Kind::Miss:
                    body = runBody(misses[item.index], client);
                    break;
                  case Kind::Bad404:
                    body = runBody({"no_such_experiment", {}}, client);
                    break;
                  case Kind::Bad400:
                    body = "{\"experiment\": ";
                    break;
                }
                int span = spans ? spans->begin(std::string("request:") +
                                                kindName(item.kind))
                                 : -1;
                auto start = Clock::now();
                Reply r = httpRequest(port, "POST", "/run", body);
                double ms = std::chrono::duration<double, std::milli>(
                                Clock::now() - start)
                                .count();
                if (spans)
                    spans->end(span);
                attempted.fetch_add(1);
                std::string problem = verify(item, r);
                if (!problem.empty())
                    fail(std::string(kindName(item.kind)) + " request " +
                         std::to_string(i) + ": " + problem);
                perThread[t].push_back({item, start, ms});
            }
        });
    }

    // The main thread samples the server's CPU time at the window edges.
    double cpuStart = 0, cpuEnd = 0;
    if (timed) {
        std::this_thread::sleep_until(windowStart);
        cpuStart = serverPid ? procCpuSeconds(serverPid) : 0.0;
        std::this_thread::sleep_until(windowEnd);
        cpuEnd = serverPid ? procCpuSeconds(serverPid) : 0.0;
    } else {
        cpuStart = serverPid ? procCpuSeconds(serverPid) : 0.0;
    }
    for (auto &c : clients)
        c.join();
    const double loadSeconds = secondsSince(loadStart);
    if (!timed)
        cpuEnd = serverPid ? procCpuSeconds(serverPid) : 0.0;
    const double windowSeconds = timed ? seconds : loadSeconds;

    std::vector<double> hitMs, missMs, badMs;
    std::uint64_t completed = 0;
    std::uint32_t missConfigsSent = 0;
    for (const auto &samples : perThread) {
        for (const auto &s : samples) {
            if (s.item.kind == Kind::Miss)
                missConfigsSent =
                    std::max(missConfigsSent, s.item.index + 1);
            if (timed && s.start < windowStart)
                continue;
            ++completed;
            auto &dst = s.item.kind == Kind::Hit    ? hitMs
                        : s.item.kind == Kind::Miss ? missMs
                                                    : badMs;
            dst.push_back(s.ms);
        }
    }

    // Coalescing and exactly-once counters, as the daemon books them.
    util::JsonValue serverMetrics;
    {
        attempted.fetch_add(1);
        Reply r = httpRequest(port, "GET", "/metrics", "");
        std::string err;
        if (!r.error.empty() || r.status != 200 ||
            !util::JsonValue::parse(r.body, serverMetrics, err))
            fail("GET /metrics failed");
    }
    auto counter = [&](const char *name) -> double {
        const util::JsonValue *v = serverMetrics.find(name);
        return v && v->isNumber() ? v->number() : 0.0;
    };
    stats::JsonWriter w;
    w.beginObject();
    w.key("prewarm_s").value(prewarmSeconds);
    w.key("attempted").value(attempted.load());
    w.key("failed").value(failed.load());
    w.key("failures").beginArray();
    for (const auto &f : failures)
        w.value(f);
    w.endArray();
    w.key("window_s").value(windowSeconds);
    w.key("completed").value(completed);
    w.key("req_per_s").value(windowSeconds > 0 ? completed / windowSeconds
                                               : 0.0);
    w.key("server_cpu_s").value(cpuEnd - cpuStart);
    writeLatency(w, "hit", hitMs);
    writeLatency(w, "miss", missMs);
    writeLatency(w, "bad", badMs);
    w.key("hit_configs").value(static_cast<std::uint64_t>(hits.size()));
    w.key("miss_configs").value(missConfigsSent);
    w.key("server").beginObject();
    for (const char *name : {"serve.runs", "serve.cache_hits",
                             "serve.coalesced", "serve.jobs_created",
                             "serve.requests", "serve.failures"})
        w.key(name).value(counter(name));
    w.endObject();
    w.endObject();
    if (!writeOut(args.get("--out"), w.str() + "\n"))
        return 2;
    if (spans && !spans->write(args.get("--spans")))
        return 2;
    return failed.load() == 0 ? 0 : 1;
}

} // namespace cellbw::bench
