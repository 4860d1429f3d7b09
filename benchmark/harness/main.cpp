#include <algorithm>
#include <cmath>
#include <cstdio>
#include <stdexcept>

#include <sys/resource.h>

#include "harness.hh"
#include "stats/json_writer.hh"
#include "util/file.hh"
#include "util/strings.hh"

namespace cellbw::bench
{

Args::Args(int argc, char **argv)
{
    for (int i = 0; i < argc; ++i) {
        std::string a = argv[i];
        if (a.rfind("--", 0) != 0) {
            positional_.push_back(a);
            continue;
        }
        if (i + 1 < argc && std::string(argv[i + 1]).rfind("--", 0) != 0)
            flags_[a] = argv[++i];
        else
            flags_[a] = "";
    }
}

bool
Args::has(const std::string &flag) const
{
    return flags_.count(flag) != 0;
}

std::string
Args::get(const std::string &flag, const std::string &def) const
{
    auto it = flags_.find(flag);
    return it == flags_.end() ? def : it->second;
}

std::uint64_t
Args::getUint(const std::string &flag, std::uint64_t def) const
{
    auto it = flags_.find(flag);
    return it == flags_.end() ? def : util::parseUint64(it->second);
}

std::vector<std::string>
Args::getList(const std::string &flag) const
{
    std::vector<std::string> out;
    std::string v = get(flag);
    std::size_t pos = 0;
    while (pos < v.size()) {
        std::size_t comma = v.find(',', pos);
        if (comma == std::string::npos)
            comma = v.size();
        if (comma > pos)
            out.push_back(v.substr(pos, comma - pos));
        pos = comma + 1;
    }
    return out;
}

SpanLog::SpanLog(std::string workload)
    : workload_(std::move(workload)), origin_(Clock::now())
{
}

int
SpanLog::begin(const std::string &name, int parent)
{
    auto now = Clock::now();
    std::lock_guard<std::mutex> lock(mutex_);
    spans_.push_back({name, now, now, parent});
    return static_cast<int>(spans_.size() - 1);
}

void
SpanLog::end(int id)
{
    auto now = Clock::now();
    std::lock_guard<std::mutex> lock(mutex_);
    spans_.at(static_cast<std::size_t>(id)).end = now;
}

double
SpanLog::seconds(int id) const
{
    std::lock_guard<std::mutex> lock(mutex_);
    const Span &s = spans_.at(static_cast<std::size_t>(id));
    return std::chrono::duration<double>(s.end - s.start).count();
}

bool
SpanLog::write(const std::string &path) const
{
    auto us = [this](Clock::time_point t) {
        return std::chrono::duration<double, std::micro>(t - origin_)
            .count();
    };
    stats::JsonWriter w;
    w.beginArray();
    {
        std::lock_guard<std::mutex> lock(mutex_);
        for (std::size_t i = 0; i < spans_.size(); ++i) {
            const Span &s = spans_[i];
            w.beginObject();
            w.key("id").value(static_cast<std::uint64_t>(i));
            w.key("name").value(s.name);
            w.key("start_us").value(us(s.start));
            w.key("end_us").value(us(s.end));
            w.key("parent").value(s.parent);
            w.key("workload").value(workload_);
            w.endObject();
        }
    }
    w.endArray();
    return writeOut(path, w.str() + "\n");
}

void
MetricSet::set(const std::string &name, double value,
               const std::string &unit)
{
    values_.push_back({name, {value, unit}});
}

std::string
MetricSet::json() const
{
    stats::JsonWriter w;
    w.beginObject();
    for (const auto &[name, vu] : values_) {
        w.key(name).beginObject();
        w.key("value").value(vu.first);
        w.key("unit").value(vu.second);
        w.endObject();
    }
    w.endObject();
    return w.str();
}

double
quantile(std::vector<double> v, double q)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    double pos = q * static_cast<double>(v.size() - 1);
    auto lo = static_cast<std::size_t>(std::floor(pos));
    std::size_t hi = std::min(lo + 1, v.size() - 1);
    double frac = pos - static_cast<double>(lo);
    return v[lo] + (v[hi] - v[lo]) * frac;
}

double
processCpuSeconds()
{
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    auto secs = [](const timeval &tv) {
        return static_cast<double>(tv.tv_sec) +
               static_cast<double>(tv.tv_usec) / 1e6;
    };
    return secs(ru.ru_utime) + secs(ru.ru_stime);
}

bool
writeOut(const std::string &path, const std::string &text)
{
    if (util::writeFileAtomic(path, text))
        return true;
    std::fprintf(stderr, "cellbw_bench: cannot write %s\n", path.c_str());
    return false;
}

namespace
{

int
cmdHost()
{
    stats::JsonWriter w;
    w.beginObject();
    w.key("build_type").value(CELLBW_BENCH_BUILD_TYPE);
#ifdef NDEBUG
    w.key("ndebug").value(true);
#else
    w.key("ndebug").value(false);
#endif
    w.key("compiler").value(__VERSION__);
    w.endObject();
    std::printf("%s\n", w.str().c_str());
    return 0;
}

int
usage()
{
    std::fputs("usage: cellbw_bench "
               "check|selftest|load|replay|probes|host [flags]\n"
               "(see benchmark/README.md)\n",
               stderr);
    return 2;
}

} // namespace

} // namespace cellbw::bench

int
main(int argc, char **argv)
{
    using namespace cellbw::bench;
    if (argc < 2)
        return usage();
    const std::string cmd = argv[1];
    try {
        Args args(argc - 2, argv + 2);
        if (cmd == "check")
            return cmdCheck(args);
        if (cmd == "selftest")
            return cmdSelftest(args);
        if (cmd == "load")
            return cmdLoad(args);
        if (cmd == "replay")
            return cmdReplay(args);
        if (cmd == "probes")
            return cmdProbes(args);
        if (cmd == "host")
            return cmdHost();
    } catch (const std::exception &e) {
        std::fprintf(stderr, "cellbw_bench %s: %s\n", cmd.c_str(),
                     e.what());
        return 2;
    }
    return usage();
}
