#include "record.hh"

#include <sys/resource.h>

#include <algorithm>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <sstream>
#include <thread>

#include "obs/json.hh"
#include "obs/metrics.hh"
#include "obs/trace.hh"

namespace hydra::e2e {

namespace {

std::string
number(double value)
{
    if (!std::isfinite(value))
        return "null";
    char buf[40];
    std::snprintf(buf, sizeof(buf), "%.17g", value);
    return buf;
}

void
writeMap(std::ostream &out, const std::map<std::string, double> &values)
{
    out << '{';
    bool first = true;
    for (const auto &[key, value] : values) {
        if (!first)
            out << ',';
        first = false;
        obs::writeJsonString(out, key);
        out << ':' << number(value);
    }
    out << '}';
}

struct Fnv
{
    std::uint64_t h = 0xcbf29ce484222325ull;

    void
    bytes(const void *data, std::size_t size)
    {
        const auto *p = static_cast<const unsigned char *>(data);
        for (std::size_t i = 0; i < size; ++i) {
            h ^= p[i];
            h *= 0x100000001b3ull;
        }
    }
    void text(const std::string &s) { bytes(s.data(), s.size() + 1); }
    void
    u64(std::uint64_t v)
    {
        bytes(&v, sizeof(v));
    }
    void
    f64(double v)
    {
        std::uint64_t bits = 0;
        std::memcpy(&bits, &v, sizeof(bits));
        u64(bits);
    }
};

} // namespace

void
Record::check(std::string name, bool ok, std::string detail)
{
    checks.push_back({std::move(name), ok, std::move(detail)});
}

bool
Record::allChecksPass() const
{
    for (const Check &c : checks)
        if (!c.ok)
            return false;
    return !checks.empty();
}

std::string
Record::toJson() const
{
    std::ostringstream out;
    out << "{\"workload\":";
    obs::writeJsonString(out, workload);
    out << ",\"leg\":";
    obs::writeJsonString(out, leg);
    out << ",\"traced\":" << (traced ? "true" : "false")
        << ",\"setup_s\":" << number(setupS)
        << ",\"run_wall_s\":" << number(runWallS)
        << ",\"peak_rss_mb\":" << number(peakRssMb)
        << ",\"attempted\":" << attempted << ",\"failed\":" << failed
        << ",\"digest\":\"" << digest << "\",\"virtual\":";
    writeMap(out, virt);
    out << ",\"layers\":";
    writeMap(out, layers);
    out << ",\"breakdown\":";
    writeMap(out, breakdown);
    out << ",\"checks\":[";
    for (std::size_t i = 0; i < checks.size(); ++i) {
        out << (i ? "," : "") << "{\"name\":";
        obs::writeJsonString(out, checks[i].name);
        out << ",\"ok\":" << (checks[i].ok ? "true" : "false")
            << ",\"detail\":";
        obs::writeJsonString(out, checks[i].detail);
        out << '}';
    }
    out << "],\"context\":{\"nproc\":"
        << std::thread::hardware_concurrency() << ",\"build_type\":";
    obs::writeJsonString(out, E2E_BUILD_TYPE);
    out << ",\"compiler\":";
    obs::writeJsonString(out, "gcc " __VERSION__);
    out << ",\"hydra_tracing\":" << (HYDRA_OBS_TRACING ? "true" : "false")
        << "}}";
    return out.str();
}

double
peakRssMb()
{
    struct rusage usage{};
    if (getrusage(RUSAGE_SELF, &usage) != 0)
        return 0.0;
    return static_cast<double>(usage.ru_maxrss) / 1024.0; // KiB on Linux
}

std::string
virtualDigest(const std::vector<const std::vector<double> *> &samples,
              const std::vector<std::uint64_t> &counts)
{
    Fnv fnv;
    for (const std::vector<double> *set : samples) {
        fnv.u64(set->size());
        for (double v : *set)
            fnv.f64(v);
    }
    for (std::uint64_t c : counts)
        fnv.u64(c);
    const obs::RegistrySnapshot snap =
        obs::MetricsRegistry::instance().snapshot();
    for (const auto &[key, value] : snap.counters)
        if (value != 0) {
            fnv.text(key);
            fnv.u64(value);
        }
    for (const auto &[key, value] : snap.gauges)
        if (value != 0.0) {
            fnv.text(key);
            fnv.f64(value);
        }
    for (const auto &[key, s] : snap.histograms)
        if (s.count != 0) {
            fnv.text(key);
            for (std::uint64_t v : {s.count, s.sum, s.min, s.max, s.overflow})
                fnv.u64(v);
            for (double v : {s.p50, s.p90, s.p99, s.p999})
                fnv.f64(v);
        }
    char buf[20];
    std::snprintf(buf, sizeof(buf), "%016" PRIx64, fnv.h);
    return buf;
}

BusySplit
readBusy()
{
    BusySplit split;
    const obs::RegistrySnapshot snap =
        obs::MetricsRegistry::instance().snapshot();
    for (const auto &[key, value] : snap.counters) {
        std::string name;
        obs::Labels labels;
        if (!obs::parseDisplayKey(key, name, labels) ||
            name != "exec.site_busy_ns")
            continue;
        std::string site;
        for (const auto &[k, v] : labels)
            if (k == "site")
                site = v;
        const bool host =
            site.size() > 5 && site.compare(site.size() - 5, 5, ".host") == 0;
        if (host) {
            split.hostNs += value;
            split.perHost[site] += value;
        } else {
            split.deviceNs += value;
            split.perDevice[site] += value;
        }
    }
    return split;
}

SeriesRollup
rollupHistogram(const std::string &name)
{
    SeriesRollup rollup;
    const obs::RegistrySnapshot snap =
        obs::MetricsRegistry::instance().snapshot();
    for (const auto &[key, s] : snap.histograms) {
        if (key.compare(0, name.size(), name) != 0 ||
            (key.size() > name.size() && key[name.size()] != '{') ||
            s.count == 0)
            continue;
        rollup.count += s.count;
        rollup.p99ByKey[key] = s.p99;
        rollup.maxP99 = std::max(rollup.maxP99, s.p99);
    }
    return rollup;
}

std::uint64_t
registrySeries()
{
    const obs::RegistrySnapshot snap =
        obs::MetricsRegistry::instance().snapshot();
    return snap.counters.size() + snap.gauges.size() +
           snap.histograms.size();
}

} // namespace hydra::e2e
