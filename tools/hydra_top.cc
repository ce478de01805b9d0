/**
 * @file
 * hydra_top — render an introspection snapshot as a per-Offcode
 * table, the "top" view onto a finished (or checkpointed) run.
 *
 * Reads the JSON written by `hydra_sim --introspect-out FILE`:
 * either the two-runtime wrapper {"server":...,"client":...} or one
 * bare snapshot {"machine":...,"offcodes":[...]}.
 *
 * Also reads flight recordings (`hydra_sim --flight-out FILE`, or the
 * hydra.Monitor "Flight" OOB reply): the latest snapshot's histogram
 * summaries render as percentile columns and every gauge series
 * renders as a sparkline over time.
 *
 * Usage:
 *   hydra_top FILE
 */

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "common/json.hh"
#include "common/strings.hh"

namespace {

struct Row
{
    std::string machine;
    std::string bindname;
    std::string site;
    std::string state;
    std::uint64_t calls = 0;
    std::uint64_t data = 0;
    std::uint64_t mgmt = 0;
    std::uint64_t errors = 0;
    std::uint64_t busyNs = 0;
    std::uint64_t watchdogNs = 0;
    std::uint64_t oobQueued = 0;
};

std::string
stringField(const hydra::json::Value &object, const std::string &key)
{
    const hydra::json::Value *value = object.find(key);
    return value ? value->string : std::string();
}

std::uint64_t
u64Field(const hydra::json::Value &object, const std::string &key)
{
    const hydra::json::Value *value = object.find(key);
    return value ? value->asU64() : 0;
}

/** Collect rows from one {"machine":...,"offcodes":[...]} snapshot. */
void
collectSnapshot(const hydra::json::Value &snapshot,
                std::vector<Row> &rows)
{
    if (!snapshot.isObject())
        return;
    const std::string machine = stringField(snapshot, "machine");
    const hydra::json::Value *offcodes = snapshot.find("offcodes");
    if (!offcodes || !offcodes->isArray())
        return;
    for (const hydra::json::Value &oc : offcodes->array) {
        if (!oc.isObject())
            continue;
        Row row;
        row.machine = machine;
        row.bindname = stringField(oc, "bindname");
        row.site = stringField(oc, "site");
        row.state = stringField(oc, "state");
        row.calls = u64Field(oc, "calls_handled");
        row.data = u64Field(oc, "data_handled");
        row.mgmt = u64Field(oc, "mgmt_handled");
        row.errors = u64Field(oc, "invoke_errors");
        row.busyNs = u64Field(oc, "busy_ns");
        row.watchdogNs = u64Field(oc, "watchdog_age_ns");
        row.oobQueued = u64Field(oc, "oob_queued");
        rows.push_back(std::move(row));
    }
}

int
usage(const char *argv0)
{
    std::fprintf(stderr,
                 "usage: %s INTROSPECTION_JSON | FLIGHT_JSON\n", argv0);
    return 2;
}

double
numberField(const hydra::json::Value &object, const std::string &key)
{
    const hydra::json::Value *value = object.find(key);
    return value ? value->number : 0.0;
}

using hydra::sparkline;

/** Utilization gauges get their own percent panel, not the generic
 * GAUGE table. */
bool
isUtilizationKey(const std::string &key)
{
    return key.rfind("device.cpu_utilization{", 0) == 0 ||
           key.rfind("offcode.utilization{", 0) == 0;
}

/** Value of one label inside a display key "name{k=v,...}"; empty when
 * the label is absent. */
std::string
labelOf(const std::string &key, const std::string &label)
{
    const std::string needle = label + "=";
    std::size_t pos = key.find("{" + needle);
    if (pos == std::string::npos)
        pos = key.find("," + needle);
    if (pos == std::string::npos)
        return "";
    pos += 1 + needle.size();
    const std::size_t end = key.find_first_of(",}", pos);
    return key.substr(pos, end == std::string::npos ? end : end - pos);
}

/**
 * PER-HOST panel: fleet runs label site/device series with host=;
 * group them so N-host runs read as N rows — total site-busy time,
 * device count, mean device utilization, and a busy-delta trend.
 */
void
renderHostPanel(const hydra::json::Value &snapshots)
{
    // Host -> per-snapshot summed cumulative busy ns.
    std::vector<std::pair<std::string, std::vector<double>>> busyByHost;
    auto seriesFor =
        [&](const std::string &host) -> std::vector<double> & {
        for (auto &[known, series] : busyByHost)
            if (known == host)
                return series;
        busyByHost.emplace_back(host, std::vector<double>());
        return busyByHost.back().second;
    };
    std::size_t index = 0;
    for (const hydra::json::Value &snapshot : snapshots.array) {
        const hydra::json::Value *counters = snapshot.find("counters");
        if (counters && counters->isObject()) {
            for (const auto &[key, value] : counters->object) {
                if (key.rfind("exec.site_busy_ns{", 0) != 0)
                    continue;
                const std::string host = labelOf(key, "host");
                if (host.empty())
                    continue;
                std::vector<double> &series = seriesFor(host);
                series.resize(snapshots.array.size(), 0.0);
                series[index] += value.number;
            }
        }
        ++index;
    }
    if (busyByHost.empty())
        return;

    // Device stats come from the newest snapshot that carries gauges.
    auto deviceStats = [&](const std::string &host) {
        std::pair<std::size_t, double> stats{0, 0.0};
        for (auto it = snapshots.array.rbegin();
             it != snapshots.array.rend(); ++it) {
            const hydra::json::Value *gauges = it->find("gauges");
            if (!gauges || !gauges->isObject())
                continue;
            for (const auto &[key, value] : gauges->object) {
                if (key.rfind("device.cpu_utilization{", 0) == 0 &&
                    labelOf(key, "host") == host) {
                    ++stats.first;
                    stats.second += value.number;
                }
            }
            if (stats.first)
                break;
        }
        if (stats.first)
            stats.second /= static_cast<double>(stats.first);
        return stats;
    };

    std::sort(busyByHost.begin(), busyByHost.end());
    std::size_t keyWidth = std::strlen("HOST");
    for (const auto &[host, series] : busyByHost)
        keyWidth = std::max(keyWidth, host.size());
    std::printf("\n%-*s %12s %5s %9s  %s\n",
                static_cast<int>(keyWidth), "HOST", "BUSY(ms)", "DEVS",
                "DEV-UTIL", "TREND");
    for (const auto &[host, series] : busyByHost) {
        // Counters are cumulative; the trend is the per-interval delta.
        std::vector<double> deltas;
        double previous = 0.0;
        for (double cumulative : series) {
            deltas.push_back(cumulative > previous ? cumulative - previous
                                                   : 0.0);
            previous = cumulative;
        }
        const auto [devices, meanUtil] = deviceStats(host);
        std::printf("%-*s %12.3f %5zu %8.1f%%  %s\n",
                    static_cast<int>(keyWidth), host.c_str(),
                    series.back() / 1e6, devices, meanUtil * 100.0,
                    sparkline(deltas).c_str());
    }
}

/**
 * Render a flight recording: percentile columns from the newest
 * snapshot, then per-gauge sparklines (one glyph per snapshot) so
 * queue depths can be eyeballed over time.
 */
int
renderFlight(const hydra::json::Value &doc, const char *path)
{
    const hydra::json::Value *snapshots = doc.find("snapshots");
    if (!snapshots || !snapshots->isArray() ||
        snapshots->array.empty()) {
        std::fprintf(stderr, "hydra_top: %s holds no flight snapshots\n",
                     path);
        return 1;
    }

    const hydra::json::Value &last = snapshots->array.back();
    std::printf("flight: %zu snapshots (captured=%llu dropped=%llu)  "
                "t=%.3fms..%.3fms\n",
                snapshots->array.size(),
                static_cast<unsigned long long>(
                    doc.find("captured") ? doc.find("captured")->asU64()
                                         : 0),
                static_cast<unsigned long long>(
                    doc.find("dropped") ? doc.find("dropped")->asU64()
                                        : 0),
                numberField(snapshots->array.front(), "t") / 1e6,
                numberField(last, "t") / 1e6);

    // Snapshots are delta-encoded: a histogram appears only in
    // snapshots where its count grew, so the freshest digest for each
    // series is the newest snapshot that carries it (a quiet tail
    // snapshot would otherwise blank the whole table).
    std::vector<std::pair<std::string, const hydra::json::Value *>>
        latest;
    for (auto it = snapshots->array.rbegin();
         it != snapshots->array.rend(); ++it) {
        const hydra::json::Value *hists = it->find("histograms");
        if (!hists || !hists->isObject())
            continue;
        for (const auto &[key, summary] : hists->object) {
            if (!summary.isObject())
                continue;
            bool seen = false;
            for (const auto &[known, unused] : latest)
                if (known == key) {
                    seen = true;
                    break;
                }
            if (!seen)
                latest.emplace_back(key, &summary);
        }
    }
    if (!latest.empty()) {
        std::sort(latest.begin(), latest.end());
        std::size_t keyWidth = std::strlen("SERIES");
        for (const auto &[key, summary] : latest)
            keyWidth = std::max(keyWidth, key.size());
        std::printf("\n%-*s %9s %9s %9s %9s %9s %9s\n",
                    static_cast<int>(keyWidth), "SERIES", "N", "P50",
                    "P90", "P99", "P999", "MAX");
        for (const auto &[key, summary] : latest) {
            std::printf(
                "%-*s %9llu %9.0f %9.0f %9.0f %9.0f %9.0f\n",
                static_cast<int>(keyWidth), key.c_str(),
                static_cast<unsigned long long>(
                    u64Field(*summary, "n")),
                numberField(*summary, "p50"),
                numberField(*summary, "p90"),
                numberField(*summary, "p99"),
                numberField(*summary, "p999"),
                numberField(*summary, "max"));
        }
    }
    // Gauge sparklines: gather the union of keys, then one aligned
    // series per key (absent-in-snapshot means zero). Utilization
    // gauges render in their own percent panel.
    std::vector<std::string> gaugeKeys;
    std::vector<std::string> utilKeys;
    for (const hydra::json::Value &snapshot : snapshots->array) {
        const hydra::json::Value *gauges = snapshot.find("gauges");
        if (!gauges || !gauges->isObject())
            continue;
        for (const auto &[key, value] : gauges->object) {
            std::vector<std::string> &bucket =
                isUtilizationKey(key) ? utilKeys : gaugeKeys;
            if (std::find(bucket.begin(), bucket.end(), key) ==
                bucket.end())
                bucket.push_back(key);
        }
    }
    auto gaugeSeries = [&](const std::string &key) {
        std::vector<double> series;
        for (const hydra::json::Value &snapshot : snapshots->array) {
            const hydra::json::Value *gauges = snapshot.find("gauges");
            const hydra::json::Value *value =
                gauges ? gauges->find(key) : nullptr;
            series.push_back(value ? value->number : 0.0);
        }
        return series;
    };
    if (!utilKeys.empty()) {
        std::sort(utilKeys.begin(), utilKeys.end());
        std::size_t keyWidth = std::strlen("UTILIZATION");
        for (const std::string &key : utilKeys)
            keyWidth = std::max(keyWidth, key.size());
        std::printf("\n%-*s %9s  %s\n", static_cast<int>(keyWidth),
                    "UTILIZATION", "LAST", "TREND");
        for (const std::string &key : utilKeys) {
            const std::vector<double> series = gaugeSeries(key);
            std::printf("%-*s %8.1f%%  %s\n",
                        static_cast<int>(keyWidth), key.c_str(),
                        series.back() * 100.0,
                        sparkline(series).c_str());
        }
    }
    if (!gaugeKeys.empty()) {
        std::sort(gaugeKeys.begin(), gaugeKeys.end());
        std::size_t keyWidth = std::strlen("GAUGE");
        for (const std::string &key : gaugeKeys)
            keyWidth = std::max(keyWidth, key.size());
        std::printf("\n%-*s %10s  %s\n", static_cast<int>(keyWidth),
                    "GAUGE", "LAST", "TREND");
        for (const std::string &key : gaugeKeys) {
            const std::vector<double> series = gaugeSeries(key);
            std::printf("%-*s %10.1f  %s\n",
                        static_cast<int>(keyWidth), key.c_str(),
                        series.back(), sparkline(series).c_str());
        }
    }

    renderHostPanel(*snapshots);

    // ALERTS: SLO violation counters are delta-encoded per snapshot,
    // so the trend shows when each rule fired and TOTAL sums the run.
    std::vector<std::string> alertKeys;
    for (const hydra::json::Value &snapshot : snapshots->array) {
        const hydra::json::Value *counters = snapshot.find("counters");
        if (!counters || !counters->isObject())
            continue;
        for (const auto &[key, value] : counters->object)
            if (key.rfind("obs.slo.violations{", 0) == 0 &&
                std::find(alertKeys.begin(), alertKeys.end(), key) ==
                    alertKeys.end())
                alertKeys.push_back(key);
    }
    if (!alertKeys.empty()) {
        std::sort(alertKeys.begin(), alertKeys.end());
        std::size_t keyWidth = std::strlen("ALERT");
        for (const std::string &key : alertKeys)
            keyWidth = std::max(keyWidth, key.size());
        std::printf("\n%-*s %9s  %s\n", static_cast<int>(keyWidth),
                    "ALERT", "TOTAL", "TREND");
        for (const std::string &key : alertKeys) {
            std::vector<double> deltas;
            double total = 0.0;
            for (const hydra::json::Value &snapshot :
                 snapshots->array) {
                const hydra::json::Value *counters =
                    snapshot.find("counters");
                const hydra::json::Value *value =
                    counters ? counters->find(key) : nullptr;
                const double delta = value ? value->number : 0.0;
                deltas.push_back(delta);
                total += delta;
            }
            std::printf("%-*s %9.0f  %s\n",
                        static_cast<int>(keyWidth), key.c_str(), total,
                        sparkline(deltas).c_str());
        }
    }
    return 0;
}

} // namespace

int
main(int argc, char **argv)
{
    if (argc != 2)
        return usage(argv[0]);

    std::ifstream in(argv[1]);
    if (!in) {
        std::fprintf(stderr, "hydra_top: cannot read %s\n", argv[1]);
        return 1;
    }
    std::ostringstream buffer;
    buffer << in.rdbuf();

    auto doc = hydra::json::parse(buffer.str());
    if (!doc) {
        std::fprintf(stderr, "hydra_top: %s: %s\n", argv[1],
                     doc.error().describe().c_str());
        return 1;
    }

    if (doc.value().find("snapshots"))
        return renderFlight(doc.value(), argv[1]);

    std::vector<Row> rows;
    if (doc.value().find("offcodes")) {
        collectSnapshot(doc.value(), rows);
    } else if (doc.value().isObject()) {
        // The hydra_sim wrapper: one snapshot (or null) per runtime.
        for (const auto &[name, snapshot] : doc.value().object)
            collectSnapshot(snapshot, rows);
    }
    if (rows.empty()) {
        std::fprintf(stderr, "hydra_top: %s holds no offcodes\n",
                     argv[1]);
        return 1;
    }

    std::sort(rows.begin(), rows.end(), [](const Row &a, const Row &b) {
        return a.machine != b.machine ? a.machine < b.machine
                                      : a.bindname < b.bindname;
    });

    std::size_t nameWidth = std::strlen("OFFCODE");
    std::size_t siteWidth = std::strlen("SITE");
    for (const Row &row : rows) {
        nameWidth = std::max(nameWidth, row.bindname.size());
        siteWidth = std::max(siteWidth, row.site.size());
    }

    std::printf("%-8s %-*s %-*s %-11s %9s %9s %6s %5s %10s %11s %5s\n",
                "MACHINE", static_cast<int>(nameWidth), "OFFCODE",
                static_cast<int>(siteWidth), "SITE",
                "STATE", "CALLS", "DATA", "MGMT", "ERR",
                "BUSY(ms)", "IDLE(ms)", "OOBQ");
    for (const Row &row : rows) {
        std::printf(
            "%-8s %-*s %-*s %-11s %9llu %9llu %6llu %5llu %10.3f "
            "%11.3f %5llu\n",
            row.machine.c_str(), static_cast<int>(nameWidth),
            row.bindname.c_str(), static_cast<int>(siteWidth),
            row.site.c_str(), row.state.c_str(),
            static_cast<unsigned long long>(row.calls),
            static_cast<unsigned long long>(row.data),
            static_cast<unsigned long long>(row.mgmt),
            static_cast<unsigned long long>(row.errors),
            static_cast<double>(row.busyNs) / 1e6,
            static_cast<double>(row.watchdogNs) / 1e6,
            static_cast<unsigned long long>(row.oobQueued));
    }
    return 0;
}
