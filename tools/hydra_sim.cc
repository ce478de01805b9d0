/**
 * @file
 * hydra_sim — command-line driver for the evaluation testbed.
 *
 * Runs any server/client scenario combination and prints the full
 * measurement set (jitter statistics + distribution, CPU utilization,
 * L2 miss rates, bus crossings, delivery counters). This is the tool
 * a downstream user reaches for to explore parameter sensitivity
 * without writing code.
 *
 * Usage:
 *   hydra_sim [--server simple|sendfile|onloaded|offloaded|none]
 *             [--client receiver|user-space|offloaded|none]
 *             [--seconds N] [--seed N] [--period-ms N]
 *             [--chunk-bytes N] [--drop P] [--quiet-host]
 *             [--no-bus-multicast] [--histogram]
 *             [--metrics] [--metrics-format table|json]
 *             [--metrics-out FILE] [--trace-out FILE]
 *             [--spans-out FILE] [--introspect-out FILE]
 *             [--flight-out FILE] [--flight-interval-ms N]
 *             [--profile-out FILE] [--profile-interval-ms N]
 *             [--slo FILE] [--slo-strict]
 *             [--chaos SEED[:spec]]
 *
 * --chaos arms the deterministic fault injector. The spec grammar is
 * `SEED[:key=value,...]` with keys drop/dup/corrupt/slow/stall/
 * poolfail/ringfull (probabilities), slow-ms/stall-ms (durations),
 * and reset@MS=device[/downtime-ms] (repeatable; devices are
 * server-nic, client-nic, client-disk, client-gpu). Same seed + same
 * spec replays byte-for-byte.
 *
 * Numeric flags are parsed strictly (parseU64/parseDouble): a value
 * with a sign, fraction, suffix or overflow is a usage error (exit 2),
 * as is zero for --seconds, --period-ms, --chunk-bytes and the
 * interval flags, and a --drop outside [0, 1].
 */

#include <cmath>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <iterator>
#include <limits>
#include <string>

#include "chaos/chaos.hh"
#include "common/strings.hh"
#include "core/runtime.hh"
#include "obs/flight.hh"
#include "obs/metrics.hh"
#include "obs/profiler.hh"
#include "obs/slo.hh"
#include "obs/trace.hh"
#include "tivo/harness.hh"

using namespace hydra;
using namespace hydra::tivo;

namespace {

int
usage(const char *argv0)
{
    std::fprintf(
        stderr,
        "usage: %s [--server simple|sendfile|onloaded|offloaded|none]\n"
        "          [--client receiver|user-space|offloaded|none]\n"
        "          [--seconds N] [--seed N] [--period-ms N]\n"
        "          [--chunk-bytes N] [--drop P] [--quiet-host]\n"
        "          [--no-bus-multicast] [--histogram]\n"
        "          [--metrics] [--metrics-format table|json]\n"
        "          [--metrics-out FILE] [--trace-out FILE]\n"
        "          [--spans-out FILE] [--introspect-out FILE]\n"
        "          [--flight-out FILE] [--flight-interval-ms N]\n"
        "          [--profile-out FILE] [--profile-interval-ms N]\n"
        "          [--slo FILE] [--slo-strict]\n"
        "          [--chaos SEED[:drop=P,dup=P,corrupt=P,slow=P,"
        "stall=P,poolfail=P,ringfull=P,reset@MS=dev[/ms]]]\n",
        argv0);
    return 2;
}

bool
parseServer(const std::string &name, ServerKind &out)
{
    if (name == "simple")
        out = ServerKind::Simple;
    else if (name == "sendfile")
        out = ServerKind::Sendfile;
    else if (name == "onloaded")
        out = ServerKind::Onloaded;
    else if (name == "offloaded")
        out = ServerKind::Offloaded;
    else if (name == "none" || name == "idle")
        out = ServerKind::None;
    else
        return false;
    return true;
}

bool
parseClient(const std::string &name, ClientKind &out)
{
    if (name == "receiver")
        out = ClientKind::Receiver;
    else if (name == "user-space" || name == "userspace")
        out = ClientKind::UserSpace;
    else if (name == "offloaded")
        out = ClientKind::Offloaded;
    else if (name == "none" || name == "idle")
        out = ClientKind::None;
    else
        return false;
    return true;
}

/**
 * Query one runtime's hydra.Monitor over the real OOB channel (the
 * introspection protocol exercised end to end), pumping the simulator
 * until the Return arrives. Falls back to a direct snapshot if the
 * round trip does not complete. Returns "null" for absent runtimes.
 */
std::string
queryIntrospection(Testbed &testbed, core::Runtime *runtime)
{
    if (!runtime)
        return "null";
    std::string reply;
    bool replied = false;
    Status sent = runtime->invokeAsync(
        "hydra.Monitor", "Stats", Bytes{}, [&](Result<Bytes> result) {
            if (result) {
                reply.assign(result.value().begin(),
                             result.value().end());
                replied = true;
            }
        });
    if (sent) {
        exec::Executor &engine = testbed.executor();
        engine.runUntil(engine.now() + sim::milliseconds(100));
    }
    return replied ? reply : runtime->introspectJson();
}

void
printSamples(const char *name, const SampleSet &samples,
             const char *unit)
{
    if (samples.empty()) {
        std::printf("  %-22s (no samples)\n", name);
        return;
    }
    const SummaryStats stats = samples.summary();
    std::printf("  %-22s med=%8.3f  avg=%8.3f  std=%8.4f  "
                "min=%8.3f  max=%8.3f %s\n",
                name, stats.p50, stats.mean, stats.stddev, stats.min,
                stats.max, unit);
}

/**
 * Per-entity latency report: every labelled histogram the run
 * populated (per-channel delivery latency, per-Offcode service time,
 * per-device DMA time), with the tail percentiles the telemetry
 * engine tracks.
 */
void
printLatencyReport()
{
    const obs::RegistrySnapshot snap =
        obs::MetricsRegistry::instance().snapshot();
    bool any = false;
    for (const auto &[key, summary] : snap.histograms) {
        const bool interesting =
            key.rfind("channel.delivery_latency_ns{", 0) == 0 ||
            key.rfind("offcode.service_ns{", 0) == 0 ||
            key.rfind("dma.transfer_ns{", 0) == 0;
        if (!interesting || summary.count == 0)
            continue;
        if (!any) {
            std::printf("\nper-entity latency (ns):\n");
            std::printf("  %-52s %9s %9s %9s %9s %9s\n", "series", "n",
                        "p50", "p99", "p999", "max");
            any = true;
        }
        std::printf("  %-52s %9llu %9.0f %9.0f %9.0f %9llu\n",
                    key.c_str(),
                    static_cast<unsigned long long>(summary.count),
                    summary.p50, summary.p99, summary.p999,
                    static_cast<unsigned long long>(summary.max));
    }
}

/**
 * CPU attribution report: who burned which CPU. Per-site busy/idle
 * virtual time (with the utilization they imply) and per-Offcode CPU
 * time, straight from the exec.site_*_ns / offcode.cpu_ns counters
 * the executors maintain.
 */
void
printCpuReport()
{
    const obs::RegistrySnapshot snap =
        obs::MetricsRegistry::instance().snapshot();

    bool any = false;
    for (const auto &[key, busy] : snap.counters) {
        // Site series carry site= and (on fleet/testbed machines) a
        // host= label; parse rather than prefix-match so both forms
        // report.
        std::string name;
        obs::Labels labels;
        if (!obs::parseDisplayKey(key, name, labels) ||
            name != "exec.site_busy_ns")
            continue;
        std::string site, host;
        for (const auto &[k, v] : labels) {
            if (k == "site")
                site = v;
            else if (k == "host")
                host = v;
        }
        if (site.empty())
            continue;
        const std::uint64_t idle =
            obs::MetricsRegistry::instance().counterValue(
                "exec.site_idle_ns", labels);
        const std::uint64_t elapsed = busy + idle;
        if (!any) {
            std::printf("\ncpu attribution (virtual ns):\n");
            std::printf("  %-12s %-24s %14s %14s %8s\n", "host", "site",
                        "busy", "idle", "util");
            any = true;
        }
        std::printf("  %-12s %-24s %14llu %14llu %7.1f%%\n",
                    host.empty() ? "-" : host.c_str(), site.c_str(),
                    static_cast<unsigned long long>(busy),
                    static_cast<unsigned long long>(idle),
                    elapsed ? 100.0 * static_cast<double>(busy) /
                                  static_cast<double>(elapsed)
                            : 0.0);
    }

    bool anyOffcode = false;
    for (const auto &[key, cpu] : snap.counters) {
        const std::string prefix = "offcode.cpu_ns{offcode=";
        if (key.rfind(prefix, 0) != 0 || key.back() != '}' || cpu == 0)
            continue;
        const std::string name = key.substr(
            prefix.size(), key.size() - prefix.size() - 1);
        if (!anyOffcode) {
            std::printf("  %-24s %14s\n", "offcode", "cpu");
            anyOffcode = true;
        }
        std::printf("  %-24s %14llu\n", name.c_str(),
                    static_cast<unsigned long long>(cpu));
    }
}

} // namespace

int
main(int argc, char **argv)
{
    TestbedConfig config;
    config.server = ServerKind::Offloaded;
    config.client = ClientKind::Offloaded;
    config.duration = sim::seconds(60);
    config.warmup = sim::seconds(5);
    bool histogram = false;
    bool printMetrics = false;
    std::string metricsFormat = "table";
    std::string metricsOut;
    std::string traceOut;
    std::string spansOut;
    std::string introspectOut;
    std::string flightOut;
    std::uint64_t flightIntervalMs = 0;
    std::string profileOut;
    std::uint64_t profileIntervalMs = 0;
    std::string sloPath;
    bool sloStrict = false;

    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        auto next = [&]() -> const char * {
            return i + 1 < argc ? argv[++i] : nullptr;
        };
        // Strict numeric value in [min, max]; a rejected value is
        // reported here and the caller exits through usage().
        auto nextU64 = [&](std::uint64_t &out, std::uint64_t min,
                           std::uint64_t max =
                               std::numeric_limits<std::uint64_t>::max()) {
            const char *value = next();
            if (value && parseU64(value, out, min, max))
                return true;
            std::fprintf(stderr,
                         "%s: %s wants an integer in [%llu, %llu], "
                         "got '%s'\n",
                         argv[0], arg.c_str(),
                         static_cast<unsigned long long>(min),
                         static_cast<unsigned long long>(max),
                         value ? value : "");
            return false;
        };
        if (arg == "--server") {
            const char *value = next();
            if (!value || !parseServer(value, config.server))
                return usage(argv[0]);
        } else if (arg == "--client") {
            const char *value = next();
            if (!value || !parseClient(value, config.client))
                return usage(argv[0]);
        } else if (arg == "--seconds") {
            std::uint64_t seconds = 0;
            if (!nextU64(seconds, 1, sim::maxCount(sim::kSecond)))
                return usage(argv[0]);
            config.duration = sim::seconds(seconds);
        } else if (arg == "--seed") {
            if (!nextU64(config.seed, 0))
                return usage(argv[0]);
        } else if (arg == "--period-ms") {
            std::uint64_t periodMs = 0;
            if (!nextU64(periodMs, 1, sim::maxCount(sim::kMillisecond)))
                return usage(argv[0]);
            config.sendPeriod = sim::milliseconds(periodMs);
        } else if (arg == "--chunk-bytes") {
            std::uint64_t bytes = 0;
            if (!nextU64(bytes, 1))
                return usage(argv[0]);
            config.chunkBytes = static_cast<std::size_t>(bytes);
        } else if (arg == "--drop") {
            const char *value = next();
            double drop = 0.0;
            if (!value || !parseDouble(value, drop) ||
                !std::isfinite(drop) || drop < 0.0 || drop > 1.0) {
                std::fprintf(stderr,
                             "%s: --drop wants a probability in [0, 1], "
                             "got '%s'\n",
                             argv[0], value ? value : "");
                return usage(argv[0]);
            }
            config.dropProbability = drop;
        } else if (arg == "--quiet-host") {
            config.quietHost = true;
        } else if (arg == "--no-bus-multicast") {
            config.busMulticast = false;
        } else if (arg == "--histogram") {
            histogram = true;
        } else if (arg == "--metrics") {
            printMetrics = true;
        } else if (arg == "--metrics-format" ||
                   arg.rfind("--metrics-format=", 0) == 0) {
            std::string value;
            if (arg == "--metrics-format") {
                const char *v = next();
                if (!v)
                    return usage(argv[0]);
                value = v;
            } else {
                value = arg.substr(std::strlen("--metrics-format="));
            }
            if (value != "table" && value != "json")
                return usage(argv[0]);
            metricsFormat = value;
            printMetrics = true;
        } else if (arg == "--metrics-out") {
            const char *value = next();
            if (!value)
                return usage(argv[0]);
            metricsOut = value;
        } else if (arg == "--trace-out") {
            const char *value = next();
            if (!value)
                return usage(argv[0]);
            traceOut = value;
        } else if (arg == "--spans-out") {
            const char *value = next();
            if (!value)
                return usage(argv[0]);
            spansOut = value;
        } else if (arg == "--introspect-out") {
            const char *value = next();
            if (!value)
                return usage(argv[0]);
            introspectOut = value;
        } else if (arg == "--flight-out") {
            const char *value = next();
            if (!value)
                return usage(argv[0]);
            flightOut = value;
        } else if (arg == "--flight-interval-ms") {
            if (!nextU64(flightIntervalMs, 1,
                         sim::maxCount(sim::kMillisecond)))
                return usage(argv[0]);
        } else if (arg == "--profile-out") {
            const char *value = next();
            if (!value)
                return usage(argv[0]);
            profileOut = value;
        } else if (arg == "--profile-interval-ms") {
            if (!nextU64(profileIntervalMs, 1,
                         sim::maxCount(sim::kMillisecond)))
                return usage(argv[0]);
        } else if (arg == "--slo") {
            const char *value = next();
            if (!value)
                return usage(argv[0]);
            sloPath = value;
        } else if (arg == "--slo-strict") {
            sloStrict = true;
        } else if (arg == "--chaos" || arg.rfind("--chaos=", 0) == 0) {
            std::string value;
            if (arg == "--chaos") {
                const char *v = next();
                if (!v)
                    return usage(argv[0]);
                value = v;
            } else {
                value = arg.substr(std::strlen("--chaos="));
            }
            auto spec = chaos::parseChaosSpec(value);
            if (!spec) {
                std::fprintf(stderr, "%s: bad --chaos spec: %s\n",
                             argv[0],
                             spec.error().describe().c_str());
                return usage(argv[0]);
            }
            chaos::ChaosEngine::instance().configure(spec.value());
        } else {
            return usage(argv[0]);
        }
    }

    // Asking for flight output implies a sensible default cadence;
    // SLO rules are evaluated on the flight cadence, so --slo does too.
    if ((!flightOut.empty() || !sloPath.empty()) && flightIntervalMs == 0)
        flightIntervalMs = 1000;
    config.flightInterval = sim::milliseconds(flightIntervalMs);

    // Asking for profile output implies a default sampling cadence.
    if (!profileOut.empty() && profileIntervalMs == 0)
        profileIntervalMs = 100;
    config.profileInterval = sim::milliseconds(profileIntervalMs);
    if (!profileOut.empty())
        obs::Profiler::instance().enable(
            sim::milliseconds(profileIntervalMs));

    if (!sloPath.empty()) {
        std::ifstream spec(sloPath);
        if (!spec) {
            std::fprintf(stderr, "hydra_sim: cannot read SLO spec %s\n",
                         sloPath.c_str());
            return 2;
        }
        std::string text((std::istreambuf_iterator<char>(spec)),
                         std::istreambuf_iterator<char>());
        Status loaded = obs::SloEngine::instance().loadSpec(text);
        if (!loaded) {
            std::fprintf(stderr, "hydra_sim: bad SLO spec %s: %s\n",
                         sloPath.c_str(),
                         loaded.error().describe().c_str());
            return 2;
        }
    }

    if (!traceOut.empty() || !spansOut.empty()) {
        obs::Tracer::instance().enable();
#if !HYDRA_OBS_TRACING
        std::fprintf(stderr,
                     "hydra_sim: warning: built with HYDRA_TRACING=OFF; "
                     "trace output will contain no events\n");
#endif
    }

    std::printf("hydra_sim: server=%s client=%s"
                " duration=%.0fs seed=%llu"
                " period=%.1fms chunk=%zuB drop=%.3f\n",
                std::string(serverKindName(config.server)).c_str(),
                std::string(clientKindName(config.client)).c_str(),
                sim::toSeconds(config.duration),
                static_cast<unsigned long long>(config.seed),
                sim::toMilliseconds(config.sendPeriod), config.chunkBytes,
                config.dropProbability);

    Testbed testbed(config);
    const ScenarioResult result = testbed.run();

    std::printf("\nscenario %s %s\n", result.scenarioName.c_str(),
                result.deploymentOk ? "(deployment ok)"
                                    : "(DEPLOYMENT FAILED)");
    std::printf("\ndelivery:\n");
    std::printf("  chunks sent:        %llu\n",
                static_cast<unsigned long long>(result.chunksSent));
    std::printf("  packets received:   %llu\n",
                static_cast<unsigned long long>(result.packetsReceived));
    std::printf("  frames displayed:   %llu\n",
                static_cast<unsigned long long>(result.framesDisplayed));
    std::printf("  network drops:      %llu\n",
                static_cast<unsigned long long>(result.networkDrops));
    std::printf("  bus crossings:      server=%llu client=%llu\n",
                static_cast<unsigned long long>(result.serverBusCrossings),
                static_cast<unsigned long long>(
                    result.clientBusCrossings));

    std::printf("\nmeasurements:\n");
    printSamples("inter-arrival", result.interarrivalMs, "ms");
    printSamples("server CPU", result.serverCpuPct, "%");
    printSamples("client CPU", result.clientCpuPct, "%");
    printSamples("server L2 miss rate", result.serverL2MissRate, "");
    printSamples("client L2 miss rate", result.clientL2MissRate, "");

    printLatencyReport();
    printCpuReport();

    if (chaos::ChaosEngine::instance().enabled()) {
        const auto &registry = obs::MetricsRegistry::instance();
        std::printf("\nchaos:\n");
        std::printf("  faults injected:    %llu\n",
                    static_cast<unsigned long long>(
                        chaos::ChaosEngine::instance().injected()));
        std::printf("  recoveries:         %llu\n",
                    static_cast<unsigned long long>(
                        registry.counterTotal("chaos.recoveries")));
        std::printf("  offcode restarts:   %llu\n",
                    static_cast<unsigned long long>(
                        registry.counterTotal("offcode.restarts")));
        std::printf("  device resets:      %llu\n",
                    static_cast<unsigned long long>(
                        registry.counterTotal("dev.resets")));
    }

    if (obs::SloEngine::instance().hasRules())
        std::printf("\nSLO report:\n%s",
                    obs::SloEngine::instance().report().c_str());

    if (histogram && !result.interarrivalMs.empty()) {
        const double lo = result.interarrivalMs.min();
        const double hi = result.interarrivalMs.max() + 1e-9;
        Histogram h(lo, hi, 20);
        for (double v : result.interarrivalMs.samples())
            h.add(v);
        std::printf("\ninter-arrival histogram (ms):\n%s",
                    h.render(50).c_str());
    }

    if (printMetrics) {
        if (metricsFormat == "json")
            std::printf("\n%s\n",
                        obs::MetricsRegistry::instance().toJson().c_str());
        else
            std::printf(
                "\nmetrics:\n%s",
                obs::MetricsRegistry::instance().prettyTable().c_str());
    }
    if (!metricsOut.empty()) {
        std::ofstream out(metricsOut);
        if (!out) {
            std::fprintf(stderr, "hydra_sim: cannot write %s\n",
                         metricsOut.c_str());
            return 1;
        }
        out << obs::MetricsRegistry::instance().toJson() << '\n';
        std::printf("\n(wrote metrics to %s)\n", metricsOut.c_str());
    }
    if (!traceOut.empty() || !spansOut.empty()) {
        const std::uint64_t overwritten =
            obs::Tracer::instance().eventsOverwritten();
        if (overwritten > 0)
            std::fprintf(
                stderr,
                "hydra_sim: warning: trace ring overflowed; the oldest "
                "%llu events were dropped (obs.trace.dropped_events)\n",
                static_cast<unsigned long long>(overwritten));
    }
    if (!traceOut.empty()) {
        if (!obs::Tracer::instance().writeFile(traceOut)) {
            std::fprintf(stderr, "hydra_sim: cannot write %s\n",
                         traceOut.c_str());
            return 1;
        }
        std::printf("(wrote trace to %s — load it at ui.perfetto.dev)\n",
                    traceOut.c_str());
    }
    if (!spansOut.empty()) {
        if (!obs::Tracer::instance().writeSpansFile(spansOut)) {
            std::fprintf(stderr, "hydra_sim: cannot write %s\n",
                         spansOut.c_str());
            return 1;
        }
        std::printf("(wrote span listing to %s)\n", spansOut.c_str());
    }
    if (!flightOut.empty()) {
        std::ofstream out(flightOut);
        if (!out) {
            std::fprintf(stderr, "hydra_sim: cannot write %s\n",
                         flightOut.c_str());
            return 1;
        }
        out << obs::FlightRecorder::instance().toJson() << '\n';
        std::printf("(wrote flight recording to %s — view with "
                    "hydra_top %s)\n",
                    flightOut.c_str(), flightOut.c_str());
    }
    if (!profileOut.empty()) {
        std::ofstream out(profileOut);
        if (!out) {
            std::fprintf(stderr, "hydra_sim: cannot write %s\n",
                         profileOut.c_str());
            return 1;
        }
        out << obs::Profiler::instance().foldedStacks();
        std::printf("(wrote %llu profile samples to %s — folded-stack "
                    "format, flamegraph-ready)\n",
                    static_cast<unsigned long long>(
                        obs::Profiler::instance().samplesTaken()),
                    profileOut.c_str());
    }
    if (!introspectOut.empty()) {
        std::ofstream out(introspectOut);
        if (!out) {
            std::fprintf(stderr, "hydra_sim: cannot write %s\n",
                         introspectOut.c_str());
            return 1;
        }
        out << "{\"server\":"
            << queryIntrospection(testbed, testbed.serverRuntime())
            << ",\"client\":"
            << queryIntrospection(testbed, testbed.clientRuntime())
            << "}\n";
        std::printf("(wrote introspection to %s — view with "
                    "hydra_top %s)\n",
                    introspectOut.c_str(), introspectOut.c_str());
    }
    if (!result.deploymentOk)
        return 1;
    if (sloStrict &&
        obs::SloEngine::instance().violationsTotal() > 0) {
        std::fprintf(stderr,
                     "hydra_sim: %llu SLO violation(s) with "
                     "--slo-strict\n",
                     static_cast<unsigned long long>(
                         obs::SloEngine::instance().violationsTotal()));
        return 3;
    }
    return 0;
}
