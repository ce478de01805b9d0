/**
 * @file
 * hydra_fleet — command-line driver for multi-host scale runs
 * (DESIGN.md §14).
 *
 * Builds an N-host fleet on one shared fabric, drives it with the
 * open-loop load generator, and prints the measurement set a capacity
 * study needs: offered vs delivered, end-to-end delivery latency
 * percentiles (p50/p99/p999), payload-copy accounting, and per-host
 * CPU (host CPU + NIC firmware busy time over the window).
 *
 * Usage:
 *   hydra_fleet [--hosts N] [--streams N] [--rate MSGS_PER_SEC]
 *               [--bytes N] [--duration-ms N] [--tick-us N]
 *               [--churn N] [--remote-only] [--seed N]
 *               [--background-load] [--json]
 *               [--metrics] [--metrics-out FILE]
 *               [--chaos SEED[:spec]]
 *
 * --chaos arms the deterministic fault injector (same grammar as
 * hydra_sim). Scheduled resets match fleet NICs by name ("host0-nic",
 * "host1-nic", ...).
 *
 * Numeric flags are parsed strictly (parseU64): a sign, fraction,
 * suffix, overflow or out-of-range value is a usage error (exit 2).
 */

#include <cstdio>
#include <fstream>
#include <limits>
#include <string>

#include "chaos/chaos.hh"
#include "common/strings.hh"
#include "exec/executor.hh"
#include "fleet/fleet.hh"
#include "fleet/loadgen.hh"
#include "obs/metrics.hh"

using namespace hydra;

namespace {

int
usage(const char *argv0)
{
    std::fprintf(
        stderr,
        "usage: %s [--hosts N] [--streams N] [--rate MSGS_PER_SEC]\n"
        "          [--bytes N] [--duration-ms N] [--tick-us N]\n"
        "          [--churn N] [--remote-only] [--seed N]\n"
        "          [--background-load] [--json]\n"
        "          [--metrics] [--metrics-out FILE]\n"
        "          [--chaos SEED[:drop=P,dup=P,corrupt=P,slow=P,"
        "stall=P,poolfail=P,ringfull=P,reset@MS=dev[/ms]]]\n",
        argv0);
    return 2;
}

void
printTable(const fleet::LoadgenReport &report)
{
    std::printf("fleet: %zu hosts, %zu streams (%zu remote, %zu local)\n",
                report.hosts, report.streams, report.remoteStreams,
                report.localStreams);
    std::printf(
        "load:  offered %llu, delivered %llu (%.1f%%), churned %llu, "
        "write failures %llu\n",
        static_cast<unsigned long long>(report.offered),
        static_cast<unsigned long long>(report.delivered),
        report.offered
            ? 100.0 * static_cast<double>(report.delivered) /
                  static_cast<double>(report.offered)
            : 0.0,
        static_cast<unsigned long long>(report.churned),
        static_cast<unsigned long long>(report.writeFailures));
    std::printf(
        "rate:  %.0f msgs/virtual-sec over %.1f ms window "
        "(simulated in %.1f ms wall)\n",
        report.deliveredPerVirtualSec,
        static_cast<double>(report.elapsed) / 1e6, report.wallMs);
    std::printf("copies: wire %llu (one per cross-host message), "
                "zero-copy-path copies %llu (0 = no hidden copies)\n",
                static_cast<unsigned long long>(report.wireCopies),
                static_cast<unsigned long long>(report.zeroCopies));
    std::printf("latency (write -> handler, us): p50 %.1f  p99 %.1f  "
                "p999 %.1f  max %.1f  [n=%llu]\n",
                report.latency.p50 / 1e3, report.latency.p99 / 1e3,
                report.latency.p999 / 1e3,
                static_cast<double>(report.latency.max) / 1e3,
                static_cast<unsigned long long>(report.latency.count));
    std::printf("%-8s %10s %12s %12s %8s\n", "host", "streams",
                "delivered", "busy-ms", "cpu%");
    const double window = static_cast<double>(report.elapsed);
    for (const auto &slice : report.perHost) {
        std::printf("%-8s %10zu %12llu %12.2f %7.1f%%\n",
                    slice.host.c_str(), slice.streamsHomed,
                    static_cast<unsigned long long>(slice.delivered),
                    static_cast<double>(slice.busyNs) / 1e6,
                    window > 0.0 ? 100.0 *
                                       static_cast<double>(slice.busyNs) /
                                       window
                                 : 0.0);
    }
}

void
printJson(const fleet::LoadgenReport &report)
{
    std::printf("{\n");
    std::printf("  \"hosts\": %zu,\n", report.hosts);
    std::printf("  \"streams\": %zu,\n", report.streams);
    std::printf("  \"remote_streams\": %zu,\n", report.remoteStreams);
    std::printf("  \"offered\": %llu,\n",
                static_cast<unsigned long long>(report.offered));
    std::printf("  \"delivered\": %llu,\n",
                static_cast<unsigned long long>(report.delivered));
    std::printf("  \"churned\": %llu,\n",
                static_cast<unsigned long long>(report.churned));
    std::printf("  \"write_failures\": %llu,\n",
                static_cast<unsigned long long>(report.writeFailures));
    std::printf("  \"wire_copies\": %llu,\n",
                static_cast<unsigned long long>(report.wireCopies));
    std::printf("  \"delivered_per_virtual_sec\": %.1f,\n",
                report.deliveredPerVirtualSec);
    std::printf("  \"latency_ns\": {\"p50\": %.1f, \"p99\": %.1f, "
                "\"p999\": %.1f, \"max\": %llu, \"count\": %llu},\n",
                report.latency.p50, report.latency.p99,
                report.latency.p999,
                static_cast<unsigned long long>(report.latency.max),
                static_cast<unsigned long long>(report.latency.count));
    std::printf("  \"per_host\": [");
    for (std::size_t i = 0; i < report.perHost.size(); ++i) {
        const auto &slice = report.perHost[i];
        std::printf("%s\n    {\"host\": \"%s\", \"streams\": %zu, "
                    "\"delivered\": %llu, \"busy_ns\": %llu}",
                    i ? "," : "", slice.host.c_str(),
                    slice.streamsHomed,
                    static_cast<unsigned long long>(slice.delivered),
                    static_cast<unsigned long long>(slice.busyNs));
    }
    std::printf("\n  ]\n}\n");
}

} // namespace

int
main(int argc, char **argv)
{
    fleet::FleetConfig fleetConfig;
    fleet::LoadgenConfig load;
    bool json = false;
    bool printMetrics = false;
    std::string metricsOut;
    std::uint64_t durationMs = 100;
    std::uint64_t tickUs = 100;

    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        const char *value = i + 1 < argc ? argv[i + 1] : nullptr;
        std::uint64_t parsed = 0;
        // Strict value in [min, max]; consumes it on success.
        auto u64 = [&](std::uint64_t min,
                       std::uint64_t max =
                           std::numeric_limits<std::uint64_t>::max()) {
            if (!value || !parseU64(value, parsed, min, max))
                return false;
            ++i;
            return true;
        };
        if (arg == "--hosts" && u64(1)) {
            fleetConfig.hosts = parsed;
        } else if (arg == "--streams" && u64(1)) {
            load.streams = parsed;
        } else if (arg == "--rate" && u64(0)) {
            load.offeredMsgsPerSec = static_cast<double>(parsed);
        } else if (arg == "--bytes" && u64(8)) {
            load.messageBytes = parsed;
        } else if (arg == "--duration-ms" &&
                   u64(1, sim::maxCount(sim::kMillisecond))) {
            durationMs = parsed;
        } else if (arg == "--tick-us" &&
                   u64(1, sim::maxCount(sim::kMicrosecond))) {
            tickUs = parsed;
        } else if (arg == "--churn" && u64(0)) {
            load.churnPerTick = parsed;
        } else if (arg == "--seed" && u64(0)) {
            fleetConfig.seed = parsed;
        } else if (arg == "--remote-only") {
            load.remoteOnly = true;
        } else if (arg == "--background-load") {
            fleetConfig.backgroundLoad = true;
        } else if (arg == "--json") {
            json = true;
        } else if (arg == "--metrics") {
            printMetrics = true;
        } else if (arg == "--metrics-out" && value) {
            metricsOut = value;
            ++i;
        } else if (arg == "--chaos" && value) {
            auto spec = chaos::parseChaosSpec(value);
            if (!spec) {
                std::fprintf(stderr, "%s: bad --chaos spec: %s\n",
                             argv[0],
                             spec.error().describe().c_str());
                return usage(argv[0]);
            }
            chaos::ChaosEngine::instance().configure(spec.value());
            ++i;
        } else {
            return usage(argv[0]);
        }
    }
    load.duration = sim::milliseconds(durationMs);
    load.tick = sim::microseconds(tickUs);

    auto executor = exec::makeExecutor(exec::ExecutorKind::Sim);
    fleet::Fleet fleet(*executor, fleetConfig);

    // Chaos reset schedule: match fleet NICs by device name.
    auto &chaosEngine = chaos::ChaosEngine::instance();
    if (chaosEngine.enabled()) {
        for (const chaos::ScheduledReset &reset :
             chaosEngine.spec().resets) {
            dev::ProgrammableNic *target = nullptr;
            for (std::size_t h = 0; h < fleet.hostCount(); ++h)
                if (fleet.host(h).nic().name() == reset.device)
                    target = &fleet.host(h).nic();
            if (!target) {
                std::fprintf(stderr,
                             "hydra_fleet: chaos: no NIC named '%s'; "
                             "reset skipped\n",
                             reset.device.c_str());
                continue;
            }
            executor->scheduleAt(
                reset.at, [target, at = reset.at,
                           downtime = reset.downtime]() {
                    chaos::ChaosEngine::instance().recordFault(
                        "device_reset", at);
                    target->reset(downtime);
                });
        }
    }

    const fleet::LoadgenReport report = fleet::runOpenLoop(fleet, load);

    if (json)
        printJson(report);
    else
        printTable(report);

    if (printMetrics)
        std::printf("\n%s\n",
                    obs::MetricsRegistry::instance().toJson().c_str());
    if (!metricsOut.empty()) {
        std::ofstream out(metricsOut);
        if (!out) {
            std::fprintf(stderr, "cannot write %s\n", metricsOut.c_str());
            return 1;
        }
        out << obs::MetricsRegistry::instance().toJson() << "\n";
        if (!json)
            std::printf("(wrote metrics to %s)\n", metricsOut.c_str());
    }

    // A run that delivered nothing (or saw channel-layer failures) is
    // a broken testbed, not a measurement.
    if (report.delivered == 0 || report.writeFailures != 0) {
        std::fprintf(stderr, "hydra_fleet: run did not deliver cleanly\n");
        return 1;
    }
    return 0;
}
