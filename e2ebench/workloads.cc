#include "workloads.hh"

#include <algorithm>
#include <memory>
#include <optional>
#include <vector>

#include "checks.hh"
#include "common/payload.hh"
#include "exec/executor.hh"
#include "fleet/fleet.hh"
#include "obs/attribution.hh"
#include "obs/metrics.hh"
#include "openloop.hh"
#include "spans.hh"
#include "tivo/harness.hh"

namespace hydra::e2e {

namespace {

// --- TiVo: the ROADMAP canonical run length ---
constexpr sim::SimTime kTivoWarmup = sim::seconds(5);
constexpr sim::SimTime kTivoWindow = sim::seconds(60);
/** Virtual period of the probe that cuts Testbed::run into slices. */
constexpr sim::SimTime kTivoSlice = sim::seconds(1);
constexpr int kTivoSetups = 5;

// --- Fleet open loop ---
constexpr std::size_t kFleetHosts = 4;
constexpr std::size_t kFleetStreams = 50'000;
/**
 * Base offered rate. Zipf traffic loads the hosts unevenly (see
 * kZipfExponent), which puts the knee near 1.4M msg/s rather than the
 * ~1.8M of a uniform spread.
 */
constexpr std::uint64_t kBaseRate = 1'000'000;
constexpr sim::SimTime kBaseWindow = sim::milliseconds(100);
/**
 * Capacity ladder: fine steps around that knee, then steps well above
 * it that fail today. Every step runs (a failing step does not end the
 * ladder) so each seed simulates the same work.
 */
constexpr std::uint64_t kLadder[] = {1'200'000, 1'300'000, 1'350'000,
                                     1'400'000, 1'450'000, 1'500'000,
                                     1'600'000, 1'800'000, 2'000'000};
constexpr sim::SimTime kLadderWindow = sim::milliseconds(50);
/**
 * Should the top step pass, the ladder climbs by this much until a
 * step fails, so a capacity gain reads as a gain and not as the top
 * step. Past the ceiling the capacity is unresolved: the run fails.
 */
constexpr std::uint64_t kLadderExtension = 200'000;
constexpr std::uint64_t kLadderCeiling = 4'000'000;
/** Virtual span the fleet's idle leg simulates. */
constexpr sim::SimTime kFleetIdleSpan = sim::milliseconds(500);

/** Common per-layer counters every workload reports. */
void
readCommonLayers(Record &rec)
{
    auto &registry = obs::MetricsRegistry::instance();
    const PayloadPoolStats pool = payloadPoolStats();
    rec.layers["payload.allocations"] = static_cast<double>(pool.allocations);
    rec.layers["payload.pool_hits"] = static_cast<double>(pool.poolHits);
    rec.layers["payload.deep_copies"] = static_cast<double>(pool.deepCopies);
    const double takes = static_cast<double>(pool.allocations + pool.poolHits);
    rec.layers["payload.hit_ratio"] =
        takes > 0 ? static_cast<double>(pool.poolHits) / takes : 0.0;

    rec.layers["core.payload_copies.wire"] = static_cast<double>(
        registry.counterValue("channel.payload_copies", {{"buffering", "wire"}}));
    rec.layers["core.payload_copies.zero-copy"] =
        static_cast<double>(registry.counterValue(
            "channel.payload_copies", {{"buffering", "zero-copy"}}));
    rec.layers["exec.timer_events"] =
        static_cast<double>(registry.counterTotal("sim.events_scheduled"));

    const SeriesRollup dma = rollupHistogram("dma.transfer_ns");
    rec.layers["dev.dma_transfers"] = static_cast<double>(dma.count);
    rec.layers["dev.dma_p99_ns"] = dma.maxP99;
    const SeriesRollup flight = rollupHistogram("net.flight_ns");
    rec.layers["net.flight_p99_ns"] = flight.maxP99;
    const SeriesRollup delivery =
        rollupHistogram("channel.delivery_latency_ns");
    rec.layers["core.delivery_latency_p99_ns"] = delivery.maxP99;
    const SeriesRollup service = rollupHistogram("offcode.service_ns");
    rec.layers["core.offcode_service_p99_ns"] = service.maxP99;
    for (const SeriesRollup *r : {&dma, &delivery, &service})
        for (const auto &[key, p99] : r->p99ByKey)
            rec.breakdown["p99_ns:" + key] = p99;

    const BusySplit busy = readBusy();
    rec.layers["hw.host_busy_ns"] = static_cast<double>(busy.hostNs);
    rec.layers["dev.fw_busy_ns"] = static_cast<double>(busy.deviceNs);
    for (const auto &[site, ns] : busy.perDevice)
        rec.breakdown["fw_busy_ns:" + site] = static_cast<double>(ns);
    for (const auto &[site, ns] : busy.perHost)
        rec.breakdown["host_busy_ns:" + site] = static_cast<double>(ns);
    rec.layers["obs.series"] = static_cast<double>(registrySeries());
}

void
addMachineLayers(Record &rec, const std::vector<hw::Machine *> &machines)
{
    double accesses = 0, misses = 0, crossings = 0, bytes = 0, stall = 0;
    for (hw::Machine *m : machines) {
        accesses += static_cast<double>(m->l2().totals().accesses);
        misses += static_cast<double>(m->l2().totals().misses);
        const hw::BusStats bus = m->bus().stats();
        crossings += static_cast<double>(bus.transactions);
        bytes += static_cast<double>(bus.bytesMoved);
        stall += static_cast<double>(bus.stallTime);
    }
    rec.layers["hw.l2_line_accesses"] = accesses;
    rec.layers["hw.l2_misses"] = misses;
    rec.layers["hw.bus_crossings"] = crossings;
    rec.layers["hw.bus_bytes"] = bytes;
    rec.layers["hw.bus_stall_ns"] = stall;
}

void
addSliceLayers(Record &rec, const SampleSet &sliceWallS,
               std::uint64_t events, double runWallS)
{
    rec.layers["exec.slices"] = static_cast<double>(sliceWallS.count());
    rec.layers["exec.slice_wall_ms.p50"] = sliceWallS.median() * 1e3;
    rec.layers["exec.slice_wall_ms.max"] = sliceWallS.max() * 1e3;
    rec.layers["sim.events"] = static_cast<double>(events);
    rec.layers["sim.wall_ns_per_event"] =
        events ? runWallS * 1e9 / static_cast<double>(events) : 0.0;
}

/** Span-derived wall figures (traced repetitions only). */
void
addSpanLayers(Record &rec, const Spans &spans)
{
    const auto totals = spans.totals();
    auto p = [&](SpanName name, double pct, double scale) {
        auto it = totals.find(name);
        return it == totals.end()
                   ? 0.0
                   : it->second.durationsNs.percentile(pct) * scale;
    };
    rec.layers["core.create_channel_us.p50"] = p(SpanName::CreateChannel, 50, 1e-3);
    rec.layers["core.create_channel_us.p99"] = p(SpanName::CreateChannel, 99, 1e-3);
    rec.layers["core.write_ns.p50"] = p(SpanName::Write, 50, 1);
    rec.layers["core.write_ns.p99"] = p(SpanName::Write, 99, 1);
    rec.layers["payload.build_ns.p50"] = p(SpanName::PayloadBuild, 50, 1);
    rec.layers["fleet.placement_ns"] = p(SpanName::Placement, 50, 1);
    for (int i = 0; i < static_cast<int>(SpanName::Count); ++i) {
        const auto name = static_cast<SpanName>(i);
        auto it = totals.find(name);
        const std::string base = std::string("self_ms.") + spanNameText(name);
        rec.layers[base] = it == totals.end() ? 0.0 : it->second.selfS * 1e3;
    }
}

/**
 * Derive the span figures once every span, teardown included, is
 * closed, then write the spans out. Writing is left outside every
 * span, so run.py leaves the repetition that writes them out of its
 * span-coverage figure.
 */
void
finishSpans(Record &rec, Spans &spans, const RunOptions &options)
{
    if (!spans.enabled())
        return;
    const auto reportStart = WallClock::now();
    addSpanLayers(rec, spans);
    const auto reportEnd = WallClock::now();
    spans.add(SpanName::Report, reportStart, reportEnd);
    rec.layers["self_ms.bench.report"] =
        std::chrono::duration<double, std::milli>(reportEnd - reportStart)
            .count();
    // run.py compares this with the process's wall time.
    rec.layers["bench.top_span_s"] = spans.topLevelS();
    if (!options.spansPath.empty())
        rec.check("bench.spans_written", spans.writeJson(options.spansPath),
                  options.spansPath);
}

// ------------------------------------------------------------------
// TiVo
// ------------------------------------------------------------------

Record
runTivo(const std::string &name, const RunOptions &options)
{
    const bool offloaded = name == "tivo_offloaded";
    Record rec;
    rec.workload = name;
    rec.leg = options.idle ? "idle" : "main";
    rec.traced = options.traced;
    Spans spans(options.traced);

    tivo::TestbedConfig config;
    config.server = options.idle ? tivo::ServerKind::None
                    : offloaded  ? tivo::ServerKind::Offloaded
                                 : tivo::ServerKind::Simple;
    config.client = options.idle ? tivo::ClientKind::None
                    : offloaded  ? tivo::ClientKind::Offloaded
                                 : tivo::ClientKind::UserSpace;
    config.warmup = kTivoWarmup;
    config.duration = kTivoWindow;
    config.seed = options.seed;

    // A testbed builds in tens of ms, so one repetition builds it
    // several times and reports the median; the last one runs.
    std::unique_ptr<tivo::Testbed> testbed;
    SampleSet setupS;
    for (int i = 0; i < kTivoSetups; ++i) {
        Spans::Scope setup(spans, SpanName::Setup);
        testbed.reset();
        const auto buildStart = WallClock::now();
        {
            Spans::Scope build(spans, SpanName::TestbedBuild);
            testbed = std::make_unique<tivo::Testbed>(config);
        }
        setupS.add(secondsSince(buildStart));
    }
    rec.setupS = setupS.median();

    // Testbed::run issues its own runUntil calls; a periodic probe
    // event (which touches no model state) cuts them into slices and
    // reads the busy counters where the measured window starts.
    exec::Executor &executor = testbed->executor();
    std::vector<WallClock::time_point> marks;
    std::optional<BusySplit> windowStart;
    const exec::TaskId probe =
        executor.schedulePeriodic(kTivoSlice, [&]() {
            marks.push_back(WallClock::now());
            if (!windowStart && executor.now() >= kTivoWarmup) {
                obs::CpuAttribution::instance().sync(executor.now());
                windowStart = readBusy();
            }
            return true;
        });

    const auto runStart = WallClock::now();
    tivo::ScenarioResult result;
    SampleSet sliceWallS;
    {
        Spans::Scope run(spans, SpanName::Run);
        result = testbed->run();
        marks.push_back(WallClock::now());
        auto from = runStart;
        for (const auto &mark : marks) {
            spans.add(SpanName::Slice, from, mark);
            sliceWallS.add(std::chrono::duration<double>(mark - from).count());
            from = mark;
        }
    }
    executor.cancel(probe);
    const double simulateS = secondsSince(runStart);
    const auto exportStart = WallClock::now();
    {
        Spans::Scope exportSpan(spans, SpanName::Export);
        const std::string json = obs::MetricsRegistry::instance().toJson();
    }
    rec.layers["obs.export_ms"] = secondsSince(exportStart) * 1e3;
    rec.runWallS = secondsSince(runStart);

    const std::uint64_t events = executor.eventsDispatched();
    addSliceLayers(rec, sliceWallS, events, simulateS);
    addMachineLayers(rec, {&testbed->serverMachine(), &testbed->clientMachine()});
    readCommonLayers(rec);
    const net::NetworkStats net = testbed->network().stats();
    rec.layers["net.packets"] = static_cast<double>(net.packetsDelivered);
    rec.layers["net.drops"] = static_cast<double>(net.packetsDropped);

    const double serverCpu = result.serverCpuPct.median();
    const double clientCpu = result.clientCpuPct.median();
    rec.layers["tivo.testbed_build_ms"] = rec.setupS * 1e3;
    rec.layers["tivo.frames_displayed"] =
        static_cast<double>(result.framesDisplayed);
    rec.layers["tivo.underruns"] = static_cast<double>(
        obs::MetricsRegistry::instance().counterTotal("tivo.server.underruns"));
    rec.layers["tivo.server_cpu_pct"] = serverCpu;
    rec.layers["tivo.client_cpu_pct"] = clientCpu;
    rec.layers["tivo.server_l2_miss_pct"] =
        result.serverL2MissRate.median() * 100.0;
    rec.layers["tivo.interarrival_p50_ms"] = result.interarrivalMs.median();
    // Host and device busy ns inside the measured window, and the
    // packets that arrived in it. run.py subtracts the idle leg's
    // window busy to get cpu_ns_per_msg.
    const BusySplit windowEnd = readBusy();
    rec.layers["tivo.window_busy_ns"] =
        windowStart ? static_cast<double>(windowEnd.hostNs + windowEnd.deviceNs -
                                          windowStart->hostNs -
                                          windowStart->deviceNs)
                    : 0.0;
    const double windowPackets =
        static_cast<double>(result.interarrivalMs.count() + 1);
    rec.layers["tivo.window_packets"] = windowPackets;

    const std::vector<std::uint64_t> counts = {
        result.chunksSent,         result.packetsReceived,
        result.framesDisplayed,    result.serverBusCrossings,
        result.clientBusCrossings, result.networkDrops,
        events};
    rec.digest = virtualDigest(
        {&result.interarrivalMs.samples(), &result.serverCpuPct.samples(),
         &result.clientCpuPct.samples(), &result.serverL2MissRate.samples(),
         &result.clientL2MissRate.samples()},
        counts);

    rec.peakRssMb = peakRssMb();
    {
        Spans::Scope teardown(spans, SpanName::Teardown);
        testbed.reset();
    }
    finishSpans(rec, spans, options);

    if (options.idle) {
        rec.check("tivo.idle_nothing_sent", result.chunksSent == 0);
        rec.attempted = 1;
        return rec;
    }

    rec.virt["latency_p999_us"] =
        result.interarrivalMs.percentile(99.9) * 1e3;
    rec.virt["jitter_std_us"] = result.interarrivalMs.stddev() * 1e3;
    rec.virt["host_cpu_pct"] = (serverCpu + clientCpu) / 2.0;
    // Arrivals inside the measured window per virtual second. The
    // inter-arrival band check below pins it within about 2%.
    rec.virt["throughput_msgs_per_vs"] =
        windowPackets / sim::toSeconds(kTivoWindow);

    TivoOutcome outcome;
    outcome.deploymentOk = result.deploymentOk;
    outcome.chunksSent = result.chunksSent;
    outcome.packetsReceived = result.packetsReceived;
    outcome.framesDisplayed = result.framesDisplayed;
    outcome.interarrivalMedianMs = result.interarrivalMs.median();
    outcome.serverCpuMedianPct = serverCpu;
    checkTivo(outcome, offloaded ? kOffloadedBand : kSimpleServerBand, rec);

    rec.attempted = result.chunksSent;
    rec.failed = result.chunksSent -
                 std::min(result.chunksSent, result.packetsReceived);
    return rec;
}

// ------------------------------------------------------------------
// Fleet open loop
// ------------------------------------------------------------------

bool
stepPasses(const StepResult &step)
{
    return step.delivered == step.offered &&
           static_cast<double>(step.withinLimit) >=
               0.999 * static_cast<double>(step.offered);
}

/**
 * Highest offered rate meeting the p99.9 limit: linear interpolation
 * of p99.9 between the last passing step and the first failing one
 * (a failing step's p99.9 counts as at least the limit). Interpolating
 * keeps the figure continuous in the seed instead of jumping a whole
 * ladder step. Should the base step fail, the lower point is rate 0
 * at latency 0. Should no step fail, the top rate is returned and the
 * fleet.capacity_resolved check fails the run.
 */
double
capacity(const StepResult &base, const std::vector<StepResult> &ladder)
{
    std::vector<const StepResult *> steps = {&base};
    for (const StepResult &step : ladder)
        steps.push_back(&step);
    double passRate = 0.0;
    double passP999 = 0.0;
    for (const StepResult *step : steps) {
        const double rate = static_cast<double>(step->ratePerSec);
        const double p999 = step->latencyNs.percentile(99.9);
        if (stepPasses(*step)) {
            passRate = rate;
            passP999 = p999;
            continue;
        }
        const double limit = static_cast<double>(kLatencyLimit);
        const double hi = std::max(p999, limit);
        const double frac = hi > passP999 ? (limit - passP999) / (hi - passP999)
                                          : 0.0;
        return passRate + std::clamp(frac, 0.0, 1.0) * (rate - passRate);
    }
    return passRate;
}

Record
runFleet(const std::string &name, const RunOptions &options)
{
    Record rec;
    rec.workload = name;
    rec.leg = options.idle ? "idle" : "main";
    rec.traced = options.traced;
    Spans spans(options.traced);
    const auto repStart = WallClock::now();

    std::unique_ptr<exec::Executor> executor = exec::makeExecutor(exec::ExecutorKind::Sim);
    fleet::FleetConfig config;
    config.hosts = kFleetHosts;
    config.seed = options.seed;
    config.quietHosts = true;
    config.backgroundLoad = false;

    OpenLoopConfig loopConfig;
    loopConfig.streams = options.idle ? 0 : kFleetStreams;
    loopConfig.seed = options.seed;

    std::unique_ptr<fleet::Fleet> fleet;
    std::unique_ptr<OpenLoop> loop;
    std::string error;
    bool registered = false;
    {
        Spans::Scope setup(spans, SpanName::Setup);
        {
            Spans::Scope build(spans, SpanName::FleetBuild);
            fleet = std::make_unique<fleet::Fleet>(*executor, config);
        }
        loop = std::make_unique<OpenLoop>(*fleet, loopConfig, spans);
        registered = loop->registerStreams(error);
    }
    rec.setupS = secondsSince(repStart);
    rec.check("fleet.setup", registered, error);
    if (!registered)
        return rec;

    auto &registry = obs::MetricsRegistry::instance();
    const std::uint64_t wireBase = registry.counterValue(
        "channel.payload_copies", {{"buffering", "wire"}});
    const std::uint64_t zeroBase = registry.counterValue(
        "channel.payload_copies", {{"buffering", "zero-copy"}});

    const auto runStart = WallClock::now();
    StepResult base;
    std::vector<StepResult> ladder;
    SampleSet sliceWallS;
    {
        Spans::Scope run(spans, SpanName::Run);
        if (options.idle) {
            const auto wallStart = WallClock::now();
            {
                Spans::Scope slice(spans, SpanName::Slice);
                executor->runUntil(executor->now() + kFleetIdleSpan);
            }
            sliceWallS.add(secondsSince(wallStart));
        } else {
            base = loop->runStep(kBaseRate, kBaseWindow, true);
            for (std::uint64_t rate : kLadder)
                ladder.push_back(loop->runStep(rate, kLadderWindow, false));
            while (stepPasses(ladder.back()) &&
                   ladder.back().ratePerSec < kLadderCeiling)
                ladder.push_back(loop->runStep(
                    ladder.back().ratePerSec + kLadderExtension,
                    kLadderWindow, false));
        }
    }
    const double simulateS = secondsSince(runStart);
    const auto exportStart = WallClock::now();
    {
        Spans::Scope exportSpan(spans, SpanName::Export);
        const std::string json = registry.toJson();
    }
    rec.layers["obs.export_ms"] = secondsSince(exportStart) * 1e3;
    rec.runWallS = secondsSince(runStart);

    for (double s : base.sliceWallS)
        sliceWallS.add(s);
    for (const StepResult &step : ladder)
        for (double s : step.sliceWallS)
            sliceWallS.add(s);

    const std::uint64_t events = executor->eventsDispatched();
    std::vector<hw::Machine *> machines;
    std::uint64_t orphans = 0;
    for (std::size_t h = 0; h < fleet->hostCount(); ++h) {
        machines.push_back(&fleet->host(h).machine());
        orphans += fleet->host(h).orphanFrames();
    }
    addSliceLayers(rec, sliceWallS, events, simulateS);
    addMachineLayers(rec, machines);
    readCommonLayers(rec);
    const net::NetworkStats net = fleet->network().stats();
    rec.layers["net.packets"] = static_cast<double>(net.packetsDelivered);
    rec.layers["net.drops"] = static_cast<double>(net.packetsDropped);
    rec.layers["fleet.streams_registered"] =
        static_cast<double>(loop->registered());
    rec.layers["fleet.remote_streams"] =
        static_cast<double>(loop->remoteStreams());
    rec.layers["fleet.orphan_frames"] = static_cast<double>(orphans);
    rec.layers["fleet.seq_gaps"] = static_cast<double>(loop->seqGaps());
    const std::uint64_t crossHost = loop->crossHostDeliveries();
    const std::uint64_t seqGaps = loop->seqGaps();
    const std::uint64_t badFrames = loop->badFrames();
    const std::uint64_t wireCopies =
        registry.counterValue("channel.payload_copies", {{"buffering", "wire"}}) -
        wireBase;
    const std::uint64_t zeroCopyCopies =
        registry.counterValue("channel.payload_copies",
                              {{"buffering", "zero-copy"}}) -
        zeroBase;
    if (options.idle)
        rec.digest = virtualDigest({}, {events});

    rec.peakRssMb = peakRssMb();
    {
        Spans::Scope teardown(spans, SpanName::Teardown);
        loop.reset();
        fleet.reset();
        executor.reset();
    }
    finishSpans(rec, spans, options);

    if (options.idle) {
        rec.attempted = 1;
        return rec;
    }

    const auto [minIt, maxIt] = std::minmax_element(
        base.deliveredPerHost.begin(), base.deliveredPerHost.end());
    rec.layers["fleet.streams_active"] =
        static_cast<double>(base.activeStreams);
    rec.layers["fleet.host_skew"] =
        *minIt ? static_cast<double>(*maxIt) / static_cast<double>(*minIt)
               : 0.0;
    rec.layers["fleet.generator_late_ns.max"] =
        static_cast<double>(base.maxLateNs);
    rec.layers["fleet.delivery_p50_us"] = base.latencyNs.median() / 1e3;
    rec.layers["fleet.ladder_steps_passed"] = static_cast<double>(
        std::count_if(ladder.begin(), ladder.end(), stepPasses));
    for (std::size_t h = 0; h < base.deliveredPerHost.size(); ++h)
        rec.breakdown["delivered:host" + std::to_string(h)] =
            static_cast<double>(base.deliveredPerHost[h]);
    for (const StepResult &step : ladder)
        rec.breakdown["ladder_p999_us:" + std::to_string(step.ratePerSec)] =
            step.latencyNs.percentile(99.9) / 1e3;

    const double delivered = static_cast<double>(base.delivered);
    rec.virt["latency_p999_us"] = base.latencyNs.percentile(99.9) / 1e3;
    rec.virt["jitter_std_us"] = base.latencyNs.stddev() / 1e3;
    rec.virt["host_cpu_pct"] =
        100.0 * static_cast<double>(base.hostBusyNs) /
        (static_cast<double>(kFleetHosts) * static_cast<double>(base.elapsed));
    rec.virt["cpu_ns_per_msg"] =
        delivered > 0 ? static_cast<double>(base.hostBusyNs +
                                            base.deviceBusyNs) /
                            delivered
                      : 0.0;
    rec.virt["throughput_msgs_per_vs"] = capacity(base, ladder);

    std::vector<const std::vector<double> *> samples = {
        &base.latencyNs.samples()};
    std::vector<std::uint64_t> counts = {base.offered, base.delivered,
                                         base.activeStreams, events};
    for (const StepResult &step : ladder) {
        samples.push_back(&step.latencyNs.samples());
        counts.push_back(step.delivered);
    }
    rec.digest = virtualDigest(samples, counts);

    FleetOutcome outcome;
    outcome.wireCopies = wireCopies;
    outcome.zeroCopyCopies = zeroCopyCopies;
    outcome.crossHostDeliveries = crossHost;
    outcome.seqGaps = seqGaps;
    outcome.orphanFrames = orphans;
    outcome.badFrames = badFrames;
    outcome.writeFailures = base.writeFailures;
    outcome.baseOffered = base.offered;
    outcome.baseDelivered = base.delivered;
    outcome.capacityResolved = !stepPasses(ladder.back());
    checkFleet(outcome, rec);

    rec.attempted = base.offered;
    rec.failed = base.offered - std::min(base.offered, base.delivered) +
                 base.writeFailures;
    return rec;
}

} // namespace

bool
knownWorkload(const std::string &name)
{
    return name == "tivo_offloaded" || name == "tivo_copy" ||
           name == "fleet_open_loop";
}

Record
runWorkload(const std::string &name, const RunOptions &options)
{
    if (name == "fleet_open_loop")
        return runFleet(name, options);
    return runTivo(name, options);
}

} // namespace hydra::e2e
