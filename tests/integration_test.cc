/**
 * @file
 * Full-system integration tests on the two-machine testbed: the
 * Fig. 8 offloading layout, pixel-exact end-to-end video delivery,
 * recording to the smart disk, replay, the offload-equals-idle CPU
 * property (Tables 3/4), jitter ordering (Table 2), and the PCIe
 * multicast ablation.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <set>
#include <sstream>
#include <utility>
#include <vector>

#include "common/json.hh"
#include "core/runtime.hh"
#include "obs/metrics.hh"
#include "obs/span.hh"
#include "obs/trace.hh"
#include "tivo/harness.hh"

namespace hydra::tivo {
namespace {

TestbedConfig
quickConfig(ServerKind server, ClientKind client)
{
    TestbedConfig config;
    config.server = server;
    config.client = client;
    config.duration = sim::seconds(20);
    config.warmup = sim::seconds(2);
    config.sampleInterval = sim::seconds(2);
    config.movieFrames = 96;
    return config;
}

TEST(TestbedTest, IdleBaselineMatchesPaper)
{
    Testbed testbed(quickConfig(ServerKind::None, ClientKind::None));
    const ScenarioResult result = testbed.run();

    // Table 3/4 idle rows: 2.90 % median, 2.86 % average.
    EXPECT_NEAR(result.serverCpuPct.mean(), 2.86, 0.3);
    EXPECT_NEAR(result.clientCpuPct.mean(), 2.86, 0.3);
    EXPECT_EQ(result.serverBusCrossings, 0u);
    EXPECT_EQ(result.packetsReceived, 0u);
    EXPECT_GT(result.serverL2MissRate.mean(), 0.0);
}

TEST(TestbedTest, RunPopulatesObservabilityMetrics)
{
    // A full TiVoPC run must light up the load-bearing instruments:
    // messages crossing channels and transactions crossing the bus.
    auto &registry = obs::MetricsRegistry::instance();
    registry.reset();

    Testbed testbed(
        quickConfig(ServerKind::Offloaded, ClientKind::Offloaded));
    const ScenarioResult result = testbed.run();
    ASSERT_TRUE(result.deploymentOk);

    EXPECT_GT(registry.counterTotal("channel.messages_sent"), 0u);
    EXPECT_GT(registry.counterTotal("bus.crossings"), 0u);
    EXPECT_GT(registry.counterTotal("sim.events_dispatched"), 0u);
    EXPECT_GT(registry.counterTotal("loader.deploys"), 0u);
    EXPECT_GT(registry.counterTotal("net.packets_delivered"), 0u);

    const obs::LatencyHistogram *latency = registry.findHistogram(
        "channel.send_latency_ns", {{"transport", "dma-ring"}});
    ASSERT_NE(latency, nullptr);
    EXPECT_GT(latency->count(), 0u);
    EXPECT_GT(latency->max(), 0u);

    // The zero-copy fabric: a full offloaded run moves thousands of
    // messages yet the channel layer never deep-copies one — the
    // counter exists (registered up front) and stays at zero.
    EXPECT_EQ(registry.counterValue("channel.payload_copies",
                                    {{"buffering", "zero-copy"}}),
              0u);
    // Message buffers come from the payload pool and recycle.
    EXPECT_GT(registry.counterTotal("payload.pool_hits"), 0u);
}

TEST(TestbedTest, OffloadedLayoutMatchesFigure8)
{
    Testbed testbed(
        quickConfig(ServerKind::Offloaded, ClientKind::Offloaded));
    testbed.offloadedClient()->startWatching();
    testbed.executor().runUntil(sim::seconds(1));
    ASSERT_TRUE(testbed.offloadedClient()->deployed())
        << testbed.offloadedClient()->deploymentError();

    core::Runtime &rt = *testbed.clientRuntime();
    auto placed = [&](const char *name) {
        auto handle = rt.getOffcode(name);
        EXPECT_TRUE(handle.ok()) << name;
        return handle.ok() ? handle.value().deviceAddr()
                           : std::string("<missing>");
    };

    // Paper Fig. 8: Streamer at NIC and smart disk, Decoder and
    // Display pulled together at the GPU, File pulled to the disk,
    // GUI on the host.
    EXPECT_EQ(placed("tivo.StreamerNet"), "client-nic");
    EXPECT_EQ(placed("tivo.StreamerDisk"), "client-disk");
    EXPECT_EQ(placed("tivo.Decoder"), "client-gpu");
    EXPECT_EQ(placed("tivo.Display"), "client-gpu");
    EXPECT_EQ(placed("tivo.File"), "client-disk");
    EXPECT_EQ(placed("tivo.Gui"), "client.host");

    // "The offloading is complete": five of six components left the
    // host (Table 4's framing).
    EXPECT_EQ(rt.stats().offloadedCount, 5u);
}

TEST(TestbedTest, EndToEndVideoIsPixelExact)
{
    TestbedConfig config =
        quickConfig(ServerKind::Offloaded, ClientKind::Offloaded);
    Testbed testbed(config);

    std::uint32_t lastSeq = 0;
    bool sawFrame = false;
    testbed.clientEnv()->onFramePresented = [&](std::uint32_t seq) {
        lastSeq = seq;
        sawFrame = true;
    };

    const ScenarioResult result = testbed.run();
    ASSERT_TRUE(result.deploymentOk);
    ASSERT_TRUE(sawFrame);
    EXPECT_GT(result.framesDisplayed, 100u);
    EXPECT_EQ(result.networkDrops, 0u);

    // The frame sitting in the GPU framebuffer must be bit-identical
    // to the synthetic source frame of the same sequence number —
    // the whole NIC -> GPU pipeline is lossless.
    SyntheticVideo source(config.mpeg, config.seed);
    EXPECT_EQ(testbed.gpu().lastFrame(),
              source.frame(lastSeq).pixels);
}

TEST(TestbedTest, RecordingReachesTheSmartDisk)
{
    Testbed testbed(
        quickConfig(ServerKind::Offloaded, ClientKind::Offloaded));
    testbed.offloadedClient()->startWatching();
    testbed.server()->startStreaming();
    testbed.executor().runUntil(sim::seconds(10));

    auto *file = testbed.offloadedClient()->component<FileOffcode>(
        "tivo.File");
    ASSERT_NE(file, nullptr);
    EXPECT_GT(file->bytesStored(), 1000u);

    auto *diskStreamer =
        testbed.offloadedClient()->component<StreamerDiskOffcode>(
            "tivo.StreamerDisk");
    ASSERT_NE(diskStreamer, nullptr);
    EXPECT_GT(diskStreamer->chunksRecorded(), 100u);

    // The NFS-backed smart disk flushed whole blocks to the NAS.
    EXPECT_TRUE(testbed.nas().hasFile("smartdisk.img"));
}

TEST(TestbedTest, ReplayAfterRecordingDisplaysFrames)
{
    Testbed testbed(
        quickConfig(ServerKind::Offloaded, ClientKind::Offloaded));
    testbed.offloadedClient()->startWatching();
    testbed.server()->startStreaming();
    testbed.executor().runUntil(sim::seconds(10));

    // Stop the live stream, let the pipeline drain.
    testbed.server()->stop();
    testbed.executor().runUntil(sim::seconds(11));

    auto *display = testbed.offloadedClient()->component<DisplayOffcode>(
        "tivo.Display");
    ASSERT_NE(display, nullptr);
    const auto framesBefore = display->framesPresented();

    ASSERT_TRUE(testbed.offloadedClient()->replay().ok());
    testbed.executor().runUntil(sim::seconds(20));

    auto *diskStreamer =
        testbed.offloadedClient()->component<StreamerDiskOffcode>(
            "tivo.StreamerDisk");
    ASSERT_NE(diskStreamer, nullptr);
    EXPECT_GT(diskStreamer->chunksReplayed(), 100u);
    EXPECT_GT(display->framesPresented(), framesBefore + 50);

    // Stop-replay halts the flow.
    ASSERT_TRUE(testbed.offloadedClient()->stopReplay().ok());
    testbed.executor().runUntil(sim::seconds(21));
    const auto afterStop = diskStreamer->chunksReplayed();
    testbed.executor().runUntil(sim::seconds(23));
    EXPECT_LE(diskStreamer->chunksReplayed(), afterStop + 2);
}

TEST(TestbedTest, OffloadedServerLeavesHostIdle)
{
    Testbed idle(quickConfig(ServerKind::None, ClientKind::None));
    const double idleCpu = idle.run().serverCpuPct.mean();

    Testbed offloaded(
        quickConfig(ServerKind::Offloaded, ClientKind::Receiver));
    const ScenarioResult result = offloaded.run();
    ASSERT_TRUE(result.deploymentOk);
    EXPECT_GT(result.chunksSent, 1000u);

    // Table 3: the offloaded row equals the idle row.
    EXPECT_NEAR(result.serverCpuPct.mean(), idleCpu, 0.05);
    EXPECT_EQ(result.serverBusCrossings, 0u);
}

TEST(TestbedTest, UserSpaceServerBurnsHostCpu)
{
    Testbed simple(quickConfig(ServerKind::Simple, ClientKind::Receiver));
    const ScenarioResult result = simple.run();
    // Table 3: simple server well above idle.
    EXPECT_GT(result.serverCpuPct.mean(), 5.0);
    EXPECT_GT(result.serverBusCrossings, 1000u); // one DMA per send
}

TEST(TestbedTest, JitterOrderingAcrossServers)
{
    auto jitterOf = [](ServerKind kind) {
        Testbed testbed(quickConfig(kind, ClientKind::Receiver));
        return testbed.run().interarrivalMs;
    };

    const SampleSet simple = jitterOf(ServerKind::Simple);
    const SampleSet sendfile = jitterOf(ServerKind::Sendfile);
    const SampleSet offloaded = jitterOf(ServerKind::Offloaded);

    // Table 2 medians: ~7, ~6, ~5 ms.
    EXPECT_NEAR(simple.median(), 7.0, 0.3);
    EXPECT_NEAR(sendfile.median(), 6.0, 0.3);
    EXPECT_NEAR(offloaded.median(), 5.0, 0.1);

    // Table 2 spread: offloaded is an order of magnitude steadier.
    EXPECT_LT(offloaded.stddev(), 0.1);
    EXPECT_GT(simple.stddev(), 5.0 * offloaded.stddev());
    EXPECT_GT(sendfile.stddev(), 5.0 * offloaded.stddev());
    EXPECT_GE(simple.stddev(), sendfile.stddev() * 0.9);
}

TEST(TestbedTest, OnloadedServerTradesACoreForJitter)
{
    // Extension (paper §1.1): Piglet-style onloading. Jitter rivals
    // the offloaded server (no scheduler tick on the dedicated
    // core), but payloads still cross the bus and the I/O core is
    // fully pinned.
    Testbed testbed(
        quickConfig(ServerKind::Onloaded, ClientKind::Receiver));
    auto *onloaded = dynamic_cast<OnloadedServer *>(testbed.server());
    ASSERT_NE(onloaded, nullptr);

    const ScenarioResult result = testbed.run();
    EXPECT_GT(result.chunksSent, 1000u);
    EXPECT_NEAR(result.interarrivalMs.median(), 5.0, 0.1);
    EXPECT_LT(result.interarrivalMs.stddev(), 0.05);

    // Application core stays near idle...
    EXPECT_NEAR(result.serverCpuPct.mean(), 2.86, 0.3);
    // ...but the dedicated I/O core is burned completely...
    const double ioPct =
        static_cast<double>(onloaded->ioCpu().busyTime()) /
        static_cast<double>(testbed.executor().now());
    EXPECT_GT(ioPct, 0.95);
    // ...and unlike the offloaded server, the bus still sees every
    // packet (crossings counted over the measured window only, which
    // excludes warmup; chunksSent spans the whole run).
    EXPECT_GE(result.serverBusCrossings,
              result.chunksSent * 8 / 10);
    EXPECT_GT(result.serverBusCrossings, 1000u);
}

TEST(TestbedTest, UserSpaceClientDecodesButLoadsHost)
{
    Testbed testbed(
        quickConfig(ServerKind::Offloaded, ClientKind::UserSpace));
    const ScenarioResult result = testbed.run();
    ASSERT_TRUE(result.deploymentOk);
    EXPECT_GT(result.framesDisplayed, 100u);
    // Table 4: user-space client ~7 % vs idle ~2.9 %.
    EXPECT_GT(result.clientCpuPct.mean(), 5.0);
    // Every packet crosses the client bus at least once.
    EXPECT_GE(result.clientBusCrossings, result.packetsReceived);
}

TEST(TestbedTest, OffloadedClientMatchesIdleCpu)
{
    Testbed idle(quickConfig(ServerKind::None, ClientKind::None));
    const double idleCpu = idle.run().clientCpuPct.mean();

    Testbed offloaded(
        quickConfig(ServerKind::Offloaded, ClientKind::Offloaded));
    const ScenarioResult result = offloaded.run();
    ASSERT_TRUE(result.deploymentOk);
    EXPECT_GT(result.framesDisplayed, 100u);
    // Table 4: offloaded client == idle.
    EXPECT_NEAR(result.clientCpuPct.mean(), idleCpu, 0.05);
}

TEST(TestbedTest, BusMulticastSavesCrossings)
{
    TestbedConfig with =
        quickConfig(ServerKind::Offloaded, ClientKind::Offloaded);
    with.busMulticast = true;
    TestbedConfig without = with;
    without.busMulticast = false;

    Testbed a(with);
    const ScenarioResult withResult = a.run();
    Testbed b(without);
    const ScenarioResult withoutResult = b.run();

    ASSERT_TRUE(withResult.deploymentOk);
    ASSERT_TRUE(withoutResult.deploymentOk);
    // Fig. 2's aside: with PCIe-style multicast the NIC's fanout to
    // GPU + disk is one transaction instead of two.
    EXPECT_GT(withoutResult.clientBusCrossings,
              withResult.clientBusCrossings +
                  withResult.packetsReceived / 2);
}

TEST(TestbedTest, StreamSurvivesLossyFabric)
{
    // Unreliable delivery (UDP semantics): the decoder should keep
    // producing frames after resynchronizing on I frames.
    TestbedConfig config =
        quickConfig(ServerKind::Offloaded, ClientKind::UserSpace);
    Testbed testbed(config);
    // Inject drops by reaching into the fabric is not exposed;
    // instead verify the decoder's resync path directly through the
    // user client on a clean run plus the mpeg-level test coverage.
    const ScenarioResult result = testbed.run();
    EXPECT_EQ(result.networkDrops, 0u);
    EXPECT_GT(result.framesDisplayed, 0u);
}

TEST(TestbedTest, DeterministicForFixedSeed)
{
    TestbedConfig config =
        quickConfig(ServerKind::Simple, ClientKind::Receiver);
    config.duration = sim::seconds(10);

    Testbed a(config);
    const ScenarioResult first = a.run();
    Testbed b(config);
    const ScenarioResult second = b.run();

    ASSERT_EQ(first.interarrivalMs.count(), second.interarrivalMs.count());
    EXPECT_DOUBLE_EQ(first.interarrivalMs.mean(),
                     second.interarrivalMs.mean());
    EXPECT_DOUBLE_EQ(first.serverCpuPct.mean(),
                     second.serverCpuPct.mean());
}

#if HYDRA_OBS_TRACING
TEST(TestbedTest, TraceFlowCrossesThreeSites)
{
    // The headline acceptance test for causal tracing: one streamed
    // chunk's spans must form a single trace that crosses at least
    // three distinct execution lanes (host, NIC, disk/GPU...).
    auto &tracer = obs::Tracer::instance();
    tracer.enable(1 << 15);
    obs::resetSpanIds();

    Testbed testbed(
        quickConfig(ServerKind::Offloaded, ClientKind::Offloaded));
    const ScenarioResult result = testbed.run();

    std::ostringstream out;
    tracer.writeJson(out);
    tracer.disable();
    tracer.clear();
    ASSERT_TRUE(result.deploymentOk);

    auto doc = hydra::json::parse(out.str());
    ASSERT_TRUE(doc.ok()) << doc.error().describe();
    const hydra::json::Value *events = doc.value().find("traceEvents");
    ASSERT_NE(events, nullptr);

    // Group span slices by trace-id; count each trace's distinct
    // (pid, tid) lanes, i.e. how many sites its causal chain touched.
    std::map<std::uint64_t,
             std::set<std::pair<std::uint64_t, std::uint64_t>>>
        lanesByTrace;
    for (const hydra::json::Value &event : events->array) {
        if (!event.isObject())
            continue;
        const hydra::json::Value *ph = event.find("ph");
        if (!ph || ph->string != "X")
            continue;
        const hydra::json::Value *args = event.find("args");
        if (!args)
            continue;
        const hydra::json::Value *traceId = args->find("trace_id");
        const hydra::json::Value *pid = event.find("pid");
        const hydra::json::Value *tid = event.find("tid");
        if (!traceId || !pid || !tid)
            continue;
        lanesByTrace[traceId->asU64()].insert(
            {pid->asU64(), tid->asU64()});
    }
    ASSERT_FALSE(lanesByTrace.empty());

    std::size_t widest = 0;
    for (const auto &[id, lanes] : lanesByTrace)
        widest = std::max(widest, lanes.size());
    EXPECT_GE(widest, 3u)
        << "no trace crossed 3 execution sites (widest=" << widest
        << " across " << lanesByTrace.size() << " traces)";
}
#endif // HYDRA_OBS_TRACING

TEST(TestbedTest, IntrospectionCoversEveryDeployedOffcode)
{
    // Snapshot mid-run (not after run(), which stops every Offcode):
    // introspection is meant to answer "what is running right now".
    Testbed testbed(
        quickConfig(ServerKind::Offloaded, ClientKind::Offloaded));
    testbed.offloadedClient()->startWatching();
    testbed.server()->startStreaming();
    testbed.executor().runUntil(sim::seconds(10));
    ASSERT_TRUE(testbed.offloadedClient()->deployed())
        << testbed.offloadedClient()->deploymentError();

    core::Runtime &rt = *testbed.clientRuntime();
    const core::IntrospectionSnapshot snap = rt.introspect();
    ASSERT_FALSE(snap.offcodes.empty());

    auto find =
        [&](const std::string &name) -> const core::OffcodeIntrospection * {
        for (const core::OffcodeIntrospection &oc : snap.offcodes)
            if (oc.bindname == name)
                return &oc;
        return nullptr;
    };

    // Every Fig. 8 component plus the monitor pseudo-Offcode reports
    // in, each in the Started state.
    for (const char *name :
         {"tivo.StreamerNet", "tivo.StreamerDisk", "tivo.Decoder",
          "tivo.Display", "tivo.File", "tivo.Gui", "hydra.Monitor"}) {
        const core::OffcodeIntrospection *oc = find(name);
        ASSERT_NE(oc, nullptr) << name;
        EXPECT_EQ(oc->state, "Started") << name;
    }

    // Components on the datapath accumulated real telemetry.
    const core::OffcodeIntrospection *decoder = find("tivo.Decoder");
    EXPECT_GT(decoder->telemetry.dataHandled, 0u);
    EXPECT_GT(decoder->telemetry.busyNs, 0u);
    EXPECT_GT(decoder->telemetry.lastActivityAt, 0u);

    // The JSON form parses and lists the same population.
    auto doc = hydra::json::parse(rt.introspectJson());
    ASSERT_TRUE(doc.ok()) << doc.error().describe();
    const hydra::json::Value *offcodes = doc.value().find("offcodes");
    ASSERT_NE(offcodes, nullptr);
    EXPECT_EQ(offcodes->array.size(), snap.offcodes.size());
}

TEST(TestbedTest, DifferentSeedsDifferentNoise)
{
    TestbedConfig config =
        quickConfig(ServerKind::Simple, ClientKind::Receiver);
    config.duration = sim::seconds(10);
    Testbed a(config);
    config.seed = 2;
    Testbed b(config);
    EXPECT_NE(a.run().interarrivalMs.mean(),
              b.run().interarrivalMs.mean());
}

/**
 * CPU attribution invariant: for every execution site, the busy and
 * idle counters a run accumulates sum to exactly the virtual time the
 * run covered — the clamped-delta accounting may defer busy time, but
 * it never loses or invents any. Metrics are process-cumulative, so
 * everything is measured as deltas across one Testbed whose
 * construction re-baselines the site entries.
 */
TEST(TestbedTest, CpuAttributionCoversElapsedSim)
{
    TestbedConfig config =
        quickConfig(ServerKind::Offloaded, ClientKind::Offloaded);
    config.duration = sim::seconds(10);
    Testbed testbed(config);

    auto &registry = obs::MetricsRegistry::instance();
    const std::vector<std::string> sites = {
        "server.host", "client.host",  "server-nic",
        "client-nic",  "client-disk", "client-gpu"};
    // Testbed site names encode their machine ("server.host",
    // "client-gpu"), which is exactly the host= label attribution adds.
    const auto hostOf = [](const std::string &site) {
        return site.substr(0, site.find_first_of(".-"));
    };
    std::map<std::string, std::uint64_t> busyBefore, idleBefore;
    for (const std::string &site : sites) {
        busyBefore[site] = registry.counterValue(
            "exec.site_busy_ns",
            {{"site", site}, {"host", hostOf(site)}});
        idleBefore[site] = registry.counterValue(
            "exec.site_idle_ns",
            {{"site", site}, {"host", hostOf(site)}});
    }
    const std::uint64_t decoderCpuBefore =
        registry.counterValue("offcode.cpu_ns",
                              {{"offcode", "tivo.Decoder"}});

    const ScenarioResult result = testbed.run();
    ASSERT_TRUE(result.deploymentOk);

    // Sites register at construction (virtual time 0) and the harness
    // syncs one final time at the end of the measured window, so the
    // covered interval is exactly [0, now].
    const std::uint64_t elapsed = testbed.executor().now();
    ASSERT_GT(elapsed, 0u);
    for (const std::string &site : sites) {
        const std::uint64_t busy =
            registry.counterValue(
                "exec.site_busy_ns",
                {{"site", site}, {"host", hostOf(site)}}) -
            busyBefore[site];
        const std::uint64_t idle =
            registry.counterValue(
                "exec.site_idle_ns",
                {{"site", site}, {"host", hostOf(site)}}) -
            idleBefore[site];
        EXPECT_EQ(busy + idle, elapsed) << site;
    }

    // The pipeline ran, so its devices burned CPU and the per-Offcode
    // attribution saw it.
    EXPECT_GT(registry.counterValue(
                  "exec.site_busy_ns",
                  {{"site", "client-gpu"}, {"host", "client"}}),
              busyBefore["client-gpu"]);
    EXPECT_GT(registry.counterValue("offcode.cpu_ns",
                                    {{"offcode", "tivo.Decoder"}}),
              decoderCpuBefore);
}

} // namespace
} // namespace hydra::tivo
