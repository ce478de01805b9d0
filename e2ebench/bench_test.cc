/**
 * @file
 * Tests of the benchmark's own machinery: the seeded Zipf generator,
 * the open-loop generator's active-stream property, the due-time latency
 * stamp, span self time, and the correctness checks rejecting broken
 * outputs.
 */

#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "checks.hh"
#include "exec/executor.hh"
#include "fleet/fleet.hh"
#include "openloop.hh"
#include "spans.hh"

namespace hydra::e2e {
namespace {

std::vector<std::size_t>
draws(std::uint64_t seed, std::size_t n, std::size_t count)
{
    ZipfSampler zipf(n, seed);
    std::vector<std::size_t> out;
    for (std::size_t i = 0; i < count; ++i)
        out.push_back(zipf.next());
    return out;
}

TEST(ZipfSampler, ReplaysExactlyForASeed)
{
    EXPECT_EQ(draws(42, 10'000, 5'000), draws(42, 10'000, 5'000));
    EXPECT_NE(draws(42, 10'000, 5'000), draws(43, 10'000, 5'000));
}

TEST(ZipfSampler, LowRanksDominate)
{
    std::vector<std::size_t> hits(1'000, 0);
    for (std::size_t rank : draws(7, hits.size(), 100'000)) {
        ASSERT_LT(rank, hits.size());
        ++hits[rank];
    }
    EXPECT_GT(hits[0], hits[1]);
    EXPECT_GT(hits[1], hits[10]);
    EXPECT_GT(hits[10], hits[500]);
}

TEST(DueTime, IsExactAndDoesNotDrift)
{
    EXPECT_EQ(dueTime(100, 0, 1'000'000), 100);
    EXPECT_EQ(dueTime(100, 3, 1'000'000), 3'100);
    // A period of 1/3 s is not a whole number of ns; message 3*k
    // still lands exactly on k seconds.
    EXPECT_EQ(dueTime(0, 3, 3), sim::seconds(1));
    EXPECT_EQ(dueTime(0, 3'000'000, 3), sim::seconds(1'000'000));
    EXPECT_EQ(dueTime(0, 1, 3), 333'333'333);
}

TEST(Stamp, RoundTripsAndMeasuresFromTheDueTime)
{
    const Stamp stamp{123'456'789, 42, 7};
    const Payload message = encodeStamp(stamp, 256);
    EXPECT_EQ(message.size(), 256u);
    const std::optional<Stamp> decoded = decodeStamp(message);
    ASSERT_TRUE(decoded.has_value());
    EXPECT_EQ(decoded->due, stamp.due);
    EXPECT_EQ(decoded->seq, stamp.seq);
    EXPECT_EQ(decoded->stream, stamp.stream);

    // Written 500 ns late and delivered 300 ns after the write: the
    // latency counts the generator's lateness too.
    EXPECT_EQ(latencyFromDue(*decoded, stamp.due + 500 + 300), 800);

    EXPECT_FALSE(decodeStamp(Payload(Bytes{1, 2, 3})).has_value());
}

/** Active streams at a fixed rate and window, for @p registered. */
StepResult
runFixedRate(std::size_t registered)
{
    auto executor = exec::makeExecutor(exec::ExecutorKind::Sim);
    fleet::FleetConfig config;
    config.hosts = 4;
    fleet::Fleet fleet(*executor, config);
    Spans spans(false);
    OpenLoopConfig loopConfig;
    loopConfig.streams = registered;
    loopConfig.seed = 5;
    OpenLoop loop(fleet, loopConfig, spans);
    std::string error;
    EXPECT_TRUE(loop.registerStreams(error)) << error;
    StepResult step = loop.runStep(200'000, sim::milliseconds(20), false);
    EXPECT_EQ(loop.seqGaps(), 0u);
    EXPECT_EQ(loop.badFrames(), 0u);
    return step;
}

TEST(OpenLoop, ActiveStreamsGrowWithRegisteredStreams)
{
    std::uint64_t previous = 0;
    for (std::size_t registered : {500u, 2'000u, 8'000u}) {
        const StepResult step = runFixedRate(registered);
        EXPECT_EQ(step.offered, 4'000u);
        EXPECT_EQ(step.delivered, step.offered);
        EXPECT_EQ(step.maxLateNs, 0u);
        EXPECT_GT(step.activeStreams, previous) << registered;
        EXPECT_LE(step.activeStreams, registered);
        previous = step.activeStreams;
    }
}

TEST(OpenLoop, LatencyIsMeasuredFromTheDueTime)
{
    const StepResult step = runFixedRate(1'000);
    ASSERT_EQ(step.latencyNs.count(), step.offered);
    // Every message crosses at least a NIC, so no latency is zero,
    // and none is negative (delivery never precedes the due time).
    EXPECT_GT(step.latencyNs.min(), 0.0);
}

TEST(Spans, SelfTimeExcludesChildren)
{
    using std::chrono::nanoseconds;
    const auto t0 = WallClock::now();
    Spans spans(true);
    {
        Spans::Scope run(spans, SpanName::Run);
        spans.add(SpanName::Slice, t0, t0 + nanoseconds(1'000));
        spans.add(SpanName::Slice, t0, t0 + nanoseconds(2'000));
    }
    const auto &records = spans.records();
    ASSERT_EQ(records.size(), 3u);
    EXPECT_EQ(records[0].parent, -1);
    EXPECT_EQ(records[1].parent, 0);
    EXPECT_EQ(records[2].parent, 0);

    const auto totals = spans.totals();
    const SpanTotals &run = totals.at(SpanName::Run);
    const SpanTotals &slices = totals.at(SpanName::Slice);
    EXPECT_EQ(slices.count, 2u);
    EXPECT_DOUBLE_EQ(slices.totalS, 3e-6);
    EXPECT_NEAR(run.selfS, run.totalS - 3e-6, 1e-12);
    EXPECT_DOUBLE_EQ(spans.topLevelS(), run.totalS);
}

TivoOutcome
goodTivo()
{
    TivoOutcome o;
    o.deploymentOk = true;
    o.chunksSent = 12'876;
    o.packetsReceived = 12'876;
    o.framesDisplayed = 3'144;
    o.interarrivalMedianMs = 5.040;
    o.serverCpuMedianPct = 2.860;
    return o;
}

bool
tivoPasses(const TivoOutcome &o, const TivoBand &band = kOffloadedBand)
{
    Record record;
    checkTivo(o, band, record);
    return record.allChecksPass();
}

TEST(Checks, TivoRejectsBrokenOutputs)
{
    EXPECT_TRUE(tivoPasses(goodTivo()));

    TivoOutcome lost = goodTivo();
    lost.packetsReceived -= 1;
    EXPECT_FALSE(tivoPasses(lost));

    TivoOutcome blank = goodTivo();
    blank.framesDisplayed = 0;
    EXPECT_FALSE(tivoPasses(blank));

    TivoOutcome undeployed = goodTivo();
    undeployed.deploymentOk = false;
    EXPECT_FALSE(tivoPasses(undeployed));

    // The copy path's numbers are outside the offloaded band.
    TivoOutcome copyPath = goodTivo();
    copyPath.interarrivalMedianMs = 7.06;
    copyPath.serverCpuMedianPct = 7.38;
    EXPECT_FALSE(tivoPasses(copyPath));
    EXPECT_TRUE(tivoPasses(copyPath, kSimpleServerBand));

    TivoOutcome busyServer = goodTivo();
    busyServer.serverCpuMedianPct = 3.5;
    EXPECT_FALSE(tivoPasses(busyServer));
}

FleetOutcome
goodFleet()
{
    FleetOutcome o;
    o.wireCopies = 1'000;
    o.crossHostDeliveries = 1'000;
    o.baseOffered = 1'300;
    o.baseDelivered = 1'300;
    o.capacityResolved = true;
    return o;
}

bool
fleetPasses(const FleetOutcome &o)
{
    Record record;
    checkFleet(o, record);
    return record.allChecksPass();
}

TEST(Checks, FleetRejectsBrokenOutputs)
{
    EXPECT_TRUE(fleetPasses(goodFleet()));

    FleetOutcome extraCopy = goodFleet();
    extraCopy.wireCopies += 1;
    EXPECT_FALSE(fleetPasses(extraCopy));

    FleetOutcome hiddenCopy = goodFleet();
    hiddenCopy.zeroCopyCopies = 1;
    EXPECT_FALSE(fleetPasses(hiddenCopy));

    FleetOutcome gap = goodFleet();
    gap.seqGaps = 1;
    EXPECT_FALSE(fleetPasses(gap));

    FleetOutcome orphan = goodFleet();
    orphan.orphanFrames = 1;
    EXPECT_FALSE(fleetPasses(orphan));

    FleetOutcome lost = goodFleet();
    lost.baseDelivered -= 1;
    EXPECT_FALSE(fleetPasses(lost));

    FleetOutcome refused = goodFleet();
    refused.writeFailures = 1;
    EXPECT_FALSE(fleetPasses(refused));

    FleetOutcome unbounded = goodFleet();
    unbounded.capacityResolved = false;
    EXPECT_FALSE(fleetPasses(unbounded));
}

TEST(Checks, ARecordWithoutChecksDoesNotPass)
{
    EXPECT_FALSE(Record{}.allChecksPass());
}

} // namespace
} // namespace hydra::e2e
