/**
 * @file
 * Fleet tests (DESIGN.md §14): consistent-hash placement, cross-host
 * channels over the wire fabric (FIFO + exactly-one-copy), the
 * sharded executive's id-indexed registry, and the open-loop load
 * generator.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "common/bytes.hh"
#include "common/payload.hh"
#include "core/channel.hh"
#include "core/executive.hh"
#include "exec/executor.hh"
#include "exec/sim_executor.hh"
#include "fleet/fleet.hh"
#include "fleet/loadgen.hh"
#include "fleet/placement.hh"
#include "obs/metrics.hh"

namespace hydra::fleet {
namespace {

// ---------------------------------------------------------- placement

TEST(PlacementTest, HashIsStableAcrossCalls)
{
    EXPECT_EQ(placementHash("stream/0"), placementHash("stream/0"));
    EXPECT_NE(placementHash("stream/0"), placementHash("stream/1"));
}

TEST(PlacementTest, EmptyRingReturnsEmpty)
{
    PlacementRing ring;
    EXPECT_EQ(ring.hostFor("anything"), "");
    EXPECT_EQ(ring.hostCount(), 0u);
}

TEST(PlacementTest, DeterministicAndBalanced)
{
    const std::vector<std::string> hosts{"host0", "host1", "host2",
                                         "host3"};
    PlacementRing a;
    PlacementRing b;
    a.rebuild(hosts);
    b.rebuild(hosts);
    EXPECT_EQ(a.hostCount(), 4u);
    EXPECT_EQ(a.pointCount(), 4u * 64u);

    std::map<std::string, std::size_t> load;
    for (int i = 0; i < 10000; ++i) {
        const std::string key = "stream/" + std::to_string(i);
        const std::string owner = a.hostFor(key);
        EXPECT_EQ(owner, b.hostFor(key));
        ++load[owner];
    }
    ASSERT_EQ(load.size(), 4u);
    std::size_t lo = 10000;
    std::size_t hi = 0;
    for (const auto &[host, n] : load) {
        lo = std::min(lo, n);
        hi = std::max(hi, n);
    }
    // 64 vnodes/host keeps uniform keys within ~1.4x of each other;
    // allow 2x so the bound is about the mechanism, not the seed.
    EXPECT_LT(static_cast<double>(hi) / static_cast<double>(lo), 2.0);
}

TEST(PlacementTest, MembershipChangeMovesAboutOneNth)
{
    std::vector<std::string> hosts{"host0", "host1", "host2", "host3"};
    PlacementRing before;
    before.rebuild(hosts);
    hosts.push_back("host4");
    PlacementRing after;
    after.rebuild(hosts);

    int moved = 0;
    const int keys = 10000;
    for (int i = 0; i < keys; ++i) {
        const std::string key = "stream/" + std::to_string(i);
        if (before.hostFor(key) != after.hostFor(key))
            ++moved;
    }
    // Consistent hashing: adding 1 of 5 hosts should move ~1/5 of the
    // keys, not reshuffle everything. Allow generous slack.
    EXPECT_GT(moved, 0);
    EXPECT_LT(moved, keys * 35 / 100);
}

TEST(PlacementTest, HostRemovalMovesOnlyTheDepartedShare)
{
    std::vector<std::string> hosts{"host0", "host1", "host2", "host3",
                                   "host4"};
    PlacementRing before;
    before.rebuild(hosts);
    hosts.erase(hosts.begin() + 2); // drop host2
    PlacementRing after;
    after.rebuild(hosts);

    int moved = 0;
    int orphansMoved = 0;
    int orphans = 0;
    const int keys = 10000;
    for (int i = 0; i < keys; ++i) {
        const std::string key = "stream/" + std::to_string(i);
        const std::string was = before.hostFor(key);
        const std::string now = after.hostFor(key);
        if (was == "host2") {
            ++orphans;
            // Every key on the departed host must land somewhere else.
            EXPECT_NE(now, "host2") << key;
            if (was != now)
                ++orphansMoved;
        }
        if (was != now)
            ++moved;
    }
    // Removing 1 of 5 hosts relocates exactly the departed host's
    // keys (~1/5) and nothing else: keys homed on survivors stay put.
    EXPECT_GT(orphans, 0);
    EXPECT_EQ(moved, orphansMoved);
    EXPECT_LT(moved, keys * 35 / 100);
}

// ----------------------------------------------------------- topology

TEST(FleetTopologyTest, ResolvesSitesAcrossHostsButNotAliases)
{
    exec::SimExecutor exec;
    FleetConfig config;
    config.hosts = 4;
    Fleet fleet(exec, config);

    ASSERT_EQ(fleet.hostCount(), 4u);
    EXPECT_NE(fleet.findSite("host2.host"), nullptr);
    EXPECT_NE(fleet.findSite("host3-nic"), nullptr);
    // The generic alias stays host-local: resolving it fleet-wide
    // would silently pin every channel to host0.
    EXPECT_EQ(fleet.findSite("host"), nullptr);
    EXPECT_EQ(fleet.findSite("no-such-site"), nullptr);

    EXPECT_EQ(fleet.hostByName("host1"), &fleet.host(1));
    EXPECT_EQ(fleet.hostByName("hostX"), nullptr);
    EXPECT_EQ(fleet.hostOf(fleet.host(2).machine()), &fleet.host(2));

    // homeOf follows the ring.
    Host &home = fleet.homeOf("stream/7");
    EXPECT_EQ(fleet.placement().hostFor("stream/7"), home.name());
}

// ------------------------------------------------- cross-host channel

struct Received
{
    std::vector<std::uint64_t> seqs;
};

core::Channel *
makeCrossHostChannel(Fleet &fleet, Host &from, Host &to,
                     Received &sink, std::size_t maxBytes = 512)
{
    core::ChannelConfig config;
    config.name = "test.fleet";
    config.targetDevice = to.nic().name();
    auto created = fleet.host(from.index())
                       .executive()
                       .createChannel(config, from.runtime().hostSite(),
                                      maxBytes);
    EXPECT_TRUE(created.ok()) << created.error().describe();
    if (!created.ok())
        return nullptr;
    core::Channel *channel = created.value();

    core::ExecutionSite *site =
        to.runtime().siteByName(config.targetDevice);
    EXPECT_NE(site, nullptr);
    auto endpoint = channel->connectSite(*site);
    EXPECT_TRUE(endpoint.ok());
    channel->installHandler(
        endpoint.value(), [&sink](const Payload &message, std::size_t) {
            ByteReader reader(message.data(), message.size());
            auto seq = reader.readU64();
            ASSERT_TRUE(seq.ok());
            sink.seqs.push_back(seq.value());
        });
    return channel;
}

Payload
stampedMessage(std::uint64_t seq, std::size_t bytes)
{
    PayloadBuilder builder;
    ByteWriter writer(builder.buffer());
    writer.writeU64(seq);
    if (builder.buffer().size() < bytes)
        builder.buffer().resize(bytes, 0);
    return builder.seal();
}

TEST(CrossHostChannelTest, FifoWithExactlyOneWireCopyPerMessage)
{
    exec::SimExecutor exec;
    FleetConfig config;
    config.hosts = 4;
    Fleet fleet(exec, config);

    auto &registry = obs::MetricsRegistry::instance();
    const std::uint64_t wireBase = registry.counterValue(
        "channel.payload_copies", {{"buffering", "wire"}});
    const std::uint64_t gapBase = registry.counterValue("fleet.seq_gaps");

    Received sink;
    core::Channel *channel =
        makeCrossHostChannel(fleet, fleet.host(0), fleet.host(2), sink);
    ASSERT_NE(channel, nullptr);

    constexpr std::uint64_t kMessages = 50;
    for (std::uint64_t i = 0; i < kMessages; ++i)
        ASSERT_TRUE(channel->write(stampedMessage(i, 128)).ok());
    exec.runUntil(exec.now() + sim::milliseconds(50));
    exec.drain();

    ASSERT_EQ(sink.seqs.size(), kMessages);
    for (std::uint64_t i = 0; i < kMessages; ++i)
        EXPECT_EQ(sink.seqs[i], i) << "out of order at " << i;

    // Exactly one buffered copy per message (header + body into the
    // wire frame); the receive side is a zero-copy slice.
    EXPECT_EQ(registry.counterValue("channel.payload_copies",
                                    {{"buffering", "wire"}}) -
                  wireBase,
              kMessages);
    EXPECT_EQ(registry.counterValue("fleet.seq_gaps") - gapBase, 0u);
    EXPECT_EQ(fleet.host(2).orphanFrames(), 0u);
    EXPECT_EQ(channel->stats().messagesSent, kMessages);
}

TEST(CrossHostChannelTest, IntraHostStreamsNeverTouchTheWire)
{
    exec::SimExecutor exec;
    FleetConfig config;
    config.hosts = 2;
    Fleet fleet(exec, config);

    auto &registry = obs::MetricsRegistry::instance();
    const std::uint64_t wireBase = registry.counterValue(
        "channel.payload_copies", {{"buffering", "wire"}});

    Received sink;
    core::Channel *channel =
        makeCrossHostChannel(fleet, fleet.host(0), fleet.host(0), sink);
    ASSERT_NE(channel, nullptr);

    constexpr std::uint64_t kMessages = 20;
    for (std::uint64_t i = 0; i < kMessages; ++i)
        ASSERT_TRUE(channel->write(stampedMessage(i, 128)).ok());
    exec.runUntil(exec.now() + sim::milliseconds(50));
    exec.drain();

    EXPECT_EQ(sink.seqs.size(), kMessages);
    EXPECT_EQ(registry.counterValue("channel.payload_copies",
                                    {{"buffering", "wire"}}) -
                  wireBase,
              0u)
        << "same-host channel crossed the wire";
}

TEST(CrossHostChannelTest, DestroyMidFlightOrphansFramesSafely)
{
    exec::SimExecutor exec;
    FleetConfig config;
    config.hosts = 2;
    Fleet fleet(exec, config);

    Received sink;
    core::Channel *channel =
        makeCrossHostChannel(fleet, fleet.host(0), fleet.host(1), sink);
    ASSERT_NE(channel, nullptr);
    const core::ChannelId id = channel->id();

    for (std::uint64_t i = 0; i < 10; ++i)
        ASSERT_TRUE(channel->write(stampedMessage(i, 128)).ok());
    // Destroy while the frames are still in flight on the fabric: the
    // receiver's route table entry disappears, so the frames must be
    // counted as orphans, not delivered into freed memory.
    ASSERT_TRUE(fleet.host(0).executive().destroyChannelById(id).ok());
    exec.runUntil(exec.now() + sim::milliseconds(50));
    exec.drain();

    EXPECT_EQ(sink.seqs.size() + fleet.host(1).orphanFrames(), 10u);
}

// --------------------------------------------------- executive shards

TEST(ExecutiveShardTest, IdIndexedRegistryIsExact)
{
    exec::SimExecutor exec;
    FleetConfig config;
    config.hosts = 2;
    Fleet fleet(exec, config);
    core::ChannelExecutive &shard = fleet.host(0).executive();

    const std::size_t before = shard.activeChannels();

    // Failed create (unresolvable target) must not leak a slot.
    core::ChannelConfig bad;
    bad.name = "test.bad";
    bad.targetDevice = "no-such-device";
    auto failed = shard.createChannel(
        bad, fleet.host(0).runtime().hostSite(), 256);
    EXPECT_FALSE(failed.ok());
    EXPECT_EQ(shard.activeChannels(), before);

    Received sink;
    core::Channel *channel =
        makeCrossHostChannel(fleet, fleet.host(0), fleet.host(1), sink);
    ASSERT_NE(channel, nullptr);
    EXPECT_EQ(shard.activeChannels(), before + 1);
    EXPECT_EQ(shard.findChannel(channel->id()), channel);
    // Ids are process-wide: the other shard does not claim this one.
    EXPECT_EQ(fleet.host(1).executive().findChannel(channel->id()),
              nullptr);

    const core::ChannelId id = channel->id();
    ASSERT_TRUE(shard.destroyChannelById(id).ok());
    EXPECT_EQ(shard.activeChannels(), before);
    EXPECT_EQ(shard.findChannel(id), nullptr);
    EXPECT_FALSE(shard.destroyChannelById(id).ok());
}

// ------------------------------------------------------------ loadgen

TEST(LoadgenTest, SimOpenLoopDeliversAndCountsCopies)
{
    exec::SimExecutor exec;
    FleetConfig config;
    config.hosts = 4;
    Fleet fleet(exec, config);

    LoadgenConfig load;
    load.streams = 64;
    load.messageBytes = 128;
    load.offeredMsgsPerSec = 100000;
    load.duration = sim::milliseconds(20);
    auto report = runOpenLoop(fleet, load);

    EXPECT_EQ(report.hosts, 4u);
    EXPECT_EQ(report.remoteStreams + report.localStreams, 64u);
    EXPECT_GT(report.offered, 0u);
    EXPECT_EQ(report.writeFailures, 0u);
    // Open loop at a sustainable rate: (nearly) everything delivers.
    EXPECT_GT(report.delivered, report.offered * 9 / 10);
    EXPECT_EQ(report.latency.count, report.delivered);
    EXPECT_GT(report.latency.p50, 0.0);
    // Every cross-host message buffers exactly once at the sender,
    // and the zero-copy intra-host path performs no copies at all.
    EXPECT_GE(report.wireCopies, report.remoteStreams);
    EXPECT_EQ(report.zeroCopies, 0u);
    std::uint64_t perHostSum = 0;
    for (const auto &slice : report.perHost)
        perHostSum += slice.delivered;
    EXPECT_EQ(perHostSum, report.delivered);
}

TEST(LoadgenTest, ChurnKeepsTheFleetDelivering)
{
    exec::SimExecutor exec;
    FleetConfig config;
    config.hosts = 4;
    Fleet fleet(exec, config);

    LoadgenConfig load;
    load.streams = 32;
    load.messageBytes = 128;
    load.offeredMsgsPerSec = 50000;
    load.duration = sim::milliseconds(20);
    load.churnPerTick = 2;
    auto report = runOpenLoop(fleet, load);

    EXPECT_GT(report.churned, 0u);
    EXPECT_GT(report.delivered, 0u);
    EXPECT_EQ(report.writeFailures, 0u);
}

TEST(LoadgenTest, SimRunsAreDeterministic)
{
    const auto run = [] {
        exec::SimExecutor exec;
        FleetConfig config;
        config.hosts = 4;
        Fleet fleet(exec, config);
        LoadgenConfig load;
        load.streams = 48;
        load.messageBytes = 128;
        load.offeredMsgsPerSec = 80000;
        load.duration = sim::milliseconds(10);
        load.churnPerTick = 1;
        // The latency histogram is a process-global instrument;
        // zero it so both runs summarize identical populations.
        load.resetMetrics = true;
        return runOpenLoop(fleet, load);
    };
    const auto a = run();
    const auto b = run();
    EXPECT_EQ(a.offered, b.offered);
    EXPECT_EQ(a.delivered, b.delivered);
    EXPECT_EQ(a.churned, b.churned);
    EXPECT_EQ(a.wireCopies, b.wireCopies);
    EXPECT_EQ(a.latency.p99, b.latency.p99);
}

} // namespace
} // namespace hydra::fleet
