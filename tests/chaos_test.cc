/**
 * @file
 * Chaos engine + firmware OS hardening tests (DESIGN.md §15): spec
 * parsing, seeded-draw determinism, NIC-reset-mid-stream survival
 * with zero message loss on both execution engines, the per-Offcode
 * watchdog killing a wedged instance, and quota enforcement (memory
 * at deploy and at dispatch, CPU budget preemption that defers but
 * never drops).
 */

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "chaos/chaos.hh"
#include "core/runtime.hh"
#include "dev/nic.hh"
#include "exec/sim_executor.hh"
#include "net/network.hh"
#include "obs/metrics.hh"
#include "tivo/harness.hh"

namespace hydra {
namespace {

/**
 * Every test here runs against the process-wide ChaosEngine and
 * metrics registry, so each one starts from a disarmed engine and a
 * zeroed registry and leaves the same behind.
 */
class ChaosFixture : public ::testing::Test
{
  protected:
    void
    SetUp() override
    {
        chaos::ChaosEngine::instance().disable();
        obs::MetricsRegistry::instance().reset();
    }

    void
    TearDown() override
    {
        chaos::ChaosEngine::instance().disable();
        obs::MetricsRegistry::instance().reset();
    }
};

// -------------------------------------------------------- spec parsing

TEST(ChaosSpecTest, ParsesSeedOnly)
{
    auto spec = chaos::parseChaosSpec("42");
    ASSERT_TRUE(spec.ok());
    EXPECT_EQ(spec.value().seed, 42u);
    EXPECT_EQ(spec.value().packetDrop, 0.0);
    EXPECT_TRUE(spec.value().resets.empty());
}

TEST(ChaosSpecTest, ParsesFullSpec)
{
    auto spec = chaos::parseChaosSpec(
        "7:drop=0.01,dup=0.02,corrupt=0.005,slow=0.1,stall=0.01,"
        "poolfail=0.001,ringfull=0.002,slow-ms=3,stall-ms=4,"
        "reset@2000=client-nic/10,reset@5000=server-nic");
    ASSERT_TRUE(spec.ok()) << spec.error().describe();
    const chaos::ChaosSpec &s = spec.value();
    EXPECT_EQ(s.seed, 7u);
    EXPECT_DOUBLE_EQ(s.packetDrop, 0.01);
    EXPECT_DOUBLE_EQ(s.packetDuplicate, 0.02);
    EXPECT_DOUBLE_EQ(s.packetCorrupt, 0.005);
    EXPECT_DOUBLE_EQ(s.workerSlow, 0.1);
    EXPECT_DOUBLE_EQ(s.workerStall, 0.01);
    EXPECT_DOUBLE_EQ(s.poolExhaust, 0.001);
    EXPECT_DOUBLE_EQ(s.ringOverflow, 0.002);
    EXPECT_EQ(s.slowDelay, sim::milliseconds(3));
    EXPECT_EQ(s.stallTime, sim::milliseconds(4));
    ASSERT_EQ(s.resets.size(), 2u);
    EXPECT_EQ(s.resets[0].at, sim::milliseconds(2000));
    EXPECT_EQ(s.resets[0].device, "client-nic");
    EXPECT_EQ(s.resets[0].downtime, sim::milliseconds(10));
    EXPECT_EQ(s.resets[1].device, "server-nic");
    EXPECT_EQ(s.resets[1].downtime, sim::milliseconds(5));
}

TEST(ChaosSpecTest, RejectsMalformedSpecs)
{
    // Probabilities must be numeric and inside [0, 1]; durations
    // positive; keys known; reset targets named.
    for (const char *bad :
         {"", "abc", "-1", "7:drop=-0.1", "7:drop=1.5", "7:drop=abc",
          "7:drop=", "7:bogus=0.5", "7:slow-ms=0", "7:slow-ms=x",
          "7:reset@=nic", "7:reset@100=", "7:reset@abc=nic",
          "7:reset@100=nic/0", "7:reset@100=nic/xyz", "7:drop"}) {
        auto spec = chaos::parseChaosSpec(bad);
        EXPECT_FALSE(spec.ok()) << "accepted: " << bad;
    }
}

// --------------------------------------------------- draw determinism

TEST_F(ChaosFixture, SameSeedReplaysIdenticalDecisions)
{
    chaos::ChaosSpec spec;
    spec.seed = 99;
    spec.packetDrop = 0.3;
    spec.packetCorrupt = 0.2;

    auto &engine = chaos::ChaosEngine::instance();
    auto record = [&]() {
        engine.configure(spec);
        std::vector<bool> decisions;
        for (int i = 0; i < 200; ++i) {
            decisions.push_back(engine.dropPacket(i));
            decisions.push_back(engine.corruptPacket(i));
        }
        return decisions;
    };
    const auto first = record();
    const auto second = record();
    EXPECT_EQ(first, second);

    spec.seed = 100;
    const auto reseeded = record();
    EXPECT_NE(first, reseeded);
}

TEST_F(ChaosFixture, StreamsAreIndependentPerFaultClass)
{
    // Drawing from one class must not perturb another: drop-only
    // decisions are identical whether or not corrupt draws happen
    // in between.
    chaos::ChaosSpec spec;
    spec.seed = 4242;
    spec.packetDrop = 0.5;
    spec.packetCorrupt = 0.5;

    auto &engine = chaos::ChaosEngine::instance();
    engine.configure(spec);
    std::vector<bool> dropsAlone;
    for (int i = 0; i < 100; ++i)
        dropsAlone.push_back(engine.dropPacket(i));

    engine.configure(spec);
    std::vector<bool> dropsInterleaved;
    for (int i = 0; i < 100; ++i) {
        dropsInterleaved.push_back(engine.dropPacket(i));
        (void)engine.corruptPacket(i);
    }
    EXPECT_EQ(dropsAlone, dropsInterleaved);
}

TEST_F(ChaosFixture, DisabledEngineNeverFires)
{
    auto &engine = chaos::ChaosEngine::instance();
    ASSERT_FALSE(engine.enabled());
    const std::uint64_t before = engine.injected();
    for (int i = 0; i < 100; ++i) {
        EXPECT_FALSE(engine.dropPacket(i));
        EXPECT_FALSE(engine.duplicatePacket(i));
        EXPECT_FALSE(engine.corruptPacket(i));
        EXPECT_FALSE(engine.exhaustPool(i));
        EXPECT_FALSE(engine.overflowRing(i));
    }
    EXPECT_EQ(engine.injected(), before);
}

// ------------------------------------- NIC reset survival (tentpole)

/**
 * Stream the offloaded TiVo scenario through a client-NIC reset and
 * require exactly-once delivery: every chunk the server sent arrived
 * despite the device going down mid-stream, and the recovery path
 * (offcode restart + rx replay) actually ran.
 */
TEST_F(ChaosFixture, NicResetMidStreamLosesNothingSim)
{
    chaos::ChaosSpec spec;
    spec.seed = 7;
    spec.resets.push_back(
        {sim::milliseconds(3000), "client-nic", sim::milliseconds(5)});
    chaos::ChaosEngine::instance().configure(spec);

    tivo::TestbedConfig config;
    config.server = tivo::ServerKind::Offloaded;
    config.client = tivo::ClientKind::Offloaded;
    config.duration = sim::seconds(10);
    tivo::Testbed testbed(config);
    const tivo::ScenarioResult result = testbed.run();

    ASSERT_TRUE(result.deploymentOk);
    EXPECT_GT(result.chunksSent, 0u);
    EXPECT_GT(result.framesDisplayed, 0u);
    // Zero loss: the reset dropped no client messages.
    EXPECT_EQ(result.packetsReceived, result.chunksSent);

    auto &metrics = obs::MetricsRegistry::instance();
    EXPECT_GE(metrics.counterTotal("dev.resets"), 1u);
    EXPECT_GE(metrics.counterTotal("offcode.restarts"), 1u);
    EXPECT_GE(metrics.counterTotal("chaos.recoveries"), 1u);
    EXPECT_EQ(metrics.counterTotal("nic.reset_rx_dropped"), 0u);
    EXPECT_GE(chaos::ChaosEngine::instance().injected(), 1u);
}

// ------------------------------------------- firmware OS: watchdog

/** Offcode counting deliveries into shared state that survives the
 * restart swap (the instance is replaced; the counter is not). */
class CountingOffcode : public core::Offcode
{
  public:
    CountingOffcode(std::string bindname, std::shared_ptr<int> hits)
        : Offcode(std::move(bindname)), hits_(std::move(hits))
    {
    }

    void
    onData(const Payload &, core::ChannelHandle) override
    {
        ++*hits_;
    }

  private:
    std::shared_ptr<int> hits_;
};

/** Offcode that burns @p burnNs of site CPU per delivery. */
class BusyOffcode : public core::Offcode
{
  public:
    BusyOffcode(std::string bindname, sim::SimTime burnNs,
                std::shared_ptr<int> hits)
        : Offcode(std::move(bindname)), burnNs_(burnNs),
          hits_(std::move(hits))
    {
    }

    void
    onData(const Payload &, core::ChannelHandle) override
    {
        ++*hits_;
        if (context().site)
            context().site->run(burnNs_);
    }

  private:
    sim::SimTime burnNs_;
    std::shared_ptr<int> hits_;
};

/** Runtime-over-one-NIC fixture mirroring core_runtime_test.cc. */
class FirmwareOsFixture : public ChaosFixture
{
  protected:
    void
    buildRuntime(core::RuntimeConfig config = {})
    {
        machine_ = std::make_unique<hw::Machine>(sim_,
                                                 hw::MachineConfig{});
        net_ = std::make_unique<net::Network>(sim_,
                                              net::NetworkConfig{});
        nicNode_ = net_->addNode("nic");
        nic_ = std::make_unique<dev::ProgrammableNic>(
            sim_, machine_->bus(), *net_, nicNode_);
        runtime_ = std::make_unique<core::Runtime>(*machine_,
                                                   std::move(config));
        ASSERT_TRUE(runtime_->attachDevice(*nic_).ok());
    }

    std::string
    nicOdf(const std::string &bindname)
    {
        return "<offcode><package><bindname>" + bindname +
               "</bindname></package><sw-env></sw-env><targets>"
               "<device-class id=\"0x0001\"/>"
               "<host-fallback/></targets></offcode>";
    }

    /** Deploy @p bindname and return its handle (runs the pipeline). */
    core::OffcodeHandle
    deploy(const std::string &bindname)
    {
        core::OffcodeHandle handle;
        bool done = false;
        runtime_->createOffcode(
            bindname, [&](Result<core::OffcodeHandle> result) {
                ASSERT_TRUE(result.ok()) << result.error().describe();
                handle = result.value();
                done = true;
            });
        sim_.runUntil(sim_.now() + sim::seconds(1));
        EXPECT_TRUE(done);
        return handle;
    }

    /** Channel from the host site to the NIC-resident @p offcode. */
    core::Channel *
    channelTo(core::Offcode &offcode)
    {
        core::ChannelConfig config;
        config.name = "test.chaos";
        config.targetDevice = "nic";
        auto channel = runtime_->executive().createChannel(
            config, *runtime_->siteByName("host"));
        EXPECT_TRUE(channel.ok());
        EXPECT_TRUE(channel.value()->connectOffcode(offcode).ok());
        return channel.value();
    }

    exec::SimExecutor sim_;
    std::unique_ptr<hw::Machine> machine_;
    std::unique_ptr<net::Network> net_;
    net::NodeId nicNode_ = 0;
    std::unique_ptr<dev::ProgrammableNic> nic_;
    std::unique_ptr<core::Runtime> runtime_;
};

TEST_F(FirmwareOsFixture, WatchdogRestartsWedgedOffcodeAndReplays)
{
    core::RuntimeConfig config;
    config.watchdogLimitNs = sim::milliseconds(50);
    config.watchdogPeriodNs = sim::milliseconds(10);
    buildRuntime(std::move(config));

    auto hits = std::make_shared<int>(0);
    runtime_->depot().registerOffcode(nicOdf("test.Wedge"), [hits]() {
        return std::make_unique<CountingOffcode>("test.Wedge", hits);
    });
    core::OffcodeHandle handle = deploy("test.Wedge");
    ASSERT_NE(handle.offcode, nullptr);
    core::Channel *channel = channelTo(*handle.offcode);
    ASSERT_NE(channel, nullptr);

    // Wedge the instance: handlers vanish, traffic queues behind it.
    EXPECT_GT(runtime_->executive().detachOffcode(*handle.offcode), 0u);
    ASSERT_TRUE(channel->write(core::encodeData(Bytes{1, 2, 3})).ok());
    sim_.runUntil(sim_.now() + sim::milliseconds(5));
    EXPECT_EQ(*hits, 0);
    EXPECT_GT(runtime_->executive().queuedFor(*handle.offcode), 0u);

    // The watchdog must notice the stalled backlog, kill the
    // instance, and the rebind must replay the queued message into
    // the successor — preemptive recovery without message loss.
    sim_.runUntil(sim_.now() + sim::milliseconds(500));

    auto &metrics = obs::MetricsRegistry::instance();
    EXPECT_GE(metrics.counterValue("offcode.watchdog_kills",
                                   {{"offcode", "test.Wedge"}}),
              1u);
    EXPECT_GE(metrics.counterValue("offcode.restarts",
                                   {{"offcode", "test.Wedge"}}),
              1u);
    EXPECT_EQ(*hits, 1);

    auto restarted = runtime_->getOffcode("test.Wedge");
    ASSERT_TRUE(restarted.ok());
    EXPECT_NE(restarted.value().offcode, handle.offcode);
    EXPECT_EQ(restarted.value().offcode->state(),
              core::OffcodeState::Started);
}

TEST_F(FirmwareOsFixture, WatchdogDisabledByDefault)
{
    buildRuntime();
    auto hits = std::make_shared<int>(0);
    runtime_->depot().registerOffcode(nicOdf("test.Quiet"), [hits]() {
        return std::make_unique<CountingOffcode>("test.Quiet", hits);
    });
    core::OffcodeHandle handle = deploy("test.Quiet");
    ASSERT_NE(handle.offcode, nullptr);

    // An idle Offcode sits untouched forever with the watchdog off.
    sim_.runUntil(sim_.now() + sim::seconds(5));
    EXPECT_EQ(obs::MetricsRegistry::instance().counterTotal(
                  "offcode.watchdog_kills"),
              0u);
    auto still = runtime_->getOffcode("test.Quiet");
    ASSERT_TRUE(still.ok());
    EXPECT_EQ(still.value().offcode, handle.offcode);
}

// --------------------------------------------- firmware OS: quotas

TEST_F(FirmwareOsFixture, MemoryQuotaRejectsOversizedImageAtDeploy)
{
    core::RuntimeConfig config;
    config.quotas["test.Fat"].memoryBytes = 1024; // image is 32 KiB
    buildRuntime(std::move(config));

    runtime_->depot().registerOffcode(nicOdf("test.Fat"), []() {
        return std::make_unique<CountingOffcode>(
            "test.Fat", std::make_shared<int>(0));
    });
    bool failed = false;
    runtime_->createOffcode("test.Fat",
                            [&](Result<core::OffcodeHandle> result) {
                                EXPECT_FALSE(result.ok());
                                failed = true;
                            });
    sim_.runUntil(sim_.now() + sim::seconds(1));
    EXPECT_TRUE(failed);
    EXPECT_GE(obs::MetricsRegistry::instance().counterValue(
                  "offcode.quota_rejections",
                  {{"offcode", "test.Fat"}, {"resource", "memory"}}),
              1u);
}

TEST_F(FirmwareOsFixture, MemoryQuotaRejectsOversizedMessage)
{
    core::RuntimeConfig config;
    // Above the 32 KiB image, below the oversized message.
    config.quotas["test.Lean"].memoryBytes = 40000;
    buildRuntime(std::move(config));

    auto hits = std::make_shared<int>(0);
    runtime_->depot().registerOffcode(nicOdf("test.Lean"), [hits]() {
        return std::make_unique<CountingOffcode>("test.Lean", hits);
    });
    core::OffcodeHandle handle = deploy("test.Lean");
    ASSERT_NE(handle.offcode, nullptr);
    core::Channel *channel = channelTo(*handle.offcode);
    ASSERT_NE(channel, nullptr);

    ASSERT_TRUE(
        channel->write(core::encodeData(Bytes(50000, 0xAB))).ok());
    ASSERT_TRUE(channel->write(core::encodeData(Bytes{1})).ok());
    sim_.runUntil(sim_.now() + sim::milliseconds(10));

    // The oversized message was rejected and counted; the small one
    // went through.
    EXPECT_EQ(*hits, 1);
    EXPECT_GE(obs::MetricsRegistry::instance().counterValue(
                  "offcode.quota_rejections",
                  {{"offcode", "test.Lean"}, {"resource", "memory"}}),
              1u);
}

TEST_F(FirmwareOsFixture, CpuBudgetPreemptsButNeverDrops)
{
    core::RuntimeConfig config;
    config.quotas["test.Busy"].cpuBudgetNs = 100000;       // 0.1 ms
    config.quotas["test.Busy"].slicePeriodNs = sim::milliseconds(1);
    buildRuntime(std::move(config));

    auto hits = std::make_shared<int>(0);
    runtime_->depot().registerOffcode(nicOdf("test.Busy"), [hits]() {
        // Each delivery burns 0.5 ms — 5x the slice budget.
        return std::make_unique<BusyOffcode>(
            "test.Busy", sim::microseconds(500), hits);
    });
    core::OffcodeHandle handle = deploy("test.Busy");
    ASSERT_NE(handle.offcode, nullptr);
    core::Channel *channel = channelTo(*handle.offcode);
    ASSERT_NE(channel, nullptr);

    const int burst = 8;
    for (int i = 0; i < burst; ++i)
        ASSERT_TRUE(channel
                        ->write(core::encodeData(
                            Bytes{static_cast<std::uint8_t>(i)}))
                        .ok());
    sim_.runUntil(sim_.now() + sim::milliseconds(2));
    // Mid-burst the budget has preempted at least one dispatch and
    // not yet delivered the tail.
    EXPECT_GE(obs::MetricsRegistry::instance().counterValue(
                  "offcode.preemptions", {{"offcode", "test.Busy"}}),
              1u);
    EXPECT_LT(*hits, burst);

    // Preemption defers to the next slice; it never discards. Given
    // enough slices the whole burst lands.
    sim_.runUntil(sim_.now() + sim::seconds(1));
    EXPECT_EQ(*hits, burst);
}

} // namespace
} // namespace hydra
