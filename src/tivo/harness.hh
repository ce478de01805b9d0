/**
 * @file
 * The evaluation testbed (paper Section 6.4): two 2.4 GHz hosts
 * joined by a gigabit switch, a NAS holding the movie, programmable
 * NICs on both hosts, and a smart disk and GPU on the client. The
 * Testbed assembles any scenario the paper measures (server kind ×
 * client kind, plus the idle baseline) and samples CPU utilization
 * and L2 miss rates every 5 seconds, recording client-side packet
 * inter-arrival times for the jitter study.
 */

#ifndef HYDRA_TIVO_HARNESS_HH
#define HYDRA_TIVO_HARNESS_HH

#include <memory>

#include "common/stats.hh"
#include "exec/executor.hh"
#include "tivo/client.hh"
#include "tivo/server.hh"

namespace hydra::tivo {

/** Which server implementation streams. */
enum class ServerKind { None, Simple, Sendfile, Onloaded, Offloaded };

/** Which client implementation watches. */
enum class ClientKind { None, Receiver, UserSpace, Offloaded };

std::string_view serverKindName(ServerKind kind);
std::string_view clientKindName(ClientKind kind);

/** Scenario parameters. */
struct TestbedConfig
{
    ServerKind server = ServerKind::Simple;
    ClientKind client = ClientKind::Receiver;

    /** Measured run length (the paper: 10 minutes). */
    sim::SimTime duration = sim::seconds(60);
    /** Settling time excluded from all samples. */
    sim::SimTime warmup = sim::seconds(2);
    /** CPU / L2 sampling interval (the paper: 5 s). */
    sim::SimTime sampleInterval = sim::seconds(5);
    /**
     * Flight-recorder snapshot interval; 0 disables recording. When
     * enabled the testbed captures one snapshot per interval during
     * the measurement window plus a final capture at the end, all on
     * executor time (so SimExecutor runs are deterministic).
     */
    sim::SimTime flightInterval = 0;
    /**
     * Sampling-profiler interval; 0 disables sampling. Samples are
     * taken on executor time (deterministic under SimExecutor) and
     * only when the global obs::Profiler is enabled.
     */
    sim::SimTime profileInterval = 0;

    std::uint64_t seed = 1;
    MpegConfig mpeg;
    /** Movie length in frames (the stream wraps around). */
    std::uint32_t movieFrames = 192;

    sim::SimTime sendPeriod = sim::milliseconds(5);
    std::size_t chunkBytes = 1024;

    /** Fabric loss rate (UDP semantics; decoder resyncs on I frames). */
    double dropProbability = 0.0;

    /** Client smart disk backed by the NAS (as the paper emulates). */
    bool diskNfsBacked = true;
    /**
     * Ablation knob (DESIGN.md D3): disable the hosts' stochastic OS
     * noise (run-queue delay, preemption), leaving only deterministic
     * tick quantization.
     */
    bool quietHost = false;
    /** PCIe-style single-transaction multicast on the client bus. */
    bool busMulticast = true;

    ServerConfig serverTuning;
    ClientConfig clientTuning;
};

/** Everything a scenario run produces. */
struct ScenarioResult
{
    std::string scenarioName;

    /** Client-side packet inter-arrival times, in milliseconds. */
    SampleSet interarrivalMs;

    /** Per-window CPU utilization, percent. */
    SampleSet serverCpuPct;
    SampleSet clientCpuPct;

    /** Per-window L2 miss rates (absolute, not normalized). */
    SampleSet serverL2MissRate;
    SampleSet clientL2MissRate;

    std::uint64_t chunksSent = 0;
    std::uint64_t packetsReceived = 0;
    std::uint64_t framesDisplayed = 0;
    std::uint64_t serverBusCrossings = 0;
    std::uint64_t clientBusCrossings = 0;
    std::uint64_t networkDrops = 0;
    bool deploymentOk = true;
};

/** Builds and runs one scenario. */
class Testbed
{
  public:
    explicit Testbed(TestbedConfig config);
    ~Testbed();

    Testbed(const Testbed &) = delete;
    Testbed &operator=(const Testbed &) = delete;

    /** Run the scenario to completion and collect results. */
    ScenarioResult run();

    // --- component access for integration tests ---
    exec::Executor &executor() { return *exec_; }
    hw::Machine &serverMachine() { return *serverMachine_; }
    hw::Machine &clientMachine() { return *clientMachine_; }
    net::Network &network() { return *network_; }
    net::NfsServer &nas() { return *nas_; }
    core::Runtime *clientRuntime() { return clientRuntime_.get(); }
    core::Runtime *serverRuntime() { return serverRuntime_.get(); }
    OffloadedClient *offloadedClient() { return offloadedClient_.get(); }
    UserSpaceClient *userClient() { return userClient_.get(); }
    VideoServer *server() { return server_.get(); }
    TivoEnvPtr clientEnv() { return clientEnv_; }
    dev::Gpu &gpu() { return *gpu_; }

  private:
    void buildFabric();
    void buildServer();
    void buildClient();
    void recordArrival(sim::SimTime now);

    TestbedConfig config_;

    std::unique_ptr<exec::Executor> exec_;
    std::unique_ptr<net::Network> network_;
    net::NodeId nasNode_ = net::kInvalidNode;
    net::NodeId serverNode_ = net::kInvalidNode;
    net::NodeId clientNode_ = net::kInvalidNode;
    net::NodeId clientDiskNode_ = net::kInvalidNode;
    std::unique_ptr<net::NfsServer> nas_;

    std::unique_ptr<hw::Machine> serverMachine_;
    std::unique_ptr<hw::Machine> clientMachine_;
    std::unique_ptr<dev::ProgrammableNic> serverNic_;
    std::unique_ptr<dev::ProgrammableNic> clientNic_;
    std::unique_ptr<dev::SmartDisk> clientDisk_;
    std::unique_ptr<dev::Gpu> gpu_;

    std::unique_ptr<core::Runtime> serverRuntime_;
    std::unique_ptr<core::Runtime> clientRuntime_;
    TivoEnvPtr serverEnv_;
    TivoEnvPtr clientEnv_;

    std::unique_ptr<VideoServer> server_;
    std::unique_ptr<UserSpaceClient> userClient_;
    std::unique_ptr<OffloadedClient> offloadedClient_;

    // Measurement state.
    sim::SimTime measureStart_ = 0;
    sim::SimTime lastArrival_ = 0;
    bool haveArrival_ = false;
    ScenarioResult result_;
    bool receiverBound_ = false;
};

} // namespace hydra::tivo

#endif // HYDRA_TIVO_HARNESS_HH
