#include "tivo/harness.hh"

#include "chaos/chaos.hh"
#include "common/logging.hh"
#include "obs/attribution.hh"
#include "obs/flight.hh"
#include "obs/profiler.hh"
#include "obs/slo.hh"

namespace hydra::tivo {

std::string_view
serverKindName(ServerKind kind)
{
    switch (kind) {
      case ServerKind::None: return "idle";
      case ServerKind::Simple: return "simple";
      case ServerKind::Sendfile: return "sendfile";
      case ServerKind::Onloaded: return "onloaded";
      case ServerKind::Offloaded: return "offloaded";
    }
    return "?";
}

std::string_view
clientKindName(ClientKind kind)
{
    switch (kind) {
      case ClientKind::None: return "idle";
      case ClientKind::Receiver: return "receiver";
      case ClientKind::UserSpace: return "user-space";
      case ClientKind::Offloaded: return "offloaded";
    }
    return "?";
}

Testbed::Testbed(TestbedConfig config) : config_(config)
{
    exec_ = exec::makeExecutor(exec::ExecutorKind::Sim);
    buildFabric();
    buildServer();
    buildClient();
    result_.scenarioName = std::string(serverKindName(config_.server)) +
                           "/" + std::string(clientKindName(config_.client));
}

Testbed::~Testbed()
{
    // Stop active producers before tearing down devices they use.
    if (server_)
        server_->stop();
    if (userClient_)
        userClient_->stop();
    if (offloadedClient_)
        offloadedClient_->stop();
}

void
Testbed::buildFabric()
{
    net::NetworkConfig netConfig;
    netConfig.linkGbps = 1.0;
    netConfig.dropProbability = config_.dropProbability;
    netConfig.lossPort = 5004; // lose only video datagrams, not NFS
    netConfig.seed = config_.seed * 31 + 7;
    network_ = std::make_unique<net::Network>(*exec_, netConfig);

    nasNode_ = network_->addNode("nas");
    serverNode_ = network_->addNode("server-nic");
    clientNode_ = network_->addNode("client-nic");
    clientDiskNode_ = network_->addNode("client-smartdisk");

    nas_ = std::make_unique<net::NfsServer>(*network_, nasNode_);
    nas_->putFile(config_.serverTuning.movieFile.empty()
                      ? "movie.mpg"
                      : config_.serverTuning.movieFile,
                  encodeMovie(config_.mpeg, config_.movieFrames,
                              config_.seed));
}

void
Testbed::buildServer()
{
    hw::MachineConfig machineConfig;
    machineConfig.name = "server";
    machineConfig.noiseSeed = config_.seed * 131 + 1;
    if (config_.quietHost) {
        machineConfig.os.wakeupNoiseSigma = 0;
        machineConfig.os.preemptionProbability = 0.0;
    }
    serverMachine_ = std::make_unique<hw::Machine>(*exec_, machineConfig);
    serverMachine_->os().startBackgroundLoad();

    dev::DeviceConfig nicConfig = dev::ProgrammableNic::nicDefaultConfig();
    nicConfig.name = "server-nic";
    nicConfig.noiseSeed = config_.seed * 131 + 2;
    serverNic_ = std::make_unique<dev::ProgrammableNic>(
        *exec_, serverMachine_->bus(), *network_, serverNode_, nicConfig);

    ServerConfig serverConfig = config_.serverTuning;
    serverConfig.sendPeriod = config_.sendPeriod;
    serverConfig.chunkBytes = config_.chunkBytes;
    serverConfig.nasNode = nasNode_;
    serverConfig.clientNode = clientNode_;
    if (serverConfig.movieFile.empty())
        serverConfig.movieFile = "movie.mpg";

    switch (config_.server) {
      case ServerKind::None:
        break;
      case ServerKind::Simple:
        server_ = std::make_unique<SimpleServer>(
            *serverMachine_, *serverNic_, *network_, serverConfig);
        break;
      case ServerKind::Sendfile:
        server_ = std::make_unique<SendfileServer>(
            *serverMachine_, *serverNic_, *network_, serverConfig);
        break;
      case ServerKind::Onloaded:
        server_ = std::make_unique<OnloadedServer>(
            *serverMachine_, *serverNic_, *network_, serverConfig);
        break;
      case ServerKind::Offloaded: {
        serverRuntime_ = std::make_unique<core::Runtime>(*serverMachine_);
        serverRuntime_->attachDevice(*serverNic_);

        serverEnv_ = std::make_shared<TivoEnv>();
        serverEnv_->mpeg = config_.mpeg;
        serverEnv_->network = network_.get();
        serverEnv_->videoPort = serverConfig.videoPort;
        serverEnv_->movieFile = serverConfig.movieFile;
        serverEnv_->nasNode = nasNode_;
        serverEnv_->peerNode = clientNode_;
        serverEnv_->nic = serverNic_.get();
        serverEnv_->sendPeriod = config_.sendPeriod;
        serverEnv_->chunkBytes = config_.chunkBytes;
        server_ = std::make_unique<OffloadedVideoServer>(*serverRuntime_,
                                                         serverEnv_);
        break;
      }
    }
}

void
Testbed::buildClient()
{
    hw::MachineConfig machineConfig;
    machineConfig.name = "client";
    machineConfig.noiseSeed = config_.seed * 131 + 3;
    if (config_.quietHost) {
        machineConfig.os.wakeupNoiseSigma = 0;
        machineConfig.os.preemptionProbability = 0.0;
    }
    clientMachine_ = std::make_unique<hw::Machine>(*exec_, machineConfig);
    clientMachine_->os().startBackgroundLoad();

    dev::DeviceConfig nicConfig = dev::ProgrammableNic::nicDefaultConfig();
    nicConfig.name = "client-nic";
    nicConfig.noiseSeed = config_.seed * 131 + 4;
    clientNic_ = std::make_unique<dev::ProgrammableNic>(
        *exec_, clientMachine_->bus(), *network_, clientNode_, nicConfig);

    dev::DeviceConfig diskConfig = dev::SmartDisk::diskDefaultConfig();
    diskConfig.name = "client-disk";
    diskConfig.noiseSeed = config_.seed * 131 + 5;
    if (config_.diskNfsBacked) {
        clientDisk_ = std::make_unique<dev::SmartDisk>(
            *exec_, clientMachine_->bus(), *network_, clientDiskNode_,
            nasNode_, diskConfig);
    } else {
        clientDisk_ = std::make_unique<dev::SmartDisk>(
            *exec_, clientMachine_->bus(), diskConfig);
    }

    dev::DeviceConfig gpuConfig = dev::Gpu::gpuDefaultConfig();
    gpuConfig.name = "client-gpu";
    gpuConfig.noiseSeed = config_.seed * 131 + 6;
    gpu_ = std::make_unique<dev::Gpu>(*exec_, clientMachine_->bus(),
                                      gpuConfig);

    auto arrivalTap = [this](sim::SimTime now) { recordArrival(now); };

    switch (config_.client) {
      case ClientKind::None:
        break;
      case ClientKind::Receiver: {
        // Minimal measurement receiver: packets terminate on the NIC
        // and only the arrival time is recorded (the measurement
        // point for Table 2 / Fig. 9).
        Status bound = clientNic_->bindDevicePort(
            5004, [this](const net::Packet &packet) {
                (void)packet;
                ++result_.packetsReceived;
                recordArrival(exec_->now());
            });
        receiverBound_ = bound.ok();
        break;
      }
      case ClientKind::UserSpace: {
        ClientConfig clientConfig = config_.clientTuning;
        clientConfig.chunkBytes = config_.chunkBytes;
        userClient_ = std::make_unique<UserSpaceClient>(
            *clientMachine_, *clientNic_, *gpu_, clientDisk_.get(),
            clientConfig);
        userClient_->onPacketArrival = arrivalTap;
        break;
      }
      case ClientKind::Offloaded: {
        core::RuntimeConfig runtimeConfig;
        runtimeConfig.busMulticast = config_.busMulticast;
        clientRuntime_ = std::make_unique<core::Runtime>(*clientMachine_,
                                                         runtimeConfig);
        clientRuntime_->attachDevice(*clientNic_);
        clientRuntime_->attachDevice(*clientDisk_);
        clientRuntime_->attachDevice(*gpu_);

        clientEnv_ = std::make_shared<TivoEnv>();
        clientEnv_->mpeg = config_.mpeg;
        clientEnv_->network = network_.get();
        clientEnv_->videoPort = 5004;
        clientEnv_->nasNode = nasNode_;
        clientEnv_->peerNode = serverNode_;
        clientEnv_->nic = clientNic_.get();
        clientEnv_->disk = clientDisk_.get();
        clientEnv_->gpu = gpu_.get();
        clientEnv_->sendPeriod = config_.sendPeriod;
        clientEnv_->chunkBytes = config_.chunkBytes;
        clientEnv_->onPacketArrival = arrivalTap;
        offloadedClient_ =
            std::make_unique<OffloadedClient>(*clientRuntime_, clientEnv_);
        break;
      }
    }
}

void
Testbed::recordArrival(sim::SimTime now)
{
    if (now < measureStart_)
        return;
    if (haveArrival_) {
        result_.interarrivalMs.add(
            sim::toMilliseconds(now - lastArrival_));
    }
    lastArrival_ = now;
    haveArrival_ = true;
}

ScenarioResult
Testbed::run()
{
    measureStart_ = config_.warmup;

    // Deterministic chaos: execute the --chaos reset schedule against
    // this testbed's devices (matched by name). The reset itself is
    // the fault; the runtime's reset listeners drive the recovery.
    auto &chaosEngine = chaos::ChaosEngine::instance();
    if (chaosEngine.enabled()) {
        for (const chaos::ScheduledReset &reset :
             chaosEngine.spec().resets) {
            dev::Device *target = nullptr;
            for (dev::Device *candidate :
                 {static_cast<dev::Device *>(serverNic_.get()),
                  static_cast<dev::Device *>(clientNic_.get()),
                  static_cast<dev::Device *>(clientDisk_.get()),
                  static_cast<dev::Device *>(gpu_.get())})
                if (candidate && candidate->name() == reset.device)
                    target = candidate;
            if (!target) {
                LOG_WARN << "chaos: no device named '" << reset.device
                         << "' in this scenario; reset skipped";
                continue;
            }
            exec_->scheduleAt(
                reset.at, [target, at = reset.at,
                           downtime = reset.downtime]() {
                    chaos::ChaosEngine::instance().recordFault(
                        "device_reset", at);
                    target->reset(downtime);
                });
        }
    }

    // Kick off the workload.
    if (userClient_) {
        Status started = userClient_->startWatching();
        if (!started)
            result_.deploymentOk = false;
    }
    if (offloadedClient_) {
        Status started = offloadedClient_->startWatching();
        if (!started)
            result_.deploymentOk = false;
    }
    if (server_) {
        Status started = server_->startStreaming();
        if (!started)
            result_.deploymentOk = false;
    }

    // Let deployment and stream start-up settle.
    exec_->runUntil(config_.warmup);

    if (offloadedClient_ && !offloadedClient_->deployed())
        result_.deploymentOk = false;
    if (auto *offloaded =
            dynamic_cast<OffloadedVideoServer *>(server_.get());
        offloaded && !offloaded->deployed())
        result_.deploymentOk = false;

    // Measurement epoch: reset windows and sample periodically.
    hw::CpuMeter serverMeter(serverMachine_->cpu());
    hw::CpuMeter clientMeter(clientMachine_->cpu());
    serverMeter.beginWindow(exec_->now());
    clientMeter.beginWindow(exec_->now());
    serverMachine_->l2().beginWindow();
    clientMachine_->l2().beginWindow();

    const std::uint64_t serverBusBase =
        serverMachine_->bus().stats().transactions;
    const std::uint64_t clientBusBase =
        clientMachine_->bus().stats().transactions;

    const exec::TaskId sampler =
        exec_->schedulePeriodic(config_.sampleInterval, [&]() {
        result_.serverCpuPct.add(serverMeter.sample(exec_->now()) * 100.0);
        result_.clientCpuPct.add(clientMeter.sample(exec_->now()) * 100.0);
        result_.serverL2MissRate.add(
            serverMachine_->l2().windowStats().missRate());
        result_.clientL2MissRate.add(
            clientMachine_->l2().windowStats().missRate());
        serverMachine_->l2().beginWindow();
        clientMachine_->l2().beginWindow();
        // Keep the per-site busy/idle counters current even when no
        // flight recorder is on.
        obs::CpuAttribution::instance().sync(exec_->now());
        return true;
    });

    exec::TaskId flightSampler = 0; // ids start at 1; 0 = not scheduled
    if (config_.flightInterval > 0) {
        flightSampler =
            exec_->schedulePeriodic(config_.flightInterval, [this]() {
                // Order matters: attribution sync publishes fresh
                // busy/idle deltas, the capture snapshots them, and
                // the watchdog then judges the captured interval.
                obs::CpuAttribution::instance().sync(exec_->now());
                obs::FlightRecorder::instance().capture(exec_->now());
                obs::SloEngine::instance().evaluate(exec_->now());
                return true;
            });
    }

    exec::TaskId profileSampler = 0;
    if (config_.profileInterval > 0 &&
        obs::Profiler::instance().enabled()) {
        profileSampler =
            exec_->schedulePeriodic(config_.profileInterval, [this]() {
                obs::Profiler::instance().sample(exec_->now());
                return true;
            });
    }

    exec_->runUntil(config_.warmup + config_.duration);
    exec_->cancel(sampler); // the lambda references this frame's locals
    if (profileSampler != 0)
        exec_->cancel(profileSampler);
    // Final sync so busy+idle covers the whole run up to now().
    obs::CpuAttribution::instance().sync(exec_->now());
    if (flightSampler != 0) {
        exec_->cancel(flightSampler);
        // Final capture so the last partial window is not lost.
        obs::FlightRecorder::instance().capture(exec_->now());
    }
    if (obs::SloEngine::instance().hasRules())
        obs::SloEngine::instance().evaluate(exec_->now());

    // Quiesce.
    if (server_)
        server_->stop();
    if (userClient_)
        userClient_->stop();
    if (offloadedClient_)
        offloadedClient_->stop();
    if (receiverBound_) {
        clientNic_->unbindPort(5004);
        receiverBound_ = false;
    }

    if (server_)
        result_.chunksSent = server_->chunksSent();
    if (userClient_) {
        result_.packetsReceived = userClient_->packetsReceived();
        result_.framesDisplayed = userClient_->framesDisplayed();
    }
    if (offloadedClient_) {
        result_.packetsReceived = offloadedClient_->packetsReceived();
        result_.framesDisplayed = offloadedClient_->framesDisplayed();
    }
    result_.serverBusCrossings =
        serverMachine_->bus().stats().transactions - serverBusBase;
    result_.clientBusCrossings =
        clientMachine_->bus().stats().transactions - clientBusBase;
    result_.networkDrops = network_->stats().packetsDropped;
    return result_;
}

} // namespace hydra::tivo
