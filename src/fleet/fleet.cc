#include "fleet/fleet.hh"

#include <algorithm>
#include <mutex>

#include "common/bytes.hh"
#include "common/logging.hh"
#include "obs/metrics.hh"
#include "sim/time.hh"

namespace hydra::fleet {

namespace {

/** Remote-transport cost constants (paper-scale: gigabit fabric). */
struct RemoteCosts
{
    /** Host/firmware cycles to build or retire one tx descriptor. */
    std::uint64_t txDescriptorCycles = 400;
    /** Endpoint-site cycles to consume one delivered frame. */
    std::uint64_t rxDescriptorCycles = 300;
    /** Sender-site cycles for a same-machine enqueue (cf. local). */
    std::uint64_t enqueueCycles = 250;
    /** Same-machine leg of a multicast: in-memory enqueue latency. */
    sim::SimTime localLatency = sim::nanoseconds(600);
};

constexpr RemoteCosts kCosts{};

/** Per-transport instruments, mirroring providers.cc's locals. */
struct RemoteMetrics
{
    obs::Counter &sent = obs::counter("channel.messages_sent",
                                      {{"transport", "remote"}});
    obs::Counter &bytes = obs::counter("channel.bytes_sent",
                                       {{"transport", "remote"}});
    obs::Counter &dropped = obs::counter("channel.messages_dropped",
                                         {{"transport", "remote"}});
    /**
     * The exactly-one wire copy per remote leg: header + body staged
     * into the frame buffer. Zero increments here would mean the wire
     * was never exercised; more than one per message is a regression
     * the fleet test asserts against.
     */
    obs::Counter &wireCopies = obs::counter(
        "channel.payload_copies", {{"buffering", "wire"}});
    /** Frames that arrived for a since-destroyed ChannelId. */
    obs::Counter &orphans = obs::counter("fleet.orphan_frames");
    /** Per-sender sequence gaps observed by receivers (loss/reorder;
     * zero on a lossless fabric — the FIFO test's invariant). */
    obs::Counter &seqGaps = obs::counter("fleet.seq_gaps");
};

RemoteMetrics &
remoteMetrics()
{
    static RemoteMetrics metrics;
    return metrics;
}

} // namespace

/**
 * Cross-machine transport: frames messages over the sender host's
 * NIC onto the shared fabric. FIFO per (sender endpoint, receiver
 * endpoint) holds structurally: one sender endpoint lives on one
 * host, its frames serialize through that host's DMA engine and
 * uplink, and the fabric delivers in order per (src, dst) node pair.
 *
 * Thread model: writeFrom may be called from any thread; delivery
 * runs on the main loop (scheduled events). A per-channel recursive
 * mutex guards endpoints_/stats_; recursive so a receive handler may
 * write back into the same channel synchronously.
 */
class RemoteChannel : public core::Channel
{
  public:
    RemoteChannel(core::ChannelConfig config, Fleet &fleet, Host &home)
        : Channel(std::move(config)), fleet_(fleet), home_(home),
          wireLimit_(fleet.config().network.maxPayload > kWireHeaderBytes
                         ? fleet.config().network.maxPayload -
                               kWireHeaderBytes
                         : 0)
    {
    }

    ~RemoteChannel() override
    {
        // Unroute everywhere first: after this no fabric handler can
        // reach us (removeRoute blocks on any in-flight delivery).
        for (Host *host : routedHosts_)
            host->removeRoute(id());
    }

    Status
    writeFrom(std::size_t from, Payload message) override
    {
        std::lock_guard<std::recursive_mutex> lock(mutex_);
        if (closed_)
            return Status(ErrorCode::ChannelClosed, "channel closed");
        if (from >= endpoints_.size())
            return Status(ErrorCode::OutOfRange, "bad endpoint");
        if (endpoints_.size() < 2)
            return Status(ErrorCode::ChannelNotConnected,
                          "no peer endpoint");
        if (message.size() > config_.maxMessageBytes ||
            message.size() > wireLimit_) {
            remoteMetrics().dropped.increment();
            return Status(ErrorCode::MessageTooLarge,
                          "message exceeds wire frame limit");
        }

        ensureRoutes();

        ++stats_.messagesSent;
        stats_.bytesSent += message.size();
        RemoteMetrics &metrics = remoteMetrics();
        metrics.sent.increment();
        metrics.bytes.add(message.size());

        const sim::SimTime sentAt = home_.machine().executor().now();
        Wire &src = wires_[from];

        for (std::size_t to = 0; to < endpoints_.size(); ++to) {
            if (to == from)
                continue;
            if (wires_[to].host == src.host) {
                sendLocalLeg(from, to, message, sentAt);
                continue;
            }
            sendWireLeg(from, to, message, sentAt);
        }
        return Status::success();
    }

  protected:
    Result<std::size_t>
    addEndpoint(core::ExecutionSite &site) override
    {
        Host *owner = fleet_.hostOf(site.machine());
        if (!owner)
            return Error(ErrorCode::InvalidArgument,
                         "site's machine is not a fleet member");
        std::size_t index = 0;
        {
            std::lock_guard<std::recursive_mutex> lock(mutex_);
            auto added = Channel::addEndpoint(site);
            if (!added)
                return added;
            index = added.value();
            Wire wire;
            wire.host = owner;
            if (site.isHost())
                wire.txBuffer = owner->machine().os().allocRegion(
                    config_.maxMessageBytes + kWireHeaderBytes);
            wires_.push_back(std::move(wire));
            for (Wire &w : wires_) {
                w.txSeq.resize(wires_.size(), 0);
                w.rxSeen.resize(wires_.size(), 0);
            }
        }
        // Outside the channel lock: route registration takes the
        // host's fabric lock, which delivery holds while calling back
        // into the channel — never nest the two in reverse order.
        ensureRoutes();
        return index;
    }

  private:
    friend class Host;

    /** Per-endpoint wire state, parallel to endpoints_. */
    struct Wire
    {
        Host *host = nullptr;
        /** Host-side tx staging region (0 for device endpoints). */
        hw::Addr txBuffer = 0;
        /** txSeq[to]: next sequence this endpoint sends to `to`. */
        std::vector<std::uint64_t> txSeq;
        /** rxSeen[from]: frames received here from `from`. */
        std::vector<std::uint64_t> rxSeen;
    };

    /**
     * Register this channel's id on every endpoint host's fabric.
     * Lazy because the creator endpoint attaches before the executive
     * binds the id; by the time a remote endpoint attaches (or the
     * first write happens) the id is final.
     */
    void
    ensureRoutes()
    {
        if (id() == core::kInvalidChannel)
            return;
        std::vector<Host *> owners;
        {
            std::lock_guard<std::recursive_mutex> lock(mutex_);
            for (const Wire &wire : wires_)
                if (std::find(routedHosts_.begin(), routedHosts_.end(),
                              wire.host) == routedHosts_.end()) {
                    routedHosts_.push_back(wire.host);
                    owners.push_back(wire.host);
                }
        }
        for (Host *host : owners)
            host->addRoute(id(), this);
    }

    /** Same-machine leg of a multicast: zero-copy in-memory enqueue
     * (deliberately no channel.payload_copies increment — that
     * counter counts copies performed, and this path performs none).
     * The channel is resolved by id at delivery time, so a stream
     * destroyed with this leg in flight is dropped, not dereferenced. */
    void
    sendLocalLeg(std::size_t from, std::size_t to, const Payload &message,
                 sim::SimTime sentAt)
    {
        if (endpoints_[from].site)
            endpoints_[from].site->run(kCosts.enqueueCycles);
        Host *owner = wires_[from].host;
        const core::ChannelId channel = id();
        owner->machine().executor().schedule(
            kCosts.localLatency,
            [owner, channel, from, to, message, sentAt]() {
                auto *resolved = static_cast<RemoteChannel *>(
                    owner->executive().findChannel(channel));
                if (!resolved)
                    return;
                resolved->deliverLocal(to, from, message, sentAt);
            });
    }

    /** Cross-machine leg: ONE copy into the wire frame, then the
     * sender host's NIC (host path: DMA crossing; device path: pure
     * firmware) puts it on the fabric. */
    void
    sendWireLeg(std::size_t from, std::size_t to, const Payload &message,
                sim::SimTime sentAt)
    {
        Wire &src = wires_[from];
        const std::uint64_t seq = src.txSeq[to]++;

        PayloadBuilder builder;
        ByteWriter writer(builder.buffer());
        writer.writeU64(id());
        writer.writeU32(static_cast<std::uint32_t>(from));
        writer.writeU32(static_cast<std::uint32_t>(to));
        writer.writeU64(seq);
        writer.writeU64(static_cast<std::uint64_t>(sentAt));
        builder.buffer().insert(builder.buffer().end(), message.begin(),
                                message.end());
        remoteMetrics().wireCopies.increment();

        net::Packet packet;
        packet.dst = wires_[to].host->node();
        packet.dstPort = endpoints_[to].site->isHost() ? kFleetHostPort
                                                       : kFleetDevicePort;
        packet.srcPort = endpoints_[from].site->isHost()
                             ? kFleetHostPort
                             : kFleetDevicePort;
        packet.seq = seq;
        packet.payload = builder.seal();

        ++stats_.busCrossings;
        if (endpoints_[from].site)
            endpoints_[from].site->run(kCosts.txDescriptorCycles);
        Status sent = endpoints_[from].site->isHost()
                          ? src.host->nic().sendFromHost(
                                std::move(packet), src.txBuffer)
                          : src.host->nic().sendFromDevice(
                                std::move(packet));
        if (!sent) {
            remoteMetrics().dropped.increment();
            ++stats_.messagesDropped;
        }
    }

    void
    deliverLocal(std::size_t to, std::size_t from, const Payload &message,
                 sim::SimTime sentAt)
    {
        std::lock_guard<std::recursive_mutex> lock(mutex_);
        if (closed_ || to >= endpoints_.size())
            return;
        deliverTo(to, message, from, sentAt);
    }

    /** Inbound frame from the owning host's fabric table (called with
     * that host's fabric lock held — see Host::onFabric). */
    void
    deliverWire(std::size_t to, std::size_t from, std::uint64_t seq,
                sim::SimTime sentAt, const Payload &body)
    {
        std::lock_guard<std::recursive_mutex> lock(mutex_);
        if (closed_ || to >= endpoints_.size() || from >= endpoints_.size())
            return;
        Wire &dst = wires_[to];
        if (seq != dst.rxSeen[from])
            remoteMetrics().seqGaps.increment();
        dst.rxSeen[from] = seq + 1;
        if (endpoints_[to].site)
            endpoints_[to].site->run(kCosts.rxDescriptorCycles);
        deliverTo(to, body, from, sentAt);
    }

    Fleet &fleet_;
    Host &home_;
    std::size_t wireLimit_;
    std::recursive_mutex mutex_;
    std::vector<Wire> wires_;
    /** Hosts whose fabric tables carry our id (dtor unregisters). */
    std::vector<Host *> routedHosts_;
};

namespace {

/** Serves cross-machine channel pairs between fleet members. */
class RemoteChannelProvider : public core::ChannelProvider
{
  public:
    RemoteChannelProvider(Fleet &fleet, Host &home)
        : fleet_(fleet), home_(home)
    {
    }

    const std::string &name() const override { return name_; }

    bool
    canServe(const core::ChannelConfig &config,
             core::ExecutionSite &creator,
             core::ExecutionSite *target) const override
    {
        (void)config;
        if (!target)
            return false; // a connectionless channel stays local
        if (&creator.machine() == &target->machine())
            return false; // intra-host belongs to local/dma-ring
        return fleet_.hostOf(creator.machine()) != nullptr &&
               fleet_.hostOf(target->machine()) != nullptr;
    }

    core::ChannelCost
    estimateCost(const core::ChannelConfig &config,
                 core::ExecutionSite &creator,
                 core::ExecutionSite *target,
                 std::size_t bytes) const override
    {
        (void)config;
        (void)creator;
        (void)target;
        const net::NetworkConfig &net = fleet_.config().network;
        core::ChannelCost cost;
        // Uplink + downlink serialization, propagation both ways, the
        // switch, and the DMA/firmware/interrupt overheads on both
        // ends (~6 us on the modeled gigabit testbed).
        cost.perMessageLatency =
            2 * sim::transferTime(bytes + kWireHeaderBytes + 42,
                                  net.linkGbps) +
            2 * net.linkLatency + net.switchLatency +
            sim::microseconds(6);
        cost.throughputGbps = net.linkGbps;
        return cost;
    }

    std::unique_ptr<core::Channel>
    create(const core::ChannelConfig &config,
           core::ExecutionSite &creator) override
    {
        auto channel =
            std::make_unique<RemoteChannel>(config, fleet_, home_);
        channel->connectCreator(creator);
        return channel;
    }

  private:
    Fleet &fleet_;
    Host &home_;
    std::string name_ = "remote";
};

} // namespace

Host::Host(exec::Executor &executor, net::Network &network,
           const FleetConfig &config, std::size_t index)
    : exec_(executor), index_(index),
      name_("host" + std::to_string(index))
{
    hw::MachineConfig machineConfig = config.machine;
    machineConfig.name = name_;
    machineConfig.noiseSeed = config.seed * 1000003 + index * 131 + 1;
    if (config.quietHosts) {
        machineConfig.os.wakeupNoiseSigma = 0;
        machineConfig.os.preemptionProbability = 0.0;
        machineConfig.os.housekeepingJitterSigma = 0;
    }
    machine_ = std::make_unique<hw::Machine>(exec_, machineConfig);
    if (config.backgroundLoad)
        machine_->os().startBackgroundLoad();

    node_ = network.addNode(name_ + "-nic");
    dev::DeviceConfig nicConfig = dev::ProgrammableNic::nicDefaultConfig();
    nicConfig.name = name_ + "-nic";
    nicConfig.noiseSeed = machineConfig.noiseSeed + 7;
    nic_ = std::make_unique<dev::ProgrammableNic>(
        exec_, machine_->bus(), network, node_, nicConfig,
        config.nicCosts);

    runtime_ = std::make_unique<core::Runtime>(*machine_, config.runtime);
    Status attached = runtime_->attachDevice(*nic_);
    if (!attached) {
        LOG_DEBUG << name_
                  << ": nic attach failed: " << attached.error().describe();
    }

    // Fabric demux: ONE device-path port and ONE host-path port per
    // host; frames carry the ChannelId, so stream count is unbounded
    // by the 16-bit port space.
    fabricRxBuffer_ = machine_->os().allocRegion(64 * 1024);
    nic_->bindDevicePort(kFleetDevicePort, [this](const net::Packet &p) {
        onFabric(p);
    });
    nic_->bindHostPort(kFleetHostPort, machine_->os(), fabricRxBuffer_,
                       [this](const net::Packet &p) { onFabric(p); });
}

Host::~Host()
{
    nic_->unbindPort(kFleetDevicePort);
    nic_->unbindPort(kFleetHostPort);
}

std::uint64_t
Host::orphanFrames() const
{
    std::lock_guard<std::mutex> lock(fabricMutex_);
    return orphans_;
}

void
Host::addRoute(core::ChannelId id, RemoteChannel *channel)
{
    std::lock_guard<std::mutex> lock(fabricMutex_);
    routes_[id] = channel;
}

void
Host::removeRoute(core::ChannelId id)
{
    std::lock_guard<std::mutex> lock(fabricMutex_);
    routes_.erase(id);
}

void
Host::onFabric(const net::Packet &packet)
{
    ByteReader reader(packet.payload.data(), packet.payload.size());
    auto id = reader.readU64();
    auto from = reader.readU32();
    auto to = reader.readU32();
    auto seq = reader.readU64();
    auto sentAt = reader.readU64();
    if (!id || !from || !to || !seq || !sentAt) {
        LOG_DEBUG << name_ << ": malformed fleet frame ("
                  << packet.payload.size() << " bytes)";
        return;
    }
    const Payload body = packet.payload.slice(
        kWireHeaderBytes, packet.payload.size() - kWireHeaderBytes);

    // Route under the fabric lock and deliver while still holding it:
    // a concurrent destroyChannel blocks in removeRoute until we are
    // done, so the channel cannot be freed under us.
    std::lock_guard<std::mutex> lock(fabricMutex_);
    auto it = routes_.find(id.value());
    if (it == routes_.end()) {
        ++orphans_;
        remoteMetrics().orphans.increment();
        return;
    }
    it->second->deliverWire(to.value(), from.value(), seq.value(),
                            static_cast<sim::SimTime>(sentAt.value()),
                            body);
}

Fleet::Fleet(exec::Executor &executor, FleetConfig config)
    : exec_(executor), config_(std::move(config))
{
    net_ = std::make_unique<net::Network>(exec_, config_.network);
    const std::size_t count = config_.hosts ? config_.hosts : 1;
    hosts_.reserve(count);
    std::vector<std::string> names;
    for (std::size_t i = 0; i < count; ++i) {
        hosts_.push_back(
            std::make_unique<Host>(exec_, *net_, config_, i));
        names.push_back(hosts_.back()->name());
    }
    ring_.rebuild(names, config_.vnodesPerHost);

    // Stitch the shards: cross-host name resolution plus the remote
    // provider, per host.
    for (auto &host : hosts_) {
        host->executive().setRemoteSiteLookup(
            [this](const std::string &name) { return findSite(name); });
        host->executive().registerProvider(
            std::make_unique<RemoteChannelProvider>(*this, *host));
    }
}

Fleet::~Fleet() = default;

Host *
Fleet::hostByName(std::string_view name)
{
    for (auto &host : hosts_)
        if (host->name() == name)
            return host.get();
    return nullptr;
}

Host *
Fleet::hostOf(const hw::Machine &machine)
{
    for (auto &host : hosts_)
        if (&host->machine() == &machine)
            return host.get();
    return nullptr;
}

Host &
Fleet::homeOf(std::string_view key)
{
    Host *host = hostByName(ring_.hostFor(key));
    return host ? *host : *hosts_.front();
}

core::ExecutionSite *
Fleet::findSite(const std::string &name)
{
    if (name == "host")
        return nullptr; // the generic alias never crosses hosts
    for (auto &host : hosts_)
        if (core::ExecutionSite *site = host->runtime().siteByName(name))
            return site;
    return nullptr;
}

} // namespace hydra::fleet
