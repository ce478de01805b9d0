/**
 * @file
 * The modeled Ethernet fabric: nodes attached through a store-and-
 * forward switch (the paper's Dell PowerConnect 6024), each via a
 * full-duplex gigabit link. Delivery is in-order per sender with
 * serialization delay, fixed propagation latency, and optional drop.
 */

#ifndef HYDRA_NET_NETWORK_HH
#define HYDRA_NET_NETWORK_HH

#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

#include "common/result.hh"
#include "common/rng.hh"
#include "net/packet.hh"
#include "exec/executor.hh"

namespace hydra::net {

/** Fabric-wide configuration. */
struct NetworkConfig
{
    double linkGbps = 1.0;
    sim::SimTime linkLatency = sim::microseconds(5);
    sim::SimTime switchLatency = sim::microseconds(4);
    double dropProbability = 0.0;
    /** When nonzero, loss applies only to this destination port. */
    Port lossPort = 0;
    std::uint64_t seed = 7;
    std::size_t maxPayload = 64 * 1024;
};

/** Delivery counters for tests and benches. */
struct NetworkStats
{
    std::uint64_t packetsSent = 0;
    std::uint64_t packetsDelivered = 0;
    std::uint64_t packetsDropped = 0;
    std::uint64_t bytesDelivered = 0;
};

/** Star-topology switched network. */
class Network
{
  public:
    Network(exec::Executor &executor, NetworkConfig config);

    /** Attach a node; returns its address. */
    NodeId addNode(std::string name);

    /** Register a receive handler for (node, port). */
    Status bind(NodeId node, Port port, PacketHandler handler);

    /** Remove a handler. */
    void unbind(NodeId node, Port port);

    /**
     * Transmit a datagram. Fails fast on bad addresses or oversized
     * payloads; silently drops (with stats) on modeled loss.
     */
    Status send(Packet packet);

    /** Snapshot of the delivery counters (safe while senders run). */
    NetworkStats stats() const;
    std::string nodeName(NodeId node) const;
    std::size_t nodeCount() const;

  private:
    struct Node
    {
        std::string name;
        sim::SimTime txFreeAt = 0;
        sim::SimTime rxFreeAt = 0;
        std::map<Port, PacketHandler> handlers;
    };

    void deliver(Packet packet);

    exec::Executor &exec_;
    NetworkConfig config_;
    /**
     * One fabric is shared by every host of a fleet, so link-state
     * updates (txFreeAt/rxFreeAt), stats, and the loss RNG may be
     * reached from several threads concurrently. One lock
     * covers them all: the critical sections are a handful of integer
     * updates, far cheaper than the modeled wire times they compute.
     * Handlers are invoked WITHOUT the lock held (deliver copies the
     * handler out), so receive paths may re-enter send().
     */
    mutable std::mutex mutex_;
    std::vector<Node> nodes_;
    NetworkStats stats_;
    hydra::Rng rng_;
};

} // namespace hydra::net

#endif // HYDRA_NET_NETWORK_HH
