/**
 * @file
 * The benchmark's own seeded open-loop generator for fleet::Fleet.
 *
 * Open loop: message k of a step is due at start + k / rate whatever
 * the system is doing, so a stall delays later messages instead of
 * slowing the generator. Each message carries its due time, and
 * latency is measured from it (not from when the pacer happened to
 * run), so generator lateness counts against the system. Streams are
 * chosen by a seeded Zipf draw over every registered stream, so a
 * bigger registry spreads a fixed rate over more active streams.
 *
 * Everything runs on the sim engine's thread; the only calls into the
 * program are public: Fleet::homeOf, ChannelExecutive::createChannel,
 * Channel::connectSite / installHandler / write, Executor::runUntil.
 */

#ifndef HYDRA_E2E_OPENLOOP_HH
#define HYDRA_E2E_OPENLOOP_HH

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "common/payload.hh"
#include "common/rng.hh"
#include "common/stats.hh"
#include "fleet/fleet.hh"
#include "spans.hh"

namespace hydra::e2e {

/**
 * Zipf exponent of the stream choice. The paper gives no traffic model
 * for a fleet, so this is an assumption: 0.99 is YCSB's default
 * zipfian constant (Cooper et al., "Benchmarking Cloud Serving Systems
 * with YCSB", SoCC 2010), the usual stand-in for skewed key popularity.
 * It alone sets the host skew (the busiest host receives about 1.5x
 * the least busy), and with it where the fleet's knee lies.
 */
inline constexpr double kZipfExponent = 0.99;

/** Seeded Zipf(kZipfExponent) sampler over ranks [0, n). */
class ZipfSampler
{
  public:
    ZipfSampler(std::size_t n, std::uint64_t seed);

    std::size_t next();

  private:
    std::vector<double> cdf_;
    Rng rng_;
};

/** Integer due time of message @p k at @p ratePerSec from @p start. */
sim::SimTime dueTime(sim::SimTime start, std::uint64_t k,
                     std::uint64_t ratePerSec);

/** What every message carries in its first bytes. */
struct Stamp
{
    sim::SimTime due = 0;
    std::uint64_t seq = 0;
    std::uint32_t stream = 0;
};

/** Encode @p stamp padded to @p messageBytes into a pooled Payload. */
Payload encodeStamp(const Stamp &stamp, std::size_t messageBytes);
std::optional<Stamp> decodeStamp(const Payload &message);

/** Latency as the benchmark defines it: delivery minus due time. */
inline sim::SimTime
latencyFromDue(const Stamp &stamp, sim::SimTime deliveredAt)
{
    return deliveredAt - stamp.due;
}

/** Bytes per message, stamp included. */
inline constexpr std::size_t kMessageBytes = 256;
/** Virtual length of one runUntil slice. */
inline constexpr sim::SimTime kSlice = sim::milliseconds(10);
/** Give up draining a step after this much extra virtual time. */
inline constexpr sim::SimTime kMaxDrain = sim::seconds(2);
/** p99.9 delivery limit (from due time) a step must meet. */
inline constexpr sim::SimTime kLatencyLimit = sim::milliseconds(1);

struct OpenLoopConfig
{
    std::size_t streams = 0;
    std::uint64_t seed = 1;
};

/** One fixed-rate step of offered load. */
struct StepResult
{
    std::uint64_t ratePerSec = 0;
    sim::SimTime window = 0;
    std::uint64_t offered = 0;
    std::uint64_t delivered = 0;
    std::uint64_t writeFailures = 0;
    /** Delivery latency from due time, ns, one sample per message. */
    SampleSet latencyNs;
    /** Distinct streams written in this step. */
    std::uint64_t activeStreams = 0;
    /** How late the generator wrote messages (now - due), ns. */
    std::uint64_t maxLateNs = 0;
    double meanLateNs = 0.0;
    /** Virtual time from step start until the last delivery. */
    sim::SimTime elapsed = 0;
    /** Busy ns over the step (host CPUs; device firmware CPUs). */
    std::uint64_t hostBusyNs = 0;
    std::uint64_t deviceBusyNs = 0;
    /** Deliveries per receiving host. */
    std::vector<std::uint64_t> deliveredPerHost;
    /** Messages whose latency was within kLatencyLimit. */
    std::uint64_t withinLimit = 0;
    /** Wall seconds spent in runUntil slices for this step. */
    std::vector<double> sliceWallS;
};

class OpenLoop
{
  public:
    OpenLoop(fleet::Fleet &fleet, OpenLoopConfig config, Spans &spans);
    ~OpenLoop();

    OpenLoop(const OpenLoop &) = delete;
    OpenLoop &operator=(const OpenLoop &) = delete;

    /** Create every stream's channel (setup). Returns false on error. */
    bool registerStreams(std::string &error);

    /**
     * Offer @p ratePerSec for @p window of virtual time, then run
     * until every message is delivered (or maxDrain passes).
     * @p traceMessages records per-message spans.
     */
    StepResult runStep(std::uint64_t ratePerSec, sim::SimTime window,
                       bool traceMessages);

    std::size_t registered() const { return streams_.size(); }
    std::size_t remoteStreams() const;
    /** Deliveries whose per-stream sequence number was not the next. */
    std::uint64_t seqGaps() const { return seqGaps_; }
    /** Deliveries that could not be decoded. */
    std::uint64_t badFrames() const { return badFrames_; }
    /** Deliveries on streams whose endpoints sit on different hosts. */
    std::uint64_t crossHostDeliveries() const { return crossHost_; }

  private:
    struct Stream
    {
        fleet::Host *home = nullptr;
        fleet::Host *target = nullptr;
        core::Channel *channel = nullptr;
        std::uint64_t nextSeq = 0;
        std::uint64_t expectSeq = 0;
    };

    void onDeliver(std::uint32_t index, const Payload &message);
    void pace();

    fleet::Fleet &fleet_;
    OpenLoopConfig config_;
    Spans &spans_;
    ZipfSampler zipf_;
    std::vector<Stream> streams_;
    std::uint64_t seqGaps_ = 0;
    std::uint64_t badFrames_ = 0;
    std::uint64_t crossHost_ = 0;

    // Current step.
    StepResult *step_ = nullptr;
    sim::SimTime stepStart_ = 0;
    sim::SimTime lastDelivery_ = 0;
    std::uint64_t nextK_ = 0;
    std::uint64_t total_ = 0;
    std::uint64_t lateSum_ = 0;
    bool traceMessages_ = false;
    std::vector<bool> touched_;
};

} // namespace hydra::e2e

#endif // HYDRA_E2E_OPENLOOP_HH
