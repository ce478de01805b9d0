#include "openloop.hh"

#include <algorithm>
#include <cmath>

#include "common/bytes.hh"
#include "obs/attribution.hh"

namespace hydra::e2e {

ZipfSampler::ZipfSampler(std::size_t n, std::uint64_t seed)
    : cdf_(n), rng_(seed)
{
    double total = 0.0;
    for (std::size_t i = 0; i < n; ++i) {
        total += 1.0 / std::pow(static_cast<double>(i + 1), kZipfExponent);
        cdf_[i] = total;
    }
    for (double &c : cdf_)
        c /= total;
}

std::size_t
ZipfSampler::next()
{
    const double u = rng_.uniform();
    const auto it = std::upper_bound(cdf_.begin(), cdf_.end(), u);
    return std::min(static_cast<std::size_t>(it - cdf_.begin()),
                    cdf_.size() - 1);
}

sim::SimTime
dueTime(sim::SimTime start, std::uint64_t k, std::uint64_t ratePerSec)
{
    const unsigned __int128 offset =
        static_cast<unsigned __int128>(k) * 1'000'000'000u / ratePerSec;
    return start + static_cast<sim::SimTime>(offset);
}

Payload
encodeStamp(const Stamp &stamp, std::size_t messageBytes)
{
    PayloadBuilder builder;
    ByteWriter writer(builder.buffer());
    writer.writeU64(static_cast<std::uint64_t>(stamp.due));
    writer.writeU64(stamp.seq);
    writer.writeU32(stamp.stream);
    if (builder.buffer().size() < messageBytes)
        builder.buffer().resize(messageBytes, 0);
    return builder.seal();
}

std::optional<Stamp>
decodeStamp(const Payload &message)
{
    ByteReader reader(message.data(), message.size());
    auto due = reader.readU64();
    auto seq = reader.readU64();
    auto stream = reader.readU32();
    if (!due || !seq || !stream)
        return std::nullopt;
    return Stamp{static_cast<sim::SimTime>(due.value()), seq.value(),
                 stream.value()};
}

OpenLoop::OpenLoop(fleet::Fleet &fleet, OpenLoopConfig config, Spans &spans)
    : fleet_(fleet), config_(config), spans_(spans),
      zipf_(config.streams, config.seed)
{
}

OpenLoop::~OpenLoop()
{
    // Handlers capture this object: tear the channels down first.
    for (Stream &stream : streams_)
        if (stream.channel)
            stream.home->executive().destroyChannelById(
                stream.channel->id());
    fleet_.executor().drain();
}

bool
OpenLoop::registerStreams(std::string &error)
{
    streams_.resize(config_.streams);
    for (std::size_t i = 0; i < streams_.size(); ++i) {
        Stream &stream = streams_[i];
        const std::string key = "stream/" + std::to_string(i);
        {
            Spans::Scope span(spans_, SpanName::Placement);
            stream.home = &fleet_.homeOf(key);
            stream.target = &fleet_.homeOf(key + "#peer");
        }
        Spans::Scope span(spans_, SpanName::CreateChannel);
        core::ChannelConfig channelConfig;
        channelConfig.name = "e2e.stream";
        channelConfig.targetDevice = stream.target->nic().name();
        auto created = stream.home->executive().createChannel(
            channelConfig, stream.home->runtime().hostSite(),
            kMessageBytes);
        if (!created) {
            error = key + ": " + created.error().describe();
            return false;
        }
        stream.channel = created.value();
        core::ExecutionSite *site =
            stream.target->runtime().siteByName(channelConfig.targetDevice);
        if (!site) {
            error = key + ": no site " + channelConfig.targetDevice;
            return false;
        }
        auto endpoint = stream.channel->connectSite(*site);
        if (!endpoint) {
            error = key + ": " + endpoint.error().describe();
            return false;
        }
        const auto index = static_cast<std::uint32_t>(i);
        stream.channel->installHandler(
            endpoint.value(),
            [this, index](const Payload &message, std::size_t) {
                onDeliver(index, message);
            });
    }
    fleet_.executor().drain();
    return true;
}

std::size_t
OpenLoop::remoteStreams() const
{
    return static_cast<std::size_t>(
        std::count_if(streams_.begin(), streams_.end(),
                      [](const Stream &s) { return s.home != s.target; }));
}

void
OpenLoop::onDeliver(std::uint32_t index, const Payload &message)
{
    std::optional<Spans::Scope> span;
    if (traceMessages_)
        span.emplace(spans_, SpanName::Deliver);
    const sim::SimTime now = fleet_.executor().now();
    const std::optional<Stamp> stamp = decodeStamp(message);
    if (!stamp || stamp->stream != index || !step_) {
        ++badFrames_;
        return;
    }
    Stream &stream = streams_[index];
    if (stamp->seq != stream.expectSeq)
        ++seqGaps_;
    stream.expectSeq = stamp->seq + 1;

    const sim::SimTime latency = latencyFromDue(*stamp, now);
    step_->latencyNs.add(static_cast<double>(latency));
    ++step_->delivered;
    ++step_->deliveredPerHost[stream.target->index()];
    if (stream.home != stream.target)
        ++crossHost_;
    if (latency <= kLatencyLimit)
        ++step_->withinLimit;
    lastDelivery_ = now;
}

void
OpenLoop::pace()
{
    std::optional<Spans::Scope> pacerSpan;
    if (traceMessages_)
        pacerSpan.emplace(spans_, SpanName::Pacer);
    exec::Executor &executor = fleet_.executor();
    const sim::SimTime now = executor.now();
    while (nextK_ < total_) {
        const sim::SimTime due = dueTime(stepStart_, nextK_, step_->ratePerSec);
        if (due > now) {
            executor.scheduleAt(due, [this]() { pace(); });
            return;
        }
        const std::size_t index = zipf_.next();
        Stream &stream = streams_[index];
        touched_[index] = true;
        const auto late = static_cast<std::uint64_t>(now - due);
        lateSum_ += late;
        step_->maxLateNs = std::max(step_->maxLateNs, late);

        // A refused write takes no sequence number, so it cannot show
        // up as a gap at the receiver.
        const Stamp stamp{due, stream.nextSeq,
                          static_cast<std::uint32_t>(index)};
        Payload message;
        {
            std::optional<Spans::Scope> span;
            if (traceMessages_)
                span.emplace(spans_, SpanName::PayloadBuild);
            message = encodeStamp(stamp, kMessageBytes);
        }
        std::optional<Spans::Scope> span;
        if (traceMessages_)
            span.emplace(spans_, SpanName::Write);
        if (stream.channel->write(std::move(message)))
            ++stream.nextSeq;
        else
            ++step_->writeFailures;
        ++nextK_;
    }
}

StepResult
OpenLoop::runStep(std::uint64_t ratePerSec, sim::SimTime window,
                  bool traceMessages)
{
    exec::Executor &executor = fleet_.executor();
    StepResult result;
    result.ratePerSec = ratePerSec;
    result.window = window;
    result.deliveredPerHost.assign(fleet_.hostCount(), 0);

    step_ = &result;
    traceMessages_ = traceMessages && spans_.enabled();
    touched_.assign(streams_.size(), false);
    nextK_ = 0;
    lateSum_ = 0;
    stepStart_ = executor.now();
    lastDelivery_ = stepStart_;
    total_ = static_cast<std::uint64_t>(
        static_cast<unsigned __int128>(window) * ratePerSec / 1'000'000'000u);
    result.offered = total_;

    obs::CpuAttribution::instance().sync(executor.now());
    const BusySplit before = readBusy();

    executor.scheduleAt(stepStart_, [this]() { pace(); });
    const sim::SimTime end = stepStart_ + window;
    sim::SimTime until = stepStart_;
    auto slice = [&]() {
        until += kSlice;
        const auto wallStart = WallClock::now();
        {
            Spans::Scope span(spans_, SpanName::Slice);
            executor.runUntil(until);
        }
        result.sliceWallS.push_back(secondsSince(wallStart));
    };
    while (until < end)
        slice();
    while (result.delivered + result.writeFailures < result.offered &&
           until < end + kMaxDrain)
        slice();

    obs::CpuAttribution::instance().sync(executor.now());
    const BusySplit after = readBusy();
    result.hostBusyNs = after.hostNs - before.hostNs;
    result.deviceBusyNs = after.deviceNs - before.deviceNs;
    result.elapsed = std::max(lastDelivery_ - stepStart_, window);
    result.activeStreams = static_cast<std::uint64_t>(
        std::count(touched_.begin(), touched_.end(), true));
    result.meanLateNs = result.offered
                            ? static_cast<double>(lateSum_) /
                                  static_cast<double>(result.offered)
                            : 0.0;
    step_ = nullptr;
    traceMessages_ = false;
    return result;
}

} // namespace hydra::e2e
