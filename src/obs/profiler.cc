#include "obs/profiler.hh"

#include <sstream>

#include "obs/metrics.hh"
#include "obs/trace.hh"

namespace hydra::obs {

ActivityScope::ActivityScope(SiteActivitySlot *slot,
                             const ActivityLabel *label)
{
    if (!slot || !label || !Profiler::instance().enabled())
        return;
    slot_ = slot;
    label_ = label;
    slot_->current.store(label_, std::memory_order_relaxed);
}

ActivityScope::~ActivityScope()
{
    finish(0);
}

void
ActivityScope::finish(std::uint64_t endNs)
{
    if (!slot_)
        return;
    slot_->current.store(nullptr, std::memory_order_relaxed);
    slot_->last.store(label_, std::memory_order_relaxed);
    if (endNs != 0)
        slot_->lastEndNs.store(endNs, std::memory_order_relaxed);
    slot_ = nullptr;
    label_ = nullptr;
}

Profiler &
Profiler::instance()
{
    static Profiler profiler;
    return profiler;
}

void
Profiler::enable(std::uint64_t intervalNs)
{
    intervalNs_.store(intervalNs > 0 ? intervalNs : 1,
                      std::memory_order_relaxed);
    enabled_.store(true, std::memory_order_relaxed);
}

void
Profiler::disable()
{
    enabled_.store(false, std::memory_order_relaxed);
}

void
Profiler::clear()
{
    std::lock_guard<std::mutex> lock(mutex_);
    folded_.clear();
    samples_ = 0;
    for (SiteActivitySlot &slot : slots_) {
        slot.current.store(nullptr, std::memory_order_relaxed);
        slot.last.store(nullptr, std::memory_order_relaxed);
        slot.lastEndNs.store(0, std::memory_order_relaxed);
    }
}

SiteActivitySlot *
Profiler::slotFor(const std::string &site)
{
    std::lock_guard<std::mutex> lock(mutex_);
    for (SiteActivitySlot &slot : slots_)
        if (slot.site == site)
            return &slot;
    slots_.emplace_back();
    slots_.back().site = site;
    return &slots_.back();
}

const ActivityLabel *
Profiler::intern(const std::string &offcode, const std::string &phase)
{
    std::lock_guard<std::mutex> lock(mutex_);
    for (const ActivityLabel &label : labels_)
        if (label.offcode == offcode && label.phase == phase)
            return &label;
    labels_.push_back(ActivityLabel{offcode, phase});
    return &labels_.back();
}

void
Profiler::sample(std::uint64_t nowNs)
{
    if (!enabled())
        return;
    const std::uint64_t interval =
        intervalNs_.load(std::memory_order_relaxed);
    std::lock_guard<std::mutex> lock(mutex_);
    ++samples_;
    static Counter &taken = counter("obs.profiler.samples");
    taken.increment();
    for (SiteActivitySlot &slot : slots_) {
        // Sampling rule (header comment): open scope beats recent
        // scope beats idle. "Recent" means the last scope's virtual
        // end time lies within one interval of now —
        // in a discrete-event engine the sampler almost always fires
        // between events, so the recency window is what attributes
        // virtual time to the work that actually occupied it.
        const ActivityLabel *label =
            slot.current.load(std::memory_order_relaxed);
        double level = 1.0;
        if (!label) {
            const std::uint64_t lastEnd =
                slot.lastEndNs.load(std::memory_order_relaxed);
            if (lastEnd != 0 && lastEnd + interval > nowNs)
                label = slot.last.load(std::memory_order_relaxed);
        }
        std::string key = slot.site;
        if (label) {
            key += ';';
            key += label->offcode;
            key += ';';
            key += label->phase;
        } else {
            key += ";idle";
            level = 0.0;
        }
        ++folded_[key];
#if HYDRA_OBS_TRACING
        if (HYDRA_TRACE_ACTIVE()) {
            const TraceLane lane =
                Tracer::instance().lane("profiler", slot.site);
            HYDRA_TRACE_COUNTER(lane, "site.active", nowNs, level);
        }
#else
        (void)level;
#endif
    }
}

std::uint64_t
Profiler::samplesTaken() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return samples_;
}

std::string
Profiler::foldedStacks() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    std::ostringstream out;
    // std::map iterates in key order, so the output is byte-stable
    // across identical runs regardless of slot creation order.
    for (const auto &[key, count] : folded_)
        out << key << ' ' << count << '\n';
    return out.str();
}

} // namespace hydra::obs
