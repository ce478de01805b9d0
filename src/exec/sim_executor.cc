#include "exec/sim_executor.hh"

#include <algorithm>

#include "chaos/chaos.hh"
#include "obs/metrics.hh"

namespace hydra::exec {

namespace {

/** Process-wide instruments for the deterministic engine. */
struct SimExecMetrics
{
    obs::Counter &posts =
        obs::counter("exec.posts", {{"executor", "sim"}});
    obs::Gauge &sites = obs::gauge("exec.sites", {{"executor", "sim"}});
};

SimExecMetrics &
simExecMetrics()
{
    static SimExecMetrics metrics;
    return metrics;
}

} // namespace

SimExecutor::SimExecutor()
{
    simExecMetrics();
}

SiteId
SimExecutor::addSite(const std::string &name)
{
    siteNames_.push_back(name);
    simExecMetrics().sites.set(static_cast<double>(siteNames_.size()));
    return static_cast<SiteId>(siteNames_.size());
}

void
SimExecutor::post(SiteId site, Callback fn)
{
    // Site affinity is meaningless on a single thread; a zero-delay
    // event preserves global FIFO order, which keeps runs
    // deterministic (the property the sim engine exists to provide).
    simExecMetrics().posts.increment();

    chaos::ChaosEngine &chaosEngine = chaos::ChaosEngine::instance();
    if (chaosEngine.enabled()) {
        // Chaos under sim is still deterministic: a stalled site
        // parks subsequent posts at a fixed future instant, a slow
        // draw delays one task — both via scheduleAt, which preserves
        // FIFO among equal timestamps, so a seeded run replays
        // byte-for-byte.
        const Time now = sim_.now();
        sim::SimTime amount = 0;
        if (chaosEngine.stallSite(now, amount)) {
            if (stallUntil_.size() <= site)
                stallUntil_.resize(site + 1, 0);
            stallUntil_[site] = std::max(stallUntil_[site], now + amount);
        }
        Time when = now;
        if (site < stallUntil_.size())
            when = std::max(when, stallUntil_[site]);
        if (chaosEngine.slowPost(now, amount))
            when += amount;
        if (when > now) {
            sim_.scheduleAt(when, std::move(fn));
            return;
        }
    }
    sim_.schedule(0, std::move(fn));
}

void
SimExecutor::postBatch(SiteId site, std::span<Callback> fns)
{
    // One zero-delay event per element, in span order: exactly the
    // event ids, counters, and dispatch order N individual post()
    // calls would produce, so a batched run replays byte-identical to
    // an unbatched one. Batching under sim is a pure API convenience
    // (and chaos draws fire per element, same as unbatched).
    for (Callback &fn : fns)
        post(site, std::move(fn));
}

void
SimExecutor::drain()
{
    // Run everything due at the current instant — post() chains
    // schedule zero-delay events, so a pipeline drains fully — but
    // leave future timers for runUntil().
    sim_.runUntil(sim_.now());
}

std::unique_ptr<Executor>
makeExecutor(ExecutorKind)
{
    return std::make_unique<SimExecutor>();
}

} // namespace hydra::exec
