/**
 * @file
 * The execution engine interface (DESIGN.md §10).
 *
 * Every model in the substrate — hardware, OS, devices, network,
 * channels, the TiVo pipeline — advances by scheduling callbacks on
 * an Executor. The interface mirrors the discrete-event simulator it
 * was extracted from (now/schedule/cancel/run), plus post(site, fn):
 * site-affine immediate execution, which names the device site a
 * piece of work belongs to.
 *
 * One engine implements it: SimExecutor, which wraps sim::Simulator
 * bit-for-bit. It is deterministic; post() is a zero-delay event, so
 * ordering stays globally serial and a seed replays byte-for-byte.
 *
 * No file outside src/exec/ and src/sim/ may include
 * sim/simulator.hh; consumers depend on this interface only.
 */

#ifndef HYDRA_EXEC_EXECUTOR_HH
#define HYDRA_EXEC_EXECUTOR_HH

#include <algorithm>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <span>
#include <string>
#include <unordered_map>
#include <vector>

#include "sim/time.hh"

namespace hydra::exec {

/** Timestamps and durations, in the simulator's nanosecond units. */
using Time = sim::SimTime;

/** Opaque handle identifying a scheduled task (for cancellation). */
using TaskId = std::uint64_t;

/** An execution site registered with addSite(); 0 is the main loop. */
using SiteId = std::uint32_t;

/** The main loop's own site: post() here runs on the main loop. */
constexpr SiteId kMainSite = 0;

/** Central clock, timer queue, and cross-site work router. */
class Executor
{
  public:
    using Callback = std::function<void()>;

    Executor() = default;
    virtual ~Executor() = default;

    Executor(const Executor &) = delete;
    Executor &operator=(const Executor &) = delete;

    /** Engine name ("sim"), used as a metric label. */
    virtual const char *backendName() const = 0;

    /** Current virtual time. */
    virtual Time now() const = 0;

    /** Schedule @p fn to run @p delay after now. */
    virtual TaskId schedule(Time delay, Callback fn) = 0;

    /** Schedule @p fn at absolute time @p when (>= now). */
    virtual TaskId scheduleAt(Time when, Callback fn) = 0;

    /**
     * Schedule @p fn every @p period, starting one period from now,
     * until it returns false or the task is cancelled.
     */
    virtual TaskId schedulePeriodic(Time period,
                                    std::function<bool()> fn) = 0;

    /** Cancel a pending task; no-op if already fired or cancelled. */
    virtual void cancel(TaskId id) = 0;

    /**
     * Register an execution site (a device's thread of control).
     * The sim engine only names it; the id keys per-site chaos
     * stalls and the site -> host map below.
     */
    virtual SiteId addSite(const std::string &name) = 0;

    /**
     * Register a site that belongs to a named host machine. A fleet
     * shares ONE executor across N hosts, so the engine itself must
     * know which host each site serves — per-host CPU reports, the
     * placement map, and hydra_top's grouping all read this mapping
     * rather than re-deriving it from site-name conventions.
     */
    SiteId
    addSite(const std::string &name, const std::string &host)
    {
        const SiteId id = addSite(name);
        std::lock_guard<std::mutex> lock(siteHostMutex_);
        siteHosts_[id] = host;
        return id;
    }

    /** Host a site was registered under; "" for host-less sites. */
    std::string
    siteHost(SiteId site) const
    {
        std::lock_guard<std::mutex> lock(siteHostMutex_);
        auto it = siteHosts_.find(site);
        return it == siteHosts_.end() ? std::string() : it->second;
    }

    /** Sites registered under @p host, in registration order. */
    std::vector<SiteId>
    sitesOfHost(const std::string &host) const
    {
        std::lock_guard<std::mutex> lock(siteHostMutex_);
        std::vector<SiteId> sites;
        for (const auto &[id, owner] : siteHosts_)
            if (owner == host)
                sites.push_back(id);
        std::sort(sites.begin(), sites.end());
        return sites;
    }

    /** Sites registered so far (kMainSite excluded). */
    virtual std::size_t siteCount() const = 0;

    /**
     * Run @p fn on @p site as soon as possible, in posting order.
     * Unlike schedule(), post() carries no virtual-time delay: under
     * the sim engine it is a zero-delay event on the main loop.
     */
    virtual void post(SiteId site, Callback fn) = 0;

    /**
     * Post a batch of callbacks to @p site in one handoff. Semantics
     * are identical to calling post() on each element in order — the
     * batch is an amortization, not a reordering: each element
     * becomes a zero-delay event in global FIFO order, so replay stays
     * byte-stable. Elements are moved from.
     */
    virtual void
    postBatch(SiteId site, std::span<Callback> fns)
    {
        for (Callback &fn : fns)
            post(site, std::move(fn));
    }

    /** Run until the timer queue drains or the clock passes @p until.
     * Every post issued before the boundary has executed on return. */
    virtual void runUntil(Time until) = 0;

    /** Run until no timers, injected work, or posts remain. */
    virtual void runToCompletion() = 0;

    /** Fire exactly one timer event; false when none is pending. */
    virtual bool step() = 0;

    /**
     * Complete all in-flight posted work and any events due at the
     * current time, without advancing virtual time past now().
     */
    virtual void drain() = 0;

    /** Events + posts dispatched so far (tests/diagnostics). */
    virtual std::uint64_t eventsDispatched() const = 0;

    /** Timer events currently pending. */
    virtual std::size_t pendingEvents() const = 0;

  private:
    /** Site -> owning host, filled by the two-argument addSite(). */
    mutable std::mutex siteHostMutex_;
    std::unordered_map<SiteId, std::string> siteHosts_;
};

/** The engine to construct; the deterministic sim engine is the only one. */
enum class ExecutorKind { Sim };

/** Build an engine of @p kind. */
std::unique_ptr<Executor> makeExecutor(ExecutorKind kind);

} // namespace hydra::exec

#endif // HYDRA_EXEC_EXECUTOR_HH
