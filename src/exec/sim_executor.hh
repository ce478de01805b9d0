/**
 * @file
 * SimExecutor: the deterministic discrete-event engine, wrapping
 * sim::Simulator bit-for-bit. Golden traces produced against the bare
 * simulator stay unchanged: every Executor method forwards 1:1, and
 * post(site, fn) is a zero-delay event, so cross-site handoffs fire
 * in global scheduling order exactly as before the executor split.
 *
 * Outside src/sim/, this is the only file allowed to include
 * sim/simulator.hh.
 */

#ifndef HYDRA_EXEC_SIM_EXECUTOR_HH
#define HYDRA_EXEC_SIM_EXECUTOR_HH

#include <vector>

#include "exec/executor.hh"
#include "sim/simulator.hh"

namespace hydra::exec {

/** Deterministic single-threaded engine. */
class SimExecutor : public Executor
{
  public:
    SimExecutor();

    const char *backendName() const override { return "sim"; }

    Time now() const override { return sim_.now(); }

    TaskId
    schedule(Time delay, Callback fn) override
    {
        return sim_.schedule(delay, std::move(fn));
    }

    TaskId
    scheduleAt(Time when, Callback fn) override
    {
        return sim_.scheduleAt(when, std::move(fn));
    }

    TaskId
    schedulePeriodic(Time period, std::function<bool()> fn) override
    {
        return sim_.schedulePeriodic(period, std::move(fn));
    }

    void cancel(TaskId id) override { sim_.cancel(id); }

    SiteId addSite(const std::string &name) override;
    std::size_t siteCount() const override { return siteNames_.size(); }

    void post(SiteId site, Callback fn) override;
    void postBatch(SiteId site, std::span<Callback> fns) override;

    void runUntil(Time until) override { sim_.runUntil(until); }
    void runToCompletion() override { sim_.runToCompletion(); }
    bool step() override { return sim_.step(); }
    void drain() override;

    std::uint64_t
    eventsDispatched() const override
    {
        return sim_.eventsDispatched();
    }

    std::size_t pendingEvents() const override
    {
        return sim_.pendingEvents();
    }

    /** The wrapped kernel, for simulator-specific tests/tools. */
    sim::Simulator &simulator() { return sim_; }

  private:
    sim::Simulator sim_;
    std::vector<std::string> siteNames_;
    /** Chaos: virtual time each site is wedged until (0 = healthy). */
    std::vector<Time> stallUntil_;
};

} // namespace hydra::exec

#endif // HYDRA_EXEC_SIM_EXECUTOR_HH
