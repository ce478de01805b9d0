/**
 * @file
 * Sampling profiler over virtual time (DESIGN.md §12).
 *
 * A periodic sampler — driven by the executor's timer machinery, so
 * it is deterministic under the SimExecutor — that records what each
 * execution site is doing: running which Offcode in which handler
 * phase, or idle. Samples aggregate
 * into per-site folded stacks ("site;offcode;phase count"), the text
 * format flamegraph.pl and speedscope consume directly, and each
 * sample also emits a per-site Perfetto counter track when tracing
 * is on.
 *
 * Publish protocol: the dispatch path wraps each handler invocation
 * in an ActivityScope against the site's SiteActivitySlot. When the
 * profiler is disabled the scope is one relaxed load; when enabled it
 * is a pair of relaxed pointer stores. Because a discrete-event
 * sampler almost always fires *between* events (work is instantaneous
 * in wall time, finite in virtual time), a sample attributes a site
 * to:
 *
 *   1. the currently open scope, if any ("running"), else
 *   2. the last finished scope, if its recorded virtual end time is
 *      within one sampling interval of now (the work occupied the
 *      site's recent past or queued future), else
 *   3. "idle".
 *
 * Slots and labels are interned once and live for the process, so
 * hot paths cache raw pointers and never take the registry mutex.
 */

#ifndef HYDRA_OBS_PROFILER_HH
#define HYDRA_OBS_PROFILER_HH

#include <atomic>
#include <cstdint>
#include <deque>
#include <map>
#include <mutex>
#include <string>
#include <vector>

namespace hydra::obs {

/** Interned (offcode, phase) pair; pointer identity is stable. */
struct ActivityLabel
{
    std::string offcode;
    std::string phase;
};

/** One execution site's published activity; all fields atomic. */
struct SiteActivitySlot
{
    std::string site;
    std::atomic<const ActivityLabel *> current{nullptr};
    std::atomic<const ActivityLabel *> last{nullptr};
    /** Virtual end time of the last finished scope (0 = never). */
    std::atomic<std::uint64_t> lastEndNs{0};
};

class Profiler;

/**
 * RAII publisher for one handler invocation. No-op (one relaxed
 * load) while the profiler is disabled. finish(endNs) records the
 * virtual completion time; the destructor closes the scope without
 * touching lastEndNs if finish was never called (error paths).
 */
class ActivityScope
{
  public:
    ActivityScope() = default;
    ActivityScope(SiteActivitySlot *slot, const ActivityLabel *label);
    ~ActivityScope();

    ActivityScope(const ActivityScope &) = delete;
    ActivityScope &operator=(const ActivityScope &) = delete;

    /** Close the scope; @p endNs == 0 leaves lastEndNs untouched. */
    void finish(std::uint64_t endNs);

  private:
    SiteActivitySlot *slot_ = nullptr;
    const ActivityLabel *label_ = nullptr;
};

/** Process-wide sampling profiler. */
class Profiler
{
  public:
    static Profiler &instance();

    /** Start sampling with the given attribution window. */
    void enable(std::uint64_t intervalNs);
    void disable();
    bool
    enabled() const
    {
        return enabled_.load(std::memory_order_relaxed);
    }
    std::uint64_t
    intervalNs() const
    {
        return intervalNs_.load(std::memory_order_relaxed);
    }

    /** Drop accumulated samples; slots and labels stay interned. */
    void clear();

    /** Intern the slot for @p site (stable for the process). */
    SiteActivitySlot *slotFor(const std::string &site);

    /** Intern an (offcode, phase) label (stable for the process). */
    const ActivityLabel *intern(const std::string &offcode,
                                const std::string &phase);

    /**
     * Take one sample of every known site at virtual time @p nowNs.
     * Call from the thread that owns virtual time.
     */
    void sample(std::uint64_t nowNs);

    /** Samples accumulated since the last clear(). */
    std::uint64_t samplesTaken() const;

    /**
     * Folded-stack text: one "site;offcode;phase count" line per
     * observed state, sorted by key — flamegraph-compatible and
     * byte-stable across identical runs.
     */
    std::string foldedStacks() const;

  private:
    Profiler() = default;

    std::atomic<bool> enabled_{false};
    std::atomic<std::uint64_t> intervalNs_{0};

    mutable std::mutex mutex_;
    std::deque<SiteActivitySlot> slots_;
    std::deque<ActivityLabel> labels_;
    std::map<std::string, std::uint64_t> folded_;
    std::uint64_t samples_ = 0;
};

} // namespace hydra::obs

#endif // HYDRA_OBS_PROFILER_HH
