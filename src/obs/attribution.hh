/**
 * @file
 * CPU attribution: who is burning which device CPU (DESIGN.md §12).
 *
 * The paper's layout decisions (Section 5) need live answers to "how
 * busy is each execution site, and which Offcode is consuming it".
 * This registry turns the hardware models' cumulative busy clocks
 * into windowed busy/idle counters per site and utilization gauges
 * per device and per Offcode:
 *
 *   exec.site_busy_ns{site=}     simulated ns the site's CPU ran work
 *   exec.site_idle_ns{site=}     simulated ns the site sat idle
 *   device.cpu_utilization{device=}  busy fraction of the last window
 *   offcode.cpu_ns{offcode=}     CPU time charged to one Offcode
 *   offcode.utilization{offcode=}    that Offcode's busy fraction
 *
 * Sites register a busy-up-to callback (a clamped read of hw::Cpu's
 * cumulative busy clock) rather than a Cpu pointer, so obs stays free
 * of hardware-layer types. sync(now) advances every entry:
 *
 *   busyDelta = min(busyUpTo(now) - busyReported, elapsed)
 *   idleDelta = elapsed - busyDelta
 *
 * The clamp keeps the invariant busy + idle == elapsed exact per site
 * even when work was queued past `now` (the CPU model charges whole
 * durations up front); the unclamped remainder carries into the next
 * window because busyReported only advances by the clamped amount.
 *
 * Thread model: registration and sync run on the main loop; the busy
 * callbacks read relaxed atomics, so sync is safe while other threads
 * write them.
 */

#ifndef HYDRA_OBS_ATTRIBUTION_HH
#define HYDRA_OBS_ATTRIBUTION_HH

#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

namespace hydra::obs {

class Counter;
class Gauge;

/** Process-wide site and Offcode CPU accounting. */
class CpuAttribution
{
  public:
    static CpuAttribution &instance();

    /** Cumulative busy ns of a site's CPU, clamped to @p nowNs. */
    using BusyFn = std::function<std::uint64_t(std::uint64_t nowNs)>;

    /**
     * Register (or re-baseline) a site. @p isDevice adds the
     * `device.cpu_utilization{device=site}` gauge. Idempotent per
     * name: a second registration resets the accounting baseline to
     * @p nowNs, which lets tests and benches reuse site names.
     * @p host tags the site's series with `host=` so a fleet run can
     * group them per machine; empty omits the label (bare test sites).
     */
    void registerSite(const std::string &site, BusyFn busyUpTo,
                      bool isDevice, std::uint64_t nowNs,
                      const std::string &host = "");

    /** Drop a site (its CPU model is being destroyed). */
    void unregisterSite(const std::string &site);

    /**
     * Register (or re-baseline) an Offcode. Reads the existing
     * `offcode.cpu_ns{offcode=}` counter — bumped by the dispatch
     * path — and publishes `offcode.utilization{offcode=}` per sync
     * window. Entries hold only registry handles (process-lifetime),
     * so no unregister is needed.
     */
    void registerOffcode(const std::string &bindname, std::uint64_t nowNs);

    /**
     * Advance every entry's accounting to @p nowNs. Monotonic: calls
     * with a non-advancing clock are no-ops. Call from the thread
     * that owns virtual time.
     */
    void sync(std::uint64_t nowNs);

    /** Registered site count (tests). */
    std::size_t siteCount() const;

  private:
    CpuAttribution() = default;

    struct SiteEntry
    {
        std::string name;
        BusyFn busyUpTo;
        bool isDevice = false;
        std::uint64_t lastSyncNs = 0;
        std::uint64_t busyReported = 0;
        Counter *busy = nullptr;
        Counter *idle = nullptr;
        Gauge *utilization = nullptr; // devices only
    };

    struct OffcodeEntry
    {
        std::string bindname;
        Counter *cpuNs = nullptr;
        Gauge *utilization = nullptr;
        std::uint64_t lastCpuNs = 0;
        std::uint64_t lastSyncNs = 0;
    };

    mutable std::mutex mutex_;
    std::vector<std::unique_ptr<SiteEntry>> sites_;
    std::vector<std::unique_ptr<OffcodeEntry>> offcodes_;
};

} // namespace hydra::obs

#endif // HYDRA_OBS_ATTRIBUTION_HH
