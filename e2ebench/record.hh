/**
 * @file
 * What one benchmark repetition measured, and the helpers that read
 * the program's public stats into it.
 *
 * A repetition is one fresh process: it sets a workload up once, runs
 * it once and prints one JSON line (Record::toJson). run.py repeats
 * processes for the requested seconds and takes medians; a fresh
 * process per repetition keeps process-wide state (metrics registry,
 * payload pool, CPU attribution) out of the comparison.
 */

#ifndef HYDRA_E2E_RECORD_HH
#define HYDRA_E2E_RECORD_HH

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace hydra::e2e {

/** Wall clock used for every wall-time figure. */
using WallClock = std::chrono::steady_clock;

inline double
secondsSince(WallClock::time_point start)
{
    return std::chrono::duration<double>(WallClock::now() - start).count();
}

/** One named correctness check and whether it held. */
struct Check
{
    std::string name;
    bool ok = false;
    std::string detail;
};

/** One repetition's output. */
struct Record
{
    std::string workload;
    /** "main" (the workload) or "idle" (the hw idle-floor leg). */
    std::string leg = "main";
    bool traced = false;

    double setupS = 0.0;
    double runWallS = 0.0;
    double peakRssMb = 0.0;

    /** Virtual-clock end-to-end metrics (repeat exactly per seed). */
    std::map<std::string, double> virt;
    /** Per-layer metrics: counts, virtual ns and wall figures. */
    std::map<std::string, double> layers;
    /** Labelled breakdowns (per device, per channel, per offcode). */
    std::map<std::string, double> breakdown;

    std::vector<Check> checks;
    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;
    /** Hash of every simulated output (see virtualDigest). */
    std::string digest;

    void check(std::string name, bool ok, std::string detail = {});
    bool allChecksPass() const;
    /** One JSON object on one line; context fields included. */
    std::string toJson() const;
};

/** Peak resident set of this process, MiB. */
double peakRssMb();

/**
 * Stable FNV-1a hash of the simulated outputs: @p samples (each
 * vector in order, bit-exact) plus every non-zero instrument of the
 * metrics registry, sorted by display key. The registry holds only
 * virtual-clock values, so wall-only changes leave it unchanged.
 */
std::string virtualDigest(const std::vector<const std::vector<double> *> &samples,
                          const std::vector<std::uint64_t> &counts);

/** Sum of exec.site_busy_ns split into host CPUs and device CPUs. */
struct BusySplit
{
    std::uint64_t hostNs = 0;
    std::uint64_t deviceNs = 0;
    /** Per device site, for the breakdown table. */
    std::map<std::string, std::uint64_t> perDevice;
    /** Per host site. */
    std::map<std::string, std::uint64_t> perHost;
};

/** Read the registry's per-site busy counters (sync first). */
BusySplit readBusy();

/** Registry histogram roll-up over every series named @p name. */
struct SeriesRollup
{
    std::uint64_t count = 0;
    /** Highest p99 across series. */
    double maxP99 = 0.0;
    std::map<std::string, double> p99ByKey;
};
SeriesRollup rollupHistogram(const std::string &name);

/** Number of instruments in the registry. */
std::uint64_t registrySeries();

} // namespace hydra::e2e

#endif // HYDRA_E2E_RECORD_HH
