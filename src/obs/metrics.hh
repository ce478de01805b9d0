/**
 * @file
 * Process-wide metrics registry (DESIGN.md "Observability").
 *
 * Three instrument kinds cover the reproduction's needs:
 *  - Counter: monotonically increasing event count (messages sent,
 *    bus crossings, offcodes deployed).
 *  - Gauge: last-written level (event queue depth).
 *  - Histogram: HDR-style log-linear distribution of simulated-time
 *    durations in nanoseconds (channel send->deliver, Offcode service
 *    time, DMA transfers) with p50/p90/p99/p999 — see histogram.hh.
 *
 * Handles are identified by (name, labels) and live for the process
 * lifetime: registration takes a mutex, but updates are relaxed
 * atomics, so instruments can be cached in function-local statics at
 * hot call sites and bumped from anywhere. reset() zeroes values
 * without invalidating handles, which lets benches and tests scope
 * measurements to one scenario.
 */

#ifndef HYDRA_OBS_METRICS_HH
#define HYDRA_OBS_METRICS_HH

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

#include "obs/histogram.hh"

namespace hydra::obs {

/** Metric labels: (key, value) pairs; order-insensitive identity. */
using Labels = std::vector<std::pair<std::string, std::string>>;

/**
 * Monotonic event counter. add() is a relaxed fetch_add: uncontended
 * (the common case — most counters have one writer) it costs the same
 * as a plain store on x86, and concurrent writers never lose
 * increments, which the payload-conservation invariants
 * (allocations == recycles + live) depend on.
 */
class Counter
{
  public:
    void
    add(std::uint64_t n)
    {
        value_.fetch_add(n, std::memory_order_relaxed);
    }
    void increment() { add(1); }
    std::uint64_t value() const { return value_.load(std::memory_order_relaxed); }
    void reset() { value_.store(0, std::memory_order_relaxed); }

  private:
    std::atomic<std::uint64_t> value_{0};
};

/** Last-written level. */
class Gauge
{
  public:
    void set(double v) { value_.store(v, std::memory_order_relaxed); }
    double value() const { return value_.load(std::memory_order_relaxed); }
    void reset() { set(0.0); }

  private:
    std::atomic<double> value_{0.0};
};

/**
 * Historical name for the registry's distribution instrument; the
 * implementation is the HDR-style log-linear Histogram (histogram.hh).
 */
using LatencyHistogram = Histogram;

/** Flat display key: "name{k=v,...}" (labels already sorted). */
std::string displayKey(const std::string &name, const Labels &labels);

/**
 * Inverse of displayKey: split "name{k=v,...}" back into name and
 * labels (the SLO engine addresses instruments by display key).
 * Returns false on malformed keys; a bare "name" parses with empty
 * labels. Label values may contain any character except ',' and '}'.
 */
bool parseDisplayKey(const std::string &key, std::string &name,
                     Labels &labels);

/**
 * A point-in-time copy of every instrument, keyed by display name and
 * sorted, so the flight recorder and report printers can enumerate the
 * registry without holding its lock.
 */
struct RegistrySnapshot
{
    std::vector<std::pair<std::string, std::uint64_t>> counters;
    std::vector<std::pair<std::string, double>> gauges;
    std::vector<std::pair<std::string, HistogramSummary>> histograms;
};

/** Registry of all instruments, keyed by (name, labels). */
class MetricsRegistry
{
  public:
    static MetricsRegistry &instance();

    Counter &counter(const std::string &name, const Labels &labels = {});
    Gauge &gauge(const std::string &name, const Labels &labels = {});
    LatencyHistogram &histogram(const std::string &name,
                                const Labels &labels = {});

    /** Value of a counter, or 0 when it was never registered. */
    std::uint64_t counterValue(const std::string &name,
                               const Labels &labels = {}) const;
    /** Sum of every counter sharing @p name, across label sets. */
    std::uint64_t counterTotal(const std::string &name) const;
    /** Histogram lookup for tests; nullptr when absent. */
    const LatencyHistogram *findHistogram(const std::string &name,
                                          const Labels &labels = {}) const;

    /** Copy of every instrument's value, sorted by display key. */
    RegistrySnapshot snapshot() const;

    /** Zero every value; handles stay valid. */
    void reset();

    /** Machine-readable dump (one JSON object). */
    std::string toJson() const;
    /** Human-readable aligned table. */
    std::string prettyTable() const;

  private:
    MetricsRegistry() = default;

    template <typename T>
    struct Entry
    {
        std::string name;
        Labels labels;
        std::unique_ptr<T> instrument;
    };

    template <typename T>
    T &findOrCreate(std::vector<Entry<T>> &entries, const std::string &name,
                    const Labels &labels);

    mutable std::mutex mutex_;
    std::vector<Entry<Counter>> counters_;
    std::vector<Entry<Gauge>> gauges_;
    std::vector<Entry<LatencyHistogram>> histograms_;
};

/** Shorthands for instrumentation sites. */
inline Counter &
counter(const std::string &name, const Labels &labels = {})
{
    return MetricsRegistry::instance().counter(name, labels);
}

inline Gauge &
gauge(const std::string &name, const Labels &labels = {})
{
    return MetricsRegistry::instance().gauge(name, labels);
}

inline LatencyHistogram &
histogram(const std::string &name, const Labels &labels = {})
{
    return MetricsRegistry::instance().histogram(name, labels);
}

} // namespace hydra::obs

#endif // HYDRA_OBS_METRICS_HH
