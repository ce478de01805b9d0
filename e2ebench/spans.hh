/**
 * @file
 * Wall-clock spans the benchmark records around its own calls into
 * each layer (setup steps, runUntil slices, channel writes, delivery
 * handlers, the metrics export, the teardown). Spans are kept in memory and written
 * once at the end; nothing inside src/ is instrumented.
 *
 * Recording is single-threaded (the sim engine runs every callback on
 * the calling thread), so a stack gives each span its parent. When
 * disabled, a Scope costs one branch.
 */

#ifndef HYDRA_E2E_SPANS_HH
#define HYDRA_E2E_SPANS_HH

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "common/stats.hh"
#include "record.hh"

namespace hydra::e2e {

/** Span names; the prefix before the first '.' names the layer. */
enum class SpanName : std::uint8_t {
    Setup,          ///< everything before the first simulated ns
    TestbedBuild,   ///< tivo::Testbed construction
    FleetBuild,     ///< fleet::Fleet construction
    Placement,      ///< fleet::Fleet::homeOf
    CreateChannel,  ///< createChannel + connectSite + installHandler
    Run,            ///< the simulated run
    Slice,          ///< one exec::Executor::runUntil slice
    Pacer,          ///< the open-loop generator's event
    PayloadBuild,   ///< PayloadBuilder fill + seal
    Write,          ///< core::Channel::write
    Deliver,        ///< the benchmark's delivery handler
    Export,         ///< obs::MetricsRegistry::toJson
    Teardown,       ///< destroying the testbed or fleet
    Report,         ///< deriving the span figures (recorded after)
    Count
};

const char *spanNameText(SpanName name);

struct SpanRecord
{
    SpanName name;
    /** Index of the enclosing span; -1 for a top-level span. */
    std::int32_t parent;
    std::int64_t startNs;
    std::int64_t endNs;
};

/** Per-name totals derived from the recorded spans. */
struct SpanTotals
{
    std::uint64_t count = 0;
    double totalS = 0.0;
    /** Duration minus the time covered by direct children. */
    double selfS = 0.0;
    /** Per-span durations, for percentiles. */
    SampleSet durationsNs;
};

class Spans
{
  public:
    explicit Spans(bool enabled) : enabled_(enabled), origin_(WallClock::now()) {}

    bool enabled() const { return enabled_; }

    /** RAII span; no-op when recording is off. */
    class Scope
    {
      public:
        Scope(Spans &spans, SpanName name) : spans_(spans)
        {
            if (spans_.enabled_)
                index_ = spans_.open(name);
        }
        ~Scope()
        {
            if (index_ >= 0)
                spans_.close(index_);
        }
        Scope(const Scope &) = delete;
        Scope &operator=(const Scope &) = delete;

      private:
        Spans &spans_;
        std::int32_t index_ = -1;
    };

    /** Record a span whose bounds the caller measured (probe slices). */
    void add(SpanName name, WallClock::time_point start,
             WallClock::time_point end);

    const std::vector<SpanRecord> &records() const { return records_; }

    /** Totals and self time per name. */
    std::map<SpanName, SpanTotals> totals() const;
    /** Sum of top-level span durations, seconds. */
    double topLevelS() const;

    /** Write all spans as Chrome trace-event JSON (one line each). */
    bool writeJson(const std::string &path) const;

  private:
    std::int32_t open(SpanName name);
    void close(std::int32_t index);
    std::int64_t ns(WallClock::time_point t) const;

    bool enabled_;
    WallClock::time_point origin_;
    std::vector<SpanRecord> records_;
    std::vector<std::int32_t> stack_;
};

} // namespace hydra::e2e

#endif // HYDRA_E2E_SPANS_HH
