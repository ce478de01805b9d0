/**
 * @file
 * Causal spans: who caused what, across sites and devices.
 *
 * A SpanContext is a (trace-id, span-id, parent-id) triple. One
 * thread-local context is "active" while a handler runs — per-thread
 * so executor sites each carry their own causal chain without racing;
 * message sends stamp it onto the wire and deliveries restore it at
 * the receiving site (ContextScope), so a frame's journey host ->
 * NIC -> disk shows up as one connected trace even when the hops run
 * on different threads. Span ids come from one process-wide
 * atomic counter, so ids never collide across threads.
 *
 * Cost model matches the tracer:
 *  - compile time: with HYDRA_OBS_TRACING=0 everything here is an
 *    inline no-op and spans vanish from the binary;
 *  - run time: a Span only does work after open(), and call sites
 *    guard open() with HYDRA_TRACE_ACTIVE(), so a disabled tracer
 *    costs one relaxed atomic load per span site.
 *
 * Ids are drawn from a deterministic counter (no wall clock, no
 * randomness), so fixed-seed runs produce identical traces.
 */

#ifndef HYDRA_OBS_SPAN_HH
#define HYDRA_OBS_SPAN_HH

#include <cstdint>
#include <string>

#include "obs/trace.hh"
#include "sim/time.hh"

namespace hydra::obs {

/** Propagated causal identity. A root span has traceId == spanId. */
struct SpanContext
{
    std::uint64_t traceId = 0;
    std::uint64_t spanId = 0;
    std::uint64_t parentId = 0;

    bool valid() const { return traceId != 0; }
};

#if HYDRA_OBS_TRACING

/** The context of the span currently executing (invalid when none). */
const SpanContext &activeContext();

/** Replace the active context (prefer ContextScope for balance). */
void setActiveContext(const SpanContext &context);

/** Reset id allocation and the active context (tests, fresh runs). */
void resetSpanIds();

/** RAII: install @p context as active, restore the old one on exit. */
class ContextScope
{
  public:
    explicit ContextScope(const SpanContext &context);
    ~ContextScope();

    ContextScope(const ContextScope &) = delete;
    ContextScope &operator=(const ContextScope &) = delete;

  private:
    SpanContext saved_;
};

/**
 * A scoped causal span. Default-constructed inactive; open() begins
 * it as a child of the active context (or as a new root) and makes
 * its own context active until destruction, so sends issued inside
 * the scope are stamped with it. end() records the span's duration;
 * a span destroyed without end() is emitted with zero duration.
 */
class Span
{
  public:
    Span() = default;
    ~Span();

    Span(const Span &) = delete;
    Span &operator=(const Span &) = delete;

    /**
     * Begin the span at @p start on lane (@p process, @p thread).
     * No-op unless the tracer is enabled. Guard calls with
     * HYDRA_TRACE_ACTIVE() to skip argument construction too.
     */
    void open(const std::string &process, const std::string &thread,
              std::string name, std::string category, sim::SimTime start);

    /** Record the end time; the context stays active until ~Span. */
    void end(sim::SimTime ts);

    bool active() const { return active_; }
    const SpanContext &context() const { return ctx_; }

  private:
    TraceLane lane_{};
    std::string name_;
    std::string category_;
    sim::SimTime start_ = 0;
    SpanContext ctx_{};
    SpanContext saved_{};
    bool active_ = false;
    bool ended_ = false;
};

#else // !HYDRA_OBS_TRACING — spans compile out entirely.

inline SpanContext
activeContext()
{
    return {};
}

inline void
setActiveContext(const SpanContext &)
{
}

inline void
resetSpanIds()
{
}

class ContextScope
{
  public:
    explicit ContextScope(const SpanContext &) {}

    ContextScope(const ContextScope &) = delete;
    ContextScope &operator=(const ContextScope &) = delete;
};

class Span
{
  public:
    Span() = default;

    Span(const Span &) = delete;
    Span &operator=(const Span &) = delete;

    void
    open(const std::string &, const std::string &, std::string,
         std::string, sim::SimTime)
    {
    }

    void end(sim::SimTime) {}
    bool active() const { return false; }
    SpanContext context() const { return {}; }
};

#endif // HYDRA_OBS_TRACING

} // namespace hydra::obs

#endif // HYDRA_OBS_SPAN_HH
