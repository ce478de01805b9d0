/**
 * @file
 * Simulated time. The simulator counts integer nanoseconds; helpers
 * convert to and from the units used in the paper (ms packet gaps,
 * GHz clock rates, Gbps link rates).
 */

#ifndef HYDRA_SIM_TIME_HH
#define HYDRA_SIM_TIME_HH

#include <cstdint>
#include <limits>

namespace hydra::sim {

/** Simulation timestamp / duration in nanoseconds. */
using SimTime = std::uint64_t;

constexpr SimTime kNanosecond = 1;
constexpr SimTime kMicrosecond = 1000 * kNanosecond;
constexpr SimTime kMillisecond = 1000 * kMicrosecond;
constexpr SimTime kSecond = 1000 * kMillisecond;

/** Largest whole count of @p unit that fits in a SimTime. */
constexpr std::uint64_t
maxCount(SimTime unit)
{
    return std::numeric_limits<SimTime>::max() / unit;
}

constexpr SimTime
nanoseconds(std::uint64_t n)
{
    return n;
}

constexpr SimTime
microseconds(std::uint64_t n)
{
    return n * kMicrosecond;
}

constexpr SimTime
milliseconds(std::uint64_t n)
{
    return n * kMillisecond;
}

constexpr SimTime
seconds(std::uint64_t n)
{
    return n * kSecond;
}

constexpr double
toSeconds(SimTime t)
{
    return static_cast<double>(t) / static_cast<double>(kSecond);
}

constexpr double
toMilliseconds(SimTime t)
{
    return static_cast<double>(t) / static_cast<double>(kMillisecond);
}

constexpr double
toMicroseconds(SimTime t)
{
    return static_cast<double>(t) / static_cast<double>(kMicrosecond);
}

/** Duration of @p cycles at @p ghz (rounded up to a whole ns). */
constexpr SimTime
cyclesToTime(std::uint64_t cycles, double ghz)
{
    const double ns = static_cast<double>(cycles) / ghz;
    return static_cast<SimTime>(ns) + ((ns > static_cast<SimTime>(ns)) ? 1
                                                                       : 0);
}

/** Time to move @p bytes at @p gbps (gigabits per second). */
constexpr SimTime
transferTime(std::uint64_t bytes, double gbps)
{
    const double ns = static_cast<double>(bytes) * 8.0 / gbps;
    return static_cast<SimTime>(ns) + ((ns > static_cast<SimTime>(ns)) ? 1
                                                                       : 0);
}

} // namespace hydra::sim

#endif // HYDRA_SIM_TIME_HH
