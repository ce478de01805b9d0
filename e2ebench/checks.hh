/**
 * @file
 * Correctness checks every benchmark repetition applies to its
 * outputs. A repetition that fails any check is reported as a failure
 * by run.py, never as a number.
 */

#ifndef HYDRA_E2E_CHECKS_HH
#define HYDRA_E2E_CHECKS_HH

#include <cstdint>

#include "record.hh"

namespace hydra::e2e {

/**
 * EXPERIMENTS.md values a TiVo scenario must reproduce: Table 2
 * median inter-arrival and Table 3 median server CPU.
 */
struct TivoBand
{
    double interarrivalMedianMs = 0.0;
    double serverCpuPct = 0.0;
};

inline constexpr TivoBand kOffloadedBand{5.04, 2.86};
inline constexpr TivoBand kSimpleServerBand{7.06, 7.38};
/** Relative tolerance around a band value. */
inline constexpr double kBandTolerance = 0.02;

/** What a TiVo repetition produced, as the checks see it. */
struct TivoOutcome
{
    bool deploymentOk = false;
    std::uint64_t chunksSent = 0;
    std::uint64_t packetsReceived = 0;
    std::uint64_t framesDisplayed = 0;
    double interarrivalMedianMs = 0.0;
    double serverCpuMedianPct = 0.0;
};

void checkTivo(const TivoOutcome &outcome, const TivoBand &band,
               Record &record);

/** What a fleet repetition produced, as the checks see it. */
struct FleetOutcome
{
    std::uint64_t wireCopies = 0;
    std::uint64_t crossHostDeliveries = 0;
    std::uint64_t zeroCopyCopies = 0;
    std::uint64_t seqGaps = 0;
    std::uint64_t orphanFrames = 0;
    std::uint64_t badFrames = 0;
    /** Refused writes at the base rate (the ladder may overload). */
    std::uint64_t writeFailures = 0;
    std::uint64_t baseOffered = 0;
    std::uint64_t baseDelivered = 0;
    /** Some ladder step failed, so capacity lies inside the ladder. */
    bool capacityResolved = false;
};

void checkFleet(const FleetOutcome &outcome, Record &record);

} // namespace hydra::e2e

#endif // HYDRA_E2E_CHECKS_HH
