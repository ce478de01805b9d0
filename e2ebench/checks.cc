#include "checks.hh"

#include <cmath>
#include <string>

namespace hydra::e2e {

namespace {

std::string
pair(double got, double want)
{
    return std::to_string(got) + " vs " + std::to_string(want);
}

bool
inBand(double got, double want)
{
    return std::fabs(got - want) <= kBandTolerance * want;
}

} // namespace

void
checkTivo(const TivoOutcome &o, const TivoBand &band, Record &record)
{
    record.check("tivo.deployment_ok", o.deploymentOk);
    record.check("tivo.sent_equals_received",
                 o.chunksSent > 0 && o.chunksSent == o.packetsReceived,
                 pair(static_cast<double>(o.packetsReceived),
                      static_cast<double>(o.chunksSent)));
    record.check("tivo.frames_displayed", o.framesDisplayed > 0,
                 std::to_string(o.framesDisplayed));
    record.check("tivo.interarrival_in_band",
                 inBand(o.interarrivalMedianMs, band.interarrivalMedianMs),
                 pair(o.interarrivalMedianMs, band.interarrivalMedianMs));
    record.check("tivo.server_cpu_in_band",
                 inBand(o.serverCpuMedianPct, band.serverCpuPct),
                 pair(o.serverCpuMedianPct, band.serverCpuPct));
}

void
checkFleet(const FleetOutcome &o, Record &record)
{
    record.check("fleet.wire_copies_equal_cross_host_deliveries",
                 o.crossHostDeliveries > 0 &&
                     o.wireCopies == o.crossHostDeliveries,
                 pair(static_cast<double>(o.wireCopies),
                      static_cast<double>(o.crossHostDeliveries)));
    record.check("fleet.zero_copy_path_copies", o.zeroCopyCopies == 0,
                 std::to_string(o.zeroCopyCopies));
    record.check("fleet.seq_gaps", o.seqGaps == 0, std::to_string(o.seqGaps));
    record.check("fleet.orphan_frames", o.orphanFrames == 0,
                 std::to_string(o.orphanFrames));
    record.check("fleet.bad_frames", o.badFrames == 0,
                 std::to_string(o.badFrames));
    record.check("fleet.write_failures", o.writeFailures == 0,
                 std::to_string(o.writeFailures));
    record.check("fleet.base_rate_all_delivered",
                 o.baseOffered > 0 && o.baseDelivered == o.baseOffered,
                 pair(static_cast<double>(o.baseDelivered),
                      static_cast<double>(o.baseOffered)));
    record.check("fleet.capacity_resolved", o.capacityResolved,
                 "every ladder step passed; raise the ladder ceiling");
}

} // namespace hydra::e2e
