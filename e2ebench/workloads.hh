/**
 * @file
 * The benchmark's workloads. Each runs once per process on the
 * deterministic sim engine and fills a Record.
 *
 *  - tivo_offloaded: offloaded server + offloaded client, 60 simulated
 *    seconds after a 5 s warmup (the paper's headline scenario).
 *  - tivo_copy: simple server + user-space client, same length and
 *    seed: the copy path the paper argues against.
 *  - fleet_open_loop: 4 quiet hosts, the benchmark's own seeded
 *    open loop (openloop.hh) over many registered streams.
 *
 * The "idle" leg of a workload builds the same system with nothing
 * running on it and simulates the same span of virtual time; its wall
 * time is the floor the hw model's housekeeping sets.
 */

#ifndef HYDRA_E2E_WORKLOADS_HH
#define HYDRA_E2E_WORKLOADS_HH

#include <cstdint>
#include <string>

#include "record.hh"

namespace hydra::e2e {

struct RunOptions
{
    std::uint64_t seed = 1;
    bool traced = false;
    bool idle = false;
    /** Where a traced repetition writes its spans; empty skips. */
    std::string spansPath;
};

bool knownWorkload(const std::string &name);

Record runWorkload(const std::string &name, const RunOptions &options);

} // namespace hydra::e2e

#endif // HYDRA_E2E_WORKLOADS_HH
