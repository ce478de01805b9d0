/**
 * @file
 * e2e_bench — one benchmark repetition in a fresh process.
 *
 * Usage:
 *   e2e_bench --workload NAME --seed N [--trace] [--idle]
 *             [--spans FILE]
 *
 * Prints one JSON line (record.hh) describing the repetition: wall
 * and virtual metrics, per-layer counts, correctness checks and the
 * virtual-clock digest. run.py repeats it and aggregates.
 */

#include <cstdio>
#include <cstring>
#include <string>

#include "workloads.hh"

using namespace hydra;

namespace {

int
usage(const char *argv0)
{
    std::fprintf(stderr,
                 "usage: %s --workload tivo_offloaded|tivo_copy|"
                 "fleet_open_loop --seed N [--trace] [--idle] "
                 "[--spans FILE]\n",
                 argv0);
    return 2;
}

bool
parseSeed(const char *text, std::uint64_t &out)
{
    if (!text || !*text)
        return false;
    std::uint64_t value = 0;
    for (const char *p = text; *p; ++p) {
        if (*p < '0' || *p > '9' || value > (UINT64_MAX - 9) / 10)
            return false;
        value = value * 10 + static_cast<std::uint64_t>(*p - '0');
    }
    out = value;
    return true;
}

} // namespace

int
main(int argc, char **argv)
{
    std::string workload;
    e2e::RunOptions options;
    bool haveSeed = false;
    for (int i = 1; i < argc; ++i) {
        const char *arg = argv[i];
        const char *next = i + 1 < argc ? argv[i + 1] : nullptr;
        if (!std::strcmp(arg, "--workload") && next) {
            workload = next;
            ++i;
        } else if (!std::strcmp(arg, "--seed") && next) {
            if (!parseSeed(next, options.seed))
                return usage(argv[0]);
            haveSeed = true;
            ++i;
        } else if (!std::strcmp(arg, "--spans") && next) {
            options.spansPath = next;
            ++i;
        } else if (!std::strcmp(arg, "--trace")) {
            options.traced = true;
        } else if (!std::strcmp(arg, "--idle")) {
            options.idle = true;
        } else {
            return usage(argv[0]);
        }
    }
    if (!haveSeed || !e2e::knownWorkload(workload))
        return usage(argv[0]);

    const e2e::Record record = e2e::runWorkload(workload, options);
    std::printf("%s\n", record.toJson().c_str());
    return 0;
}
