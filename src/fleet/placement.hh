/**
 * @file
 * Consistent-hash channel -> host placement map (DESIGN.md §14).
 *
 * The fleet decides which host a stream lives on by hashing its key
 * onto a ring of virtual nodes. Reads are lock-free: the ring is an
 * immutable snapshot behind an atomic shared_ptr, so readers on any
 * thread resolve placement while membership changes (rebuild) swap
 * in a fresh snapshot. Consistent hashing keeps the
 * reshuffle on membership change proportional to 1/N of the keys,
 * which the placement unit test asserts.
 */

#ifndef HYDRA_FLEET_PLACEMENT_HH
#define HYDRA_FLEET_PLACEMENT_HH

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace hydra::fleet {

/** FNV-1a 64-bit; the ring's only hash (stable across runs). */
std::uint64_t placementHash(std::string_view key);

/** Lock-free-read consistent-hash ring over host names. */
class PlacementRing
{
  public:
    /**
     * Replace the membership. @p vnodes virtual points per host
     * smooth the key distribution (64 keeps the max/min host load
     * ratio under ~1.4 for uniform keys).
     */
    void rebuild(const std::vector<std::string> &hosts,
                 std::size_t vnodes = 64);

    /**
     * Host owning @p key; empty string when the ring is empty.
     * Lock-free: one atomic snapshot load plus a binary search.
     */
    std::string hostFor(std::string_view key) const;

    std::size_t hostCount() const;
    std::size_t pointCount() const;

  private:
    struct Snapshot
    {
        /** (hash, host index), sorted by hash. */
        std::vector<std::pair<std::uint64_t, std::uint32_t>> points;
        std::vector<std::string> hosts;
    };

    std::shared_ptr<const Snapshot>
    load() const
    {
        return snapshot_.load(std::memory_order_acquire);
    }

    std::atomic<std::shared_ptr<const Snapshot>> snapshot_{nullptr};
};

} // namespace hydra::fleet

#endif // HYDRA_FLEET_PLACEMENT_HH
