/**
 * @file
 * Base model for programmable peripheral devices.
 *
 * Every device owns a firmware processor (low-clocked, XScale-class),
 * a bounded local memory, a bus-mastering DMA engine on the host I/O
 * bus, and a precise hardware timer. The timer is the mechanism
 * behind the paper's "timeliness guarantees" argument: peripheral
 * firmware schedules in microseconds while the host OS quantizes to
 * scheduler ticks.
 */

#ifndef HYDRA_DEV_DEVICE_HH
#define HYDRA_DEV_DEVICE_HH

#include <cstdint>
#include <functional>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "common/result.hh"
#include "common/rng.hh"
#include "hw/bus.hh"
#include "hw/cpu.hh"
#include "exec/executor.hh"

namespace hydra::dev {

/**
 * Attributes describing what kind of device this is, matched against
 * the <device-class> section of an ODF (paper Fig. 4). Empty optional
 * fields match anything.
 */
struct DeviceClassSpec
{
    std::uint32_t id = 0;
    std::string name;
    std::string bus;    // optional, e.g. "pci"
    std::string mac;    // optional, e.g. "ethernet"
    std::string vendor; // optional, e.g. "3COM"

    /** True when @p other (an ODF requirement) is satisfied by this. */
    bool satisfies(const DeviceClassSpec &required) const;
};

/** Construction parameters common to all devices. */
struct DeviceConfig
{
    std::string name = "dev";
    double firmwareGhz = 0.6; // XScale-class
    std::size_t localMemoryBytes = 8 * 1024 * 1024;
    sim::SimTime dmaDescriptorCost = sim::nanoseconds(500);
    /** Firmware scheduling noise sigma (bus/DMA contention). */
    sim::SimTime timerNoiseSigma = sim::microseconds(60);
    std::uint64_t noiseSeed = 99;
};

/** A programmable peripheral attached to a host bus. */
class Device
{
  public:
    Device(exec::Executor &executor, hw::Bus &host_bus,
           DeviceConfig config, DeviceClassSpec klass);
    virtual ~Device();

    Device(const Device &) = delete;
    Device &operator=(const Device &) = delete;

    const std::string &name() const { return config_.name; }
    const DeviceClassSpec &deviceClass() const { return class_; }
    const DeviceConfig &config() const { return config_; }

    /**
     * Name of the host machine this device is plugged into, derived
     * from the host bus ("server.bus" -> "server"). Labels the
     * device's telemetry series with host= in fleet runs.
     */
    std::string hostName() const
    {
        const std::string &bus = hostBus_.name();
        const auto dot = bus.rfind(".bus");
        return dot == std::string::npos ? bus : bus.substr(0, dot);
    }

    hw::Cpu &firmwareCpu() { return *firmwareCpu_; }
    hw::DmaEngine &dma() { return *dma_; }
    exec::Executor &executor() { return exec_; }

    /**
     * This device's execution site. The sim engine only records the
     * name (it keys per-site chaos stalls and CPU attribution).
     * Firmware-side work can be handed here with
     * executor().post(execSite(), fn).
     */
    exec::SiteId execSite() const { return site_; }

    /** Device capability tags, e.g. "mpeg-decode", "block-store". */
    const std::set<std::string> &capabilities() const { return caps_; }
    bool hasCapability(const std::string &cap) const;
    void addCapability(std::string cap);

    /** Bounded device-local memory (firmware heap + Offcode images). */
    Result<std::uint64_t> allocateLocal(std::size_t bytes);
    void freeLocal(std::size_t bytes);
    std::size_t localMemoryFree() const;
    std::size_t localMemoryUsed() const { return localUsed_; }

    /**
     * Hardware timer: fires @p done after @p delay plus a small
     * half-normal contention delay (microsecond-class, vs. the host's
     * millisecond tick quantization).
     */
    void timerAfter(sim::SimTime delay, std::function<void()> done);

    /** Charge firmware cycles; returns completion time. */
    sim::SimTime runFirmware(std::uint64_t cycles);

    /**
     * Hard device reset: firmware state is lost for @p downtime of
     * virtual time, then the device comes back. Listeners (the
     * Runtime) observe Begin synchronously — snapshot Offcode state,
     * quiesce channels — and Complete after the downtime — redeploy,
     * re-bind, replay. Subclasses keep their *hardware* identity
     * (bus address, DMA engine, exec site) across a reset, exactly
     * like a real NIC whose PCI function survives a function-level
     * reset; only firmware-visible state (port bindings, Offcodes)
     * is torn down, via onResetBegin()/onResetComplete().
     */
    void reset(sim::SimTime downtime);
    /** True while the firmware is down (between Begin and Complete). */
    bool resetting() const { return resetting_; }
    /** Resets completed so far. */
    std::uint64_t resets() const { return resets_; }

    enum class ResetPhase { Begin, Complete };
    using ResetListener = std::function<void(Device &, ResetPhase)>;
    /** Register for reset notifications (fires in registration order). */
    void addResetListener(ResetListener listener);

  protected:
    /** Subclass hook: firmware went down (drop volatile state). */
    virtual void onResetBegin() {}
    /** Subclass hook: firmware is back (replay deferred work). */
    virtual void onResetComplete() {}

  protected:
    exec::Executor &exec_;
    hw::Bus &hostBus_;

  private:
    DeviceConfig config_;
    DeviceClassSpec class_;
    std::unique_ptr<hw::Cpu> firmwareCpu_;
    std::unique_ptr<hw::DmaEngine> dma_;
    std::set<std::string> caps_;
    std::size_t localUsed_ = 0;
    exec::SiteId site_ = exec::kMainSite;
    hydra::Rng rng_;
    bool resetting_ = false;
    std::uint64_t resets_ = 0;
    std::vector<ResetListener> resetListeners_;
};

} // namespace hydra::dev

#endif // HYDRA_DEV_DEVICE_HH
