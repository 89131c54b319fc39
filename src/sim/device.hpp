#pragma once
/// \file device.hpp
/// The simulated prover: memory + CPU + timing model + the ROM-protected
/// attestation key (SMART's hard-wired access rule is modeled by the key
/// simply not being reachable from application/malware code), with the
/// key's HMAC-SHA-256 schedule derived once next to it.

#include <memory>
#include <string>

#include "src/crypto/hmac.hpp"
#include "src/sim/cpu.hpp"
#include "src/sim/cpu_model.hpp"
#include "src/sim/memory.hpp"
#include "src/sim/simulator.hpp"

namespace rasc::sim {

struct DeviceConfig {
  std::string id = "prv-0";
  std::size_t memory_size = 1 << 20;  ///< 1 MiB default
  std::size_t block_size = 4096;
  support::Bytes attestation_key;  ///< shared symmetric key with Vrf
};

class Device {
 public:
  /// Unseated: no memory and no key until reseat().
  explicit Device(Simulator& sim)
      : sim_(sim), key_schedule_(support::ByteView{}), cpu_(sim) {
    // Journal the memory lock state and blocked writes under the device
    // id; both hooks are one null check until a journal is attached.
    memory_.set_lock_observer([this](std::size_t locked) {
      if (auto* j = sim_.journal()) {
        j->append(sim_.now(), j->intern(config_.id), 0, 0,
                  obs::JournalEventKind::kMemLockedBlocks, locked);
      }
    });
    memory_.set_write_observer([this](const WriteRecord& record) {
      if (!record.blocked) return;  // admitted writes are too hot to journal
      if (auto* j = sim_.journal()) {
        j->append(record.time, j->intern(config_.id), 0, 0,
                  obs::JournalEventKind::kMemBlockedWrite, record.block,
                  static_cast<std::uint64_t>(record.actor));
      }
    });
  }

  Device(Simulator& sim, const DeviceConfig& config)
      : Device(sim, config, crypto::HmacSha256Key(config.attestation_key)) {}

  /// `key_schedule` is attestation_key's, derived by the caller.
  Device(Simulator& sim, const DeviceConfig& config,
         const crypto::HmacSha256Key& key_schedule)
      : Device(sim) {
    reseat(config, key_schedule);
  }

  /// Start over as a device freshly built from `config` on the same
  /// simulator: zeroed memory of the new size (DeviceMemory::reseat), the
  /// new key and schedule, the default timing model and an idle core
  /// named by the new id.  Strings and memory keep their storage, so a
  /// reseat at the same sizes allocates nothing.  Only while the core is
  /// idle (std::logic_error otherwise).
  void reseat(const DeviceConfig& config, const crypto::HmacSha256Key& key_schedule) {
    memory_.reseat(config.memory_size, config.block_size);
    config_ = config;
    key_schedule_ = key_schedule;
    model_ = CpuModel{};
    // After the id: the core's journal name is a view of it.
    cpu_.reseat(config_.id);
  }

  // The memory observers and the Cpu keep pointers into this object.
  Device(const Device&) = delete;
  Device& operator=(const Device&) = delete;

  Simulator& sim() noexcept { return sim_; }
  const std::string& id() const noexcept { return config_.id; }
  DeviceMemory& memory() noexcept { return memory_; }
  const DeviceMemory& memory() const noexcept { return memory_; }
  Cpu& cpu() noexcept { return cpu_; }
  CpuModel& model() noexcept { return model_; }
  const CpuModel& model() const noexcept { return model_; }
  const support::Bytes& attestation_key() const noexcept { return config_.attestation_key; }
  /// HMAC-SHA-256 schedule of attestation_key(): the prover's request,
  /// report and combine MACs start from it instead of re-deriving pads.
  const crypto::HmacSha256Key& attestation_key_schedule() const noexcept {
    return key_schedule_;
  }

 private:
  Simulator& sim_;
  DeviceConfig config_;
  crypto::HmacSha256Key key_schedule_;
  DeviceMemory memory_;
  CpuModel model_;
  Cpu cpu_;
};

}  // namespace rasc::sim
