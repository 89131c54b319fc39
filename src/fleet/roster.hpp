#pragma once
/// \file roster.hpp
/// Ground-truth membership table for a fleet of provers: which devices
/// exist and which are infected.  The fleet verifier scores every
/// per-device verdict against it.
///
/// The representation is one flag byte per device, so a 100k-device
/// roster costs ~100 kB and membership checks are O(1) — cheap enough
/// that the FleetVerifier consults it on every resolved round.

#include <cstdint>
#include <vector>

namespace rasc::fleet {

class Roster {
 public:
  Roster() = default;
  /// `devices` healthy devices.
  explicit Roster(std::size_t devices) : infected_(devices, 0) {}

  /// Deterministically infect floor(devices * fraction + 0.5) devices,
  /// at least one when fraction > 0, chosen by a seeded partial
  /// Fisher-Yates shuffle — the same (devices, fraction, seed) always
  /// yields the same infected set.
  static Roster with_infected_fraction(std::size_t devices, double fraction,
                                       std::uint64_t seed);

  std::size_t size() const noexcept { return infected_.size(); }
  bool infected(std::size_t device) const { return infected_.at(device) != 0; }
  void set_infected(std::size_t device, bool on = true) { infected_.at(device) = on; }

  std::size_t infected_count() const noexcept;

  /// Bytes backing this roster (for the fleet memory accounting).
  std::size_t memory_bytes() const noexcept {
    return sizeof(Roster) + infected_.capacity() * sizeof(std::uint8_t);
  }

 private:
  std::vector<std::uint8_t> infected_;
};

}  // namespace rasc::fleet
