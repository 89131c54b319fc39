#include "src/fleet/roster.hpp"

#include <algorithm>

#include "src/support/rng.hpp"

namespace rasc::fleet {

Roster Roster::with_infected_fraction(std::size_t devices, double fraction,
                                      std::uint64_t seed) {
  Roster roster(devices);
  if (devices == 0 || fraction <= 0.0) return roster;
  std::size_t count = static_cast<std::size_t>(
      static_cast<double>(devices) * std::min(fraction, 1.0) + 0.5);
  count = std::max<std::size_t>(count, 1);
  count = std::min(count, devices);

  // Partial Fisher-Yates over the id space: the first `count` positions of
  // the (virtually) shuffled identity permutation are the infected ids.
  std::vector<std::size_t> ids(devices);
  for (std::size_t i = 0; i < devices; ++i) ids[i] = i;
  support::Xoshiro256 rng(seed);
  for (std::size_t i = 0; i < count; ++i) {
    const std::size_t j = i + rng.below(devices - i);
    std::swap(ids[i], ids[j]);
    roster.set_infected(ids[i]);
  }
  return roster;
}

std::size_t Roster::infected_count() const noexcept {
  std::size_t n = 0;
  for (std::uint8_t f : infected_) n += f != 0;
  return n;
}

}  // namespace rasc::fleet
