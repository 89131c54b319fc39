#include "src/fleet/roster.hpp"

#include <gtest/gtest.h>

#include <vector>

#include "tests/support/fleet_fixtures.hpp"

namespace rasc::fleet {
namespace {

std::vector<std::size_t> infected_ids(const Roster& roster) {
  std::vector<std::size_t> ids;
  for (std::size_t d = 0; d < roster.size(); ++d) {
    if (roster.infected(d)) ids.push_back(d);
  }
  return ids;
}

TEST(Roster, StartsHealthyAndPresent) {
  Roster roster(10);
  EXPECT_EQ(roster.size(), 10u);
  EXPECT_EQ(roster.infected_count(), 0u);
  for (std::size_t d = 0; d < roster.size(); ++d) EXPECT_FALSE(roster.infected(d));
}

TEST(Roster, FlagsRoundTripIndependently) {
  Roster roster(4);
  roster.set_infected(1);
  roster.set_infected(3);
  EXPECT_EQ(infected_ids(roster), (std::vector<std::size_t>{1, 3}));
  // Clearing one device's flag leaves the other's.
  roster.set_infected(1, false);
  EXPECT_EQ(infected_ids(roster), std::vector<std::size_t>{3});
  EXPECT_EQ(roster.infected_count(), 1u);
  EXPECT_THROW(roster.infected(4), std::out_of_range);
  EXPECT_THROW(roster.set_infected(4), std::out_of_range);
}

TEST(Roster, InfectedFractionIsDeterministicInSeed) {
  const Roster a = Roster::with_infected_fraction(500, 0.1, 42);
  const Roster b = Roster::with_infected_fraction(500, 0.1, 42);
  const Roster c = Roster::with_infected_fraction(500, 0.1, 43);
  EXPECT_EQ(infected_ids(a), infected_ids(b));
  EXPECT_NE(infected_ids(a), infected_ids(c));
  EXPECT_EQ(a.infected_count(), 50u);
}

TEST(Roster, InfectedFractionEdgeCases) {
  // Any positive fraction infects at least one device.
  EXPECT_EQ(Roster::with_infected_fraction(1000, 0.00001, 1).infected_count(), 1u);
  // Zero fraction and empty fleets stay clean.
  EXPECT_EQ(Roster::with_infected_fraction(1000, 0.0, 1).infected_count(), 0u);
  EXPECT_EQ(Roster::with_infected_fraction(0, 0.5, 1).infected_count(), 0u);
  // Fractions above one clamp to the whole fleet.
  EXPECT_EQ(Roster::with_infected_fraction(16, 2.0, 1).infected_count(), 16u);
  // Rounding: 0.5 fraction of 5 devices rounds to 3.
  EXPECT_EQ(Roster::with_infected_fraction(5, 0.5, 1).infected_count(), 3u);
}

TEST(Roster, MemoryBytesScalesWithSize) {
  const Roster small(100);
  const Roster big(100000);
  EXPECT_GE(small.memory_bytes(), sizeof(Roster) + 100);
  EXPECT_GE(big.memory_bytes(), sizeof(Roster) + 100000);
  // One flag per device stored as one byte: ~1 B/device overhead.
  EXPECT_LT(big.memory_bytes(), sizeof(Roster) + 2 * 100000);
}

TEST(Roster, TestfxInfectedRosterBuilder) {
  const Roster roster = testfx::infected_roster(64, 0.25);
  EXPECT_EQ(roster.size(), 64u);
  EXPECT_EQ(roster.infected_count(), 16u);
  EXPECT_EQ(infected_ids(roster), infected_ids(testfx::infected_roster(64, 0.25)));
}

}  // namespace
}  // namespace rasc::fleet
