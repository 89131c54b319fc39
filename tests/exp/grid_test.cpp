#include "src/exp/grid.hpp"

#include <gtest/gtest.h>

#include <stdexcept>

namespace rasc::exp {
namespace {

TEST(Grid, EmptyGridHasOneCell) {
  ParamGrid grid;
  EXPECT_EQ(grid.size(), 1u);
  const GridPoint point = grid.point(0);
  EXPECT_TRUE(point.params().empty());
  EXPECT_EQ(point.label(), "");
}

TEST(Grid, CartesianExpansionFirstAxisSlowest) {
  ParamGrid grid;
  grid.axis("a", {std::int64_t{1}, std::int64_t{2}})
      .axis("b", {std::string("x"), std::string("y"), std::string("z")});
  ASSERT_EQ(grid.size(), 6u);
  EXPECT_EQ(grid.point(0).label(), "a=1 b=x");
  EXPECT_EQ(grid.point(1).label(), "a=1 b=y");
  EXPECT_EQ(grid.point(2).label(), "a=1 b=z");
  EXPECT_EQ(grid.point(3).label(), "a=2 b=x");
  EXPECT_EQ(grid.point(5).label(), "a=2 b=z");
  EXPECT_EQ(grid.point(4).index(), 4u);
}

TEST(Grid, TypedAccessors) {
  ParamGrid grid;
  grid.axis("n", {std::int64_t{64}}).axis("p", {0.5}).axis("lock", {std::string("No-Lock")});
  const GridPoint point = grid.point(0);
  EXPECT_EQ(point.i64("n"), 64);
  EXPECT_DOUBLE_EQ(point.f64("n"), 64.0);  // int widens to double
  EXPECT_DOUBLE_EQ(point.f64("p"), 0.5);
  EXPECT_EQ(point.str("lock"), "No-Lock");
  EXPECT_TRUE(point.has("n"));
  EXPECT_FALSE(point.has("missing"));
  EXPECT_THROW(point.i64("missing"), std::out_of_range);
  EXPECT_THROW(point.i64("lock"), std::bad_variant_access);
}

TEST(Grid, InvalidAxesThrow) {
  ParamGrid grid;
  EXPECT_THROW(grid.axis("empty", {}), std::invalid_argument);
  grid.axis("a", {std::int64_t{1}});
  EXPECT_THROW(grid.axis("a", {std::int64_t{2}}), std::invalid_argument);
  EXPECT_THROW(grid.point(1), std::out_of_range);
}

TEST(Grid, SetAxisOverridesExistingAxis) {
  ParamGrid grid;
  grid.axis("rounds", {std::int64_t{1}, std::int64_t{13}})
      .axis("blocks", {std::int64_t{8}});
  grid.set_axis("blocks", {std::int64_t{16}, std::int64_t{64}});
  grid.set_axis("rounds", {std::int64_t{5}});
  EXPECT_EQ(grid.size(), 2u);
  EXPECT_EQ(grid.point(1).label(), "rounds=5 blocks=64");
}

TEST(Grid, SetAxisRejectsUnknownAxis) {
  // "drop=30" for a grid whose axis is drop_pct: a typo, not a new axis.
  ParamGrid grid;
  grid.axis("drop_pct", {std::int64_t{0}, std::int64_t{30}});
  EXPECT_THROW(grid.set_axis("drop", {std::int64_t{30}}), std::invalid_argument);
  EXPECT_THROW(grid.set_axis("drop_pct", {}), std::invalid_argument);
  EXPECT_EQ(grid.axes().size(), 1u);
  EXPECT_EQ(grid.size(), 2u);
}

TEST(Grid, SetAxisRejectsValuesTheAxisCannotTake) {
  // What --grid "rounds=-1", "rounds=1e400" and
  // "rounds=99999999999999999999999" parse to: a trial would read each
  // as a huge count or fail to read it as an integer at all.
  ParamGrid grid;
  grid.axis("rounds", {std::int64_t{1}, std::int64_t{13}})
      .axis("stagger", {std::string("burst")});
  for (const std::string spec : {"rounds=-1", "rounds=1e400", "rounds=99999999999999999999999",
                                 "rounds=2,burst", "stagger=1"}) {
    auto axes = parse_grid_spec(spec);
    ASSERT_EQ(axes.size(), 1u) << spec;
    try {
      grid.set_axis(axes[0].name, std::move(axes[0].values));
      ADD_FAILURE() << spec << " was accepted";
    } catch (const std::invalid_argument& e) {
      EXPECT_NE(std::string(e.what()).find("'" + axes[0].name + "'"), std::string::npos)
          << e.what();
    }
  }
  EXPECT_EQ(grid.point(1).label(), "rounds=13 stagger=burst");
  grid.set_axis("rounds", {std::int64_t{0}});  // zero is a count
  EXPECT_EQ(grid.point(0).label(), "rounds=0 stagger=burst");
}

TEST(Grid, ParseSpecTypesAndStructure) {
  const auto axes = parse_grid_spec("rounds=1,2,13;scale=0.5,1.5;lock=No-Lock,Cpy-Lock");
  ASSERT_EQ(axes.size(), 3u);
  EXPECT_EQ(axes[0].name, "rounds");
  ASSERT_EQ(axes[0].values.size(), 3u);
  EXPECT_EQ(std::get<std::int64_t>(axes[0].values[2]), 13);
  EXPECT_DOUBLE_EQ(std::get<double>(axes[1].values[0]), 0.5);
  EXPECT_EQ(std::get<std::string>(axes[2].values[1]), "Cpy-Lock");
}

TEST(Grid, ParseSpecEdgesAndErrors) {
  EXPECT_TRUE(parse_grid_spec("").empty());
  EXPECT_TRUE(parse_grid_spec(";;").empty());
  EXPECT_THROW(parse_grid_spec("noequals"), std::invalid_argument);
  EXPECT_THROW(parse_grid_spec("=1,2"), std::invalid_argument);
  EXPECT_THROW(parse_grid_spec("a=1,,2"), std::invalid_argument);
  // An axis named twice would silently keep its last values.
  EXPECT_THROW(parse_grid_spec("rounds=1;rounds=2"), std::invalid_argument);
  EXPECT_THROW(parse_grid_spec("a=1;b=2;a=1"), std::invalid_argument);
}

TEST(Grid, ParamToString) {
  EXPECT_EQ(param_to_string(ParamValue{std::int64_t{-7}}), "-7");
  EXPECT_EQ(param_to_string(ParamValue{0.5}), "0.5");
  EXPECT_EQ(param_to_string(ParamValue{std::string("atomic")}), "atomic");
}

}  // namespace
}  // namespace rasc::exp
