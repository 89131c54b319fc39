#pragma once
/// \file grid.hpp
/// Declarative parameter grids for experiment campaigns.  A grid is an
/// ordered list of named axes; its cells are the cartesian product of the
/// axis values, enumerated in mixed-radix order with the FIRST axis
/// varying slowest.  Cell enumeration order is part of the deterministic
/// seeding contract (grid_index feeds derive_trial_seed), so axis order
/// matters and is preserved exactly as declared.

#include <cstdint>
#include <string>
#include <variant>
#include <vector>

namespace rasc::exp {

/// Axis values are integers, reals or symbolic names (e.g. a lock
/// mechanism).  Integers and reals are kept distinct so JSON output can
/// round-trip them faithfully.
using ParamValue = std::variant<std::int64_t, double, std::string>;

std::string param_to_string(const ParamValue& value);

struct Axis {
  std::string name;
  std::vector<ParamValue> values;
};

/// One cell of the grid: the chosen value per axis, in axis order.
class GridPoint {
 public:
  GridPoint() = default;
  GridPoint(std::size_t index, std::vector<std::pair<std::string, ParamValue>> params)
      : index_(index), params_(std::move(params)) {}

  std::size_t index() const noexcept { return index_; }
  const std::vector<std::pair<std::string, ParamValue>>& params() const noexcept {
    return params_;
  }

  bool has(const std::string& name) const noexcept;
  /// Typed accessors; throw std::out_of_range for a missing axis and
  /// std::bad_variant_access for a type mismatch.  i64() widens from the
  /// stored integer; f64() accepts either integer or real axes.
  std::int64_t i64(const std::string& name) const;
  double f64(const std::string& name) const;
  const std::string& str(const std::string& name) const;

  /// "rounds=13 blocks=64" — stable human-readable cell label.
  std::string label() const;

 private:
  const ParamValue& at(const std::string& name) const;

  std::size_t index_ = 0;
  std::vector<std::pair<std::string, ParamValue>> params_;
};

class ParamGrid {
 public:
  /// Append an axis (fluent).  Throws std::invalid_argument on an empty
  /// value list or a duplicate name.
  ParamGrid& axis(std::string name, std::vector<ParamValue> values);
  /// Replace the values of an existing axis — the campaign runner's --grid
  /// override.  Throws std::invalid_argument on an empty value list, an
  /// axis the grid does not have (a typo must not add a dead axis), a
  /// value whose type differs from the axis's first value (a trial would
  /// read it with the wrong type) or a negative integer (every integer
  /// axis of a campaign is a count, a size, a percentage or a 0/1 flag).
  ParamGrid& set_axis(const std::string& name, std::vector<ParamValue> values);

  const std::vector<Axis>& axes() const noexcept { return axes_; }
  /// Number of cells: product of axis sizes; 1 for an axis-free grid (a
  /// single empty point, so plain N-trial campaigns need no special case).
  std::size_t size() const noexcept;
  /// Decode cell `index` (mixed-radix, first axis slowest).
  GridPoint point(std::size_t index) const;

 private:
  std::vector<Axis> axes_;
};

/// Parse "rounds=1,2,13;lock=nolock,wbl" into axes.  Each value is parsed
/// as int64 if it round-trips, else double, else kept as a string.  Throws
/// std::invalid_argument on syntax errors (missing '=', empty value list)
/// and on an axis named twice.
std::vector<Axis> parse_grid_spec(const std::string& spec);

}  // namespace rasc::exp
