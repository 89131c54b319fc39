#include "src/exp/grid.hpp"

#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <stdexcept>

namespace rasc::exp {

namespace {

std::string format_double(double v) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%g", v);
  return buf;
}

}  // namespace

std::string param_to_string(const ParamValue& value) {
  if (const auto* i = std::get_if<std::int64_t>(&value)) return std::to_string(*i);
  if (const auto* d = std::get_if<double>(&value)) return format_double(*d);
  return std::get<std::string>(value);
}

bool GridPoint::has(const std::string& name) const noexcept {
  for (const auto& [key, value] : params_) {
    if (key == name) return true;
  }
  return false;
}

const ParamValue& GridPoint::at(const std::string& name) const {
  for (const auto& [key, value] : params_) {
    if (key == name) return value;
  }
  throw std::out_of_range("GridPoint: no axis named '" + name + "'");
}

std::int64_t GridPoint::i64(const std::string& name) const {
  return std::get<std::int64_t>(at(name));
}

double GridPoint::f64(const std::string& name) const {
  const ParamValue& value = at(name);
  if (const auto* i = std::get_if<std::int64_t>(&value)) return static_cast<double>(*i);
  return std::get<double>(value);
}

const std::string& GridPoint::str(const std::string& name) const {
  return std::get<std::string>(at(name));
}

std::string GridPoint::label() const {
  std::string out;
  for (const auto& [key, value] : params_) {
    if (!out.empty()) out += ' ';
    out += key;
    out += '=';
    out += param_to_string(value);
  }
  return out;
}

ParamGrid& ParamGrid::axis(std::string name, std::vector<ParamValue> values) {
  if (values.empty()) throw std::invalid_argument("ParamGrid: empty axis '" + name + "'");
  for (const auto& existing : axes_) {
    if (existing.name == name) {
      throw std::invalid_argument("ParamGrid: duplicate axis '" + name + "'");
    }
  }
  axes_.push_back(Axis{std::move(name), std::move(values)});
  return *this;
}

ParamGrid& ParamGrid::set_axis(const std::string& name, std::vector<ParamValue> values) {
  if (values.empty()) throw std::invalid_argument("ParamGrid: empty axis '" + name + "'");
  for (auto& existing : axes_) {
    if (existing.name != name) continue;
    constexpr const char* kTypeNames[] = {"integer", "real", "string"};
    const std::size_t type = existing.values.front().index();
    for (const ParamValue& value : values) {
      if (value.index() != type) {
        throw std::invalid_argument("ParamGrid: axis '" + name + "' takes " +
                                    kTypeNames[type] + " values, not '" +
                                    param_to_string(value) + "'");
      }
      if (const auto* count = std::get_if<std::int64_t>(&value); count && *count < 0) {
        throw std::invalid_argument("ParamGrid: axis '" + name +
                                    "' takes no negative value, not '" +
                                    param_to_string(value) + "'");
      }
    }
    existing.values = std::move(values);
    return *this;
  }
  throw std::invalid_argument("ParamGrid: no axis '" + name + "' to override");
}

std::size_t ParamGrid::size() const noexcept {
  std::size_t n = 1;
  for (const auto& a : axes_) n *= a.values.size();
  return n;
}

GridPoint ParamGrid::point(std::size_t index) const {
  if (index >= size()) throw std::out_of_range("ParamGrid::point: index past grid end");
  std::vector<std::pair<std::string, ParamValue>> params;
  params.reserve(axes_.size());
  // Mixed-radix decode with the first axis as the most significant digit.
  std::size_t radix_below = size();
  std::size_t rest = index;
  for (const auto& a : axes_) {
    radix_below /= a.values.size();
    const std::size_t digit = rest / radix_below;
    rest %= radix_below;
    params.emplace_back(a.name, a.values[digit]);
  }
  return GridPoint(index, std::move(params));
}

std::vector<Axis> parse_grid_spec(const std::string& spec) {
  std::vector<Axis> axes;
  std::size_t start = 0;
  while (start < spec.size()) {
    std::size_t end = spec.find(';', start);
    if (end == std::string::npos) end = spec.size();
    const std::string clause = spec.substr(start, end - start);
    start = end + 1;
    if (clause.empty()) continue;

    const std::size_t eq = clause.find('=');
    if (eq == std::string::npos || eq == 0) {
      throw std::invalid_argument("grid spec clause '" + clause + "': want name=v1,v2,...");
    }
    Axis axis;
    axis.name = clause.substr(0, eq);
    std::size_t vstart = eq + 1;
    while (vstart <= clause.size()) {
      std::size_t vend = clause.find(',', vstart);
      if (vend == std::string::npos) vend = clause.size();
      const std::string token = clause.substr(vstart, vend - vstart);
      vstart = vend + 1;
      if (token.empty()) {
        throw std::invalid_argument("grid spec axis '" + axis.name + "': empty value");
      }
      char* parse_end = nullptr;
      errno = 0;
      const long long as_int = std::strtoll(token.c_str(), &parse_end, 10);
      if (errno == 0 && parse_end == token.c_str() + token.size()) {
        axis.values.emplace_back(static_cast<std::int64_t>(as_int));
        continue;
      }
      errno = 0;
      const double as_double = std::strtod(token.c_str(), &parse_end);
      if (errno == 0 && parse_end == token.c_str() + token.size()) {
        axis.values.emplace_back(as_double);
        continue;
      }
      axis.values.emplace_back(token);
    }
    if (axis.values.empty()) {
      throw std::invalid_argument("grid spec axis '" + axis.name + "': no values");
    }
    for (const Axis& earlier : axes) {
      if (earlier.name == axis.name) {
        throw std::invalid_argument("grid spec axis '" + axis.name + "' named twice");
      }
    }
    axes.push_back(std::move(axis));
  }
  return axes;
}

}  // namespace rasc::exp
