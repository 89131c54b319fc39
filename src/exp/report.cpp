#include "src/exp/report.hpp"

#include <cstdio>
#include <fstream>

#include "src/obs/json.hpp"

namespace rasc::exp {

namespace {

void write_param(obs::JsonWriter& w, const ParamValue& value) {
  if (const auto* i = std::get_if<std::int64_t>(&value)) {
    w.number_value(static_cast<double>(*i));
  } else if (const auto* d = std::get_if<double>(&value)) {
    w.number_value(*d);
  } else {
    w.string_value(std::get<std::string>(value));
  }
}

}  // namespace

std::string campaign_json(const CampaignResult& result) {
  obs::JsonWriter w;
  w.begin_object();
  w.key("bench");
  w.string_value(result.name);
  w.key("campaign");
  w.begin_object();
  w.key("base_seed");
  w.uint_value(result.base_seed);
  w.key("trials_per_point");
  w.uint_value(result.trials_per_point);
  w.key("cells");
  w.begin_array();
  for (const auto& cell : result.cells) {
    w.begin_object();
    w.key("grid_index");
    w.uint_value(cell.grid_index);
    w.key("params");
    w.begin_object();
    for (const auto& [name, value] : cell.point.params()) {
      w.key(name);
      write_param(w, value);
    }
    w.end_object();
    w.key("trials");
    w.uint_value(cell.trials);
    w.key("successes");
    w.uint_value(cell.successes);
    w.key("attempts");
    w.uint_value(cell.attempts);
    w.key("success_rate");
    w.number_value(cell.success_rate);
    w.key("wilson_lower");
    w.number_value(cell.ci.lower);
    w.key("wilson_upper");
    w.number_value(cell.ci.upper);
    w.key("values");
    w.begin_object();
    for (const auto& [name, moments] : cell.values) {
      w.key(name);
      w.begin_object();
      w.key("count");
      w.uint_value(moments.count());
      w.key("mean");
      w.number_value(moments.mean());
      w.key("stddev");
      w.number_value(moments.stddev());
      w.key("stderr");
      w.number_value(moments.stderror());
      w.key("min");
      w.number_value(moments.min());
      w.key("max");
      w.number_value(moments.max());
      w.end_object();
    }
    w.end_object();
    if (!cell.metrics.empty()) {
      w.key("metrics");
      w.raw_value(cell.metrics.to_json());
    }
    if (!cell.health.empty()) {
      w.key("health");
      cell.health.write_json(w);
    }
    w.end_object();
  }
  w.end_array();
  w.end_object();
  w.end_object();
  return w.str();
}

std::string write_campaign_json(const CampaignResult& result, const std::string& dir) {
  std::string path;
  if (!dir.empty()) path = dir + "/";
  path += "BENCH_" + result.name + ".json";
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  if (!out) return "";
  const std::string json = campaign_json(result);
  out.write(json.data(), static_cast<std::streamsize>(json.size()));
  out << '\n';
  if (!out) return "";
  return path;
}

support::Table campaign_table(const CampaignResult& result) {
  support::Table table({"cell", "trials", "rate", "wilson 95% CI", "values (mean)"});
  for (const auto& cell : result.cells) {
    std::string values;
    for (const auto& [name, moments] : cell.values) {
      if (!values.empty()) values += "  ";
      values += name + "=" + support::fmt_double(moments.mean(), 4);
    }
    table.add_row({cell.point.params().empty() ? "(all)" : cell.point.label(),
                   std::to_string(cell.trials),
                   support::fmt_sci(cell.success_rate, 3),
                   "[" + support::fmt_sci(cell.ci.lower, 2) + ", " +
                       support::fmt_sci(cell.ci.upper, 2) + "]",
                   values});
  }
  return table;
}

bool print_claims(const CampaignSpec& spec, const CampaignResult& result) {
  if (!spec.claims) return true;
  bool all = true;
  for (const Claim& c : spec.claims(result)) {
    std::printf("  [%s] %s\n", c.ok ? "ok" : "FAIL", c.label.c_str());
    all = all && c.ok;
  }
  return all;
}

}  // namespace rasc::exp
