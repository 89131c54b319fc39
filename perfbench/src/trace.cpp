#include "trace.hpp"

#include <algorithm>
#include <cstdio>
#include <map>

namespace perfbench {

std::int32_t Tracer::begin(const char* name, std::int32_t parent, std::uint64_t round) {
  if (!enabled_) return -1;
  const std::int64_t t = now_ns();
  std::lock_guard<std::mutex> lock(mu_);
  spans_.push_back(Span{name, t, t, parent, round});
  return static_cast<std::int32_t>(spans_.size() - 1);
}

void Tracer::end(std::int32_t span) {
  if (span < 0) return;
  const std::int64_t t = now_ns();
  std::lock_guard<std::mutex> lock(mu_);
  spans_[static_cast<std::size_t>(span)].end_ns = t;
}

std::int32_t Tracer::record(const char* name, std::int64_t start_ns, std::int64_t end_ns,
                            std::int32_t parent, std::uint64_t round) {
  if (!enabled_) return -1;
  std::lock_guard<std::mutex> lock(mu_);
  spans_.push_back(Span{name, start_ns, end_ns, parent, round});
  return static_cast<std::int32_t>(spans_.size() - 1);
}

std::vector<Span> Tracer::spans() const {
  std::lock_guard<std::mutex> lock(mu_);
  return spans_;
}

std::string layer_of(const std::string& name) {
  const auto dot = name.find('.');
  return dot == std::string::npos ? name : name.substr(0, dot);
}

namespace {

/// Length of the union of [start, end) intervals.
std::int64_t union_length(std::vector<std::pair<std::int64_t, std::int64_t>> iv) {
  std::sort(iv.begin(), iv.end());
  std::int64_t total = 0;
  std::int64_t cur_start = 0;
  std::int64_t cur_end = 0;
  bool open = false;
  for (const auto& [s, e] : iv) {
    if (!open || s > cur_end) {
      if (open) total += cur_end - cur_start;
      cur_start = s;
      cur_end = e;
      open = true;
    } else {
      cur_end = std::max(cur_end, e);
    }
  }
  if (open) total += cur_end - cur_start;
  return total;
}

}  // namespace

TraceSummary summarize(const std::vector<Span>& spans, const std::string& window,
                       std::size_t threads, const std::vector<Estimate>& estimates) {
  TraceSummary out;
  const std::size_t n = spans.size();
  std::vector<std::vector<std::pair<std::int64_t, std::int64_t>>> children(n);
  for (const Span& s : spans) {
    if (s.parent >= 0 && static_cast<std::size_t>(s.parent) < n) {
      children[static_cast<std::size_t>(s.parent)].emplace_back(s.start_ns, s.end_ns);
    }
  }
  // A span counts toward the window when it, or an ancestor, is a window
  // span.  Parents always precede their children in the list.
  std::vector<char> in_window(n, 0);
  for (std::size_t i = 0; i < n; ++i) {
    if (window == spans[i].name) {
      in_window[i] = 1;
    } else if (spans[i].parent >= 0) {
      in_window[i] = in_window[static_cast<std::size_t>(spans[i].parent)];
    }
  }

  std::map<std::string, NameStats> by_name;
  for (std::size_t i = 0; i < n; ++i) {
    if (!in_window[i]) continue;
    const Span& s = spans[i];
    const std::int64_t dur = std::max<std::int64_t>(0, s.end_ns - s.start_ns);
    const std::int64_t self =
        std::max<std::int64_t>(0, dur - union_length(children[i]));
    NameStats& st = by_name[s.name];
    st.name = s.name;
    st.layer = layer_of(s.name);
    ++st.count;
    st.busy_s += static_cast<double>(dur) * 1e-9;
    st.self_s += static_cast<double>(self) * 1e-9;
    if (window == s.name) out.window_s += static_cast<double>(dur) * 1e-9;
  }
  out.capacity_s = out.window_s * static_cast<double>(std::max<std::size_t>(threads, 1));

  // Carve estimates out of their parent's self time, scaled down together
  // when they would overdraw it.
  std::map<std::string, double> wanted;
  double wanted_total = 0.0;
  for (const Estimate& e : estimates) {
    const double busy = e.count * e.per_call_s;
    wanted[e.parent] += busy;
    wanted_total += busy;
  }
  double overflow = 0.0;
  std::map<std::string, double> scale;
  for (const auto& [parent, want] : wanted) {
    const auto it = by_name.find(parent);
    const double avail = it == by_name.end() ? 0.0 : it->second.self_s;
    const double granted = std::min(want, avail);
    scale[parent] = want > 0.0 ? granted / want : 0.0;
    overflow += want - granted;
    if (it != by_name.end()) it->second.self_s -= granted;
  }
  out.estimate_overflow = wanted_total > 0.0 ? overflow / wanted_total : 0.0;
  for (const Estimate& e : estimates) {
    NameStats& st = by_name[e.name];
    st.name = e.name;
    st.layer = layer_of(e.name);
    st.count += static_cast<std::size_t>(e.count);
    const double busy = e.count * e.per_call_s * scale[e.parent];
    st.busy_s += busy;
    st.self_s += busy;
    st.estimated = true;
  }

  std::map<std::string, double> layer_busy;
  double attributed = 0.0;
  for (auto& [name, st] : by_name) {
    out.names.push_back(st);
    if (name == window) continue;
    layer_busy[st.layer] += st.self_s;
    attributed += st.self_s;
  }
  for (const auto& [layer, busy] : layer_busy) {
    out.layers.push_back(
        {layer, busy, out.capacity_s > 0.0 ? busy / out.capacity_s : 0.0});
  }
  out.unattributed_share =
      out.capacity_s > 0.0 ? 1.0 - attributed / out.capacity_s : 0.0;
  return out;
}

bool write_trace_json(const std::string& path, const std::string& workload,
                      std::uint64_t seed, const std::vector<Span>& spans,
                      const TraceSummary& summary, std::size_t max_spans) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  const std::int64_t t0 = spans.empty() ? 0 : spans.front().start_ns;
  std::fprintf(f, "{\"workload\":\"%s\",\"seed\":%llu,", workload.c_str(),
               static_cast<unsigned long long>(seed));
  std::fprintf(f,
               "\"summary\":{\"window_s\":%.9g,\"capacity_s\":%.9g,"
               "\"unattributed_share\":%.6g,\"estimate_overflow\":%.6g,\"layers\":[",
               summary.window_s, summary.capacity_s, summary.unattributed_share,
               summary.estimate_overflow);
  for (std::size_t i = 0; i < summary.layers.size(); ++i) {
    const LayerStats& l = summary.layers[i];
    std::fprintf(f, "%s{\"layer\":\"%s\",\"busy_s\":%.9g,\"share\":%.6g}", i ? "," : "",
                 l.layer.c_str(), l.busy_s, l.share);
  }
  std::fprintf(f, "],\"names\":[");
  for (std::size_t i = 0; i < summary.names.size(); ++i) {
    const NameStats& s = summary.names[i];
    std::fprintf(f,
                 "%s{\"name\":\"%s\",\"layer\":\"%s\",\"count\":%zu,\"busy_s\":%.9g,"
                 "\"self_s\":%.9g,\"share\":%.6g,\"estimated\":%s}",
                 i ? "," : "", s.name.c_str(), s.layer.c_str(), s.count, s.busy_s,
                 s.self_s, summary.capacity_s > 0 ? s.self_s / summary.capacity_s : 0.0,
                 s.estimated ? "true" : "false");
  }
  const std::size_t written = std::min(spans.size(), max_spans);
  std::fprintf(f, "]},\"spans_total\":%zu,\"spans\":[", spans.size());
  for (std::size_t i = 0; i < written; ++i) {
    const Span& s = spans[i];
    std::fprintf(f, "%s\n[\"%s\",%lld,%lld,%d,%llu]", i ? "," : "", s.name,
                 static_cast<long long>(s.start_ns - t0),
                 static_cast<long long>(s.end_ns - t0), s.parent,
                 static_cast<unsigned long long>(s.round));
  }
  std::fprintf(f, "]}\n");
  return std::fclose(f) == 0;
}

}  // namespace perfbench
