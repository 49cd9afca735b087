#include "src/obs/metrics.h"

#include <tuple>
#include <type_traits>
#include <vector>

#include "src/common/json.h"

namespace scatter::obs {
namespace {

// Appends the cell's opening brace and identity: {"name":...,"node":N,"group":G
void AppendCellPrefix(std::string* out,
                      const std::tuple<std::string, NodeId, GroupId>& key) {
  *out += "{\"name\":";
  json::AppendString(out, std::get<0>(key));
  *out += ",";
  json::AppendU64(out, "node", std::get<1>(key));
  *out += ",";
  json::AppendU64(out, "group", std::get<2>(key));
}

}  // namespace

Counter& MetricsRegistry::GetCounter(const std::string& name, NodeId node,
                                     GroupId group) {
  auto [it, inserted] = counters_.try_emplace(Key(name, node, group), nullptr);
  if (inserted) it->second = &counter_arena_.emplace_back();
  return *it->second;
}

Gauge& MetricsRegistry::GetGauge(const std::string& name, NodeId node,
                                 GroupId group) {
  auto [it, inserted] = gauges_.try_emplace(Key(name, node, group), nullptr);
  if (inserted) it->second = &gauge_arena_.emplace_back();
  return *it->second;
}

Histogram& MetricsRegistry::GetHistogram(const std::string& name, NodeId node,
                                         GroupId group) {
  return histograms_[Key(name, node, group)];
}

namespace {

// Visits every cell of one metric name: the index is ordered by
// (name, node, group), so all cells of a name are contiguous. The cells are
// collected before the first call because the health monitor and timeline
// re-enter the registry (Find*/Get*) from inside their visitors, and a cell
// they create must not join the pass in progress. Arena-backed maps store
// Cell*, the histogram map stores the cell inline; both kinds have
// stable addresses.
template <typename Cell, typename Map>
void VisitName(const Map& map, const std::string& name,
               const std::function<void(NodeId, GroupId, const Cell&)>& fn) {
  using K = typename Map::key_type;
  std::vector<std::tuple<NodeId, GroupId, const Cell*>> cells;
  for (auto it = map.lower_bound(K(name, 0, 0));
       it != map.end() && std::get<0>(it->first) == name; ++it) {
    const Cell* cell;
    if constexpr (std::is_pointer_v<typename Map::mapped_type>) {
      cell = it->second;
    } else {
      cell = &it->second;
    }
    cells.emplace_back(std::get<1>(it->first), std::get<2>(it->first), cell);
  }
  for (const auto& [node, group, cell] : cells) {
    fn(node, group, *cell);
  }
}

// Point lookup that does not create the cell; nullptr when absent.
template <typename Cell, typename Map>
const Cell* FindCell(const Map& map, const typename Map::key_type& key) {
  auto it = map.find(key);
  return it == map.end() ? nullptr : it->second;
}

}  // namespace

void MetricsRegistry::ForEachCounter(
    const std::string& name,
    const std::function<void(NodeId, GroupId, const Counter&)>& fn) const {
  VisitName<Counter>(counters_, name, fn);
}

void MetricsRegistry::ForEachGauge(
    const std::string& name,
    const std::function<void(NodeId, GroupId, const Gauge&)>& fn) const {
  VisitName<Gauge>(gauges_, name, fn);
}

void MetricsRegistry::ForEachHistogram(
    const std::string& name,
    const std::function<void(NodeId, GroupId, const Histogram&)>& fn) const {
  VisitName<Histogram>(histograms_, name, fn);
}

const Counter* MetricsRegistry::FindCounter(const std::string& name,
                                            NodeId node, GroupId group) const {
  return FindCell<Counter>(counters_, Key(name, node, group));
}

const Gauge* MetricsRegistry::FindGauge(const std::string& name, NodeId node,
                                        GroupId group) const {
  return FindCell<Gauge>(gauges_, Key(name, node, group));
}

std::string MetricsRegistry::ToJson() const {
  std::string out = "{\"schema\":\"scatter.metrics.v1\",\"counters\":[";
  bool first = true;
  for (const auto& [key, counter] : counters_) {
    if (!first) out += ",";
    first = false;
    AppendCellPrefix(&out, key);
    out += ",";
    json::AppendU64(&out, "value", counter->value);
    out += "}";
  }
  out += "],\"gauges\":[";
  first = true;
  for (const auto& [key, gauge] : gauges_) {
    if (!first) out += ",";
    first = false;
    AppendCellPrefix(&out, key);
    out += ",";
    json::AppendI64(&out, "value", gauge->value);
    out += "}";
  }
  out += "],\"histograms\":[";
  first = true;
  for (const auto& [key, hist] : histograms_) {
    if (!first) out += ",";
    first = false;
    AppendCellPrefix(&out, key);
    out += ",\"hist\":" + hist.ToJson() + "}";
  }
  out += "]}";
  return out;
}

}  // namespace scatter::obs
