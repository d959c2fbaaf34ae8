#include "obs/profile.hpp"

#include <algorithm>
#include <cstdio>
#include <map>
#include <unordered_map>

namespace lisa::obs {

namespace {

/// The span's "contract" attribute, or empty.
std::string contract_attr(const SpanRecord& span) {
  for (const auto& [key, value] : span.attrs)
    if (key == "contract" && value.is_string()) return value.as_string();
  return std::string();
}

}  // namespace

CostTable build_cost_table(const std::vector<SpanRecord>& spans) {
  CostTable table;
  std::unordered_map<std::uint64_t, const SpanRecord*> by_id;
  by_id.reserve(spans.size());
  for (const SpanRecord& span : spans) by_id.emplace(span.id, &span);

  // Direct-children duration, charged to each parent for exclusive time.
  std::unordered_map<std::uint64_t, double> children_us;
  for (const SpanRecord& span : spans)
    if (span.parent_id != 0 && by_id.count(span.parent_id) > 0)
      children_us[span.parent_id] += span.dur_us;

  std::map<std::string, SpanCost> by_name;
  std::map<std::string, SmtHotspot> by_contract;
  for (const SpanRecord& span : spans) {
    SpanCost& cost = by_name[span.name];
    cost.name = span.name;
    ++cost.count;
    cost.inclusive_ms += span.dur_us / 1000.0;
    const auto children = children_us.find(span.id);
    const double child_us = children == children_us.end() ? 0.0 : children->second;
    cost.exclusive_ms += std::max(0.0, span.dur_us - child_us) / 1000.0;
    if (span.parent_id == 0 || by_id.count(span.parent_id) == 0)
      table.wall_ms += span.dur_us / 1000.0;

    if (span.name == "smt.solve") {
      // Charge the query to the nearest enclosing contract span.
      const SpanRecord* cursor = &span;
      while (cursor != nullptr && cursor->name != "checker.contract") {
        const auto parent = by_id.find(cursor->parent_id);
        cursor = parent == by_id.end() ? nullptr : parent->second;
      }
      const std::string contract =
          cursor != nullptr ? contract_attr(*cursor) : std::string("(outside checker)");
      if (!contract.empty()) {
        SmtHotspot& hotspot = by_contract[contract];
        hotspot.contract_id = contract;
        ++hotspot.queries;
        hotspot.solve_ms += span.dur_us / 1000.0;
      }
    }
  }

  for (auto& [name, cost] : by_name) table.rows.push_back(std::move(cost));
  std::sort(table.rows.begin(), table.rows.end(), [](const SpanCost& a, const SpanCost& b) {
    if (a.inclusive_ms != b.inclusive_ms) return a.inclusive_ms > b.inclusive_ms;
    return a.name < b.name;
  });
  for (auto& [contract, hotspot] : by_contract) table.hotspots.push_back(std::move(hotspot));
  std::sort(table.hotspots.begin(), table.hotspots.end(),
            [](const SmtHotspot& a, const SmtHotspot& b) {
              if (a.solve_ms != b.solve_ms) return a.solve_ms > b.solve_ms;
              return a.contract_id < b.contract_id;
            });
  return table;
}

support::Json CostTable::to_json() const {
  support::JsonArray span_rows;
  for (const SpanCost& row : rows) {
    support::JsonObject entry;
    entry["name"] = row.name;
    entry["count"] = row.count;
    entry["inclusive_ms"] = row.inclusive_ms;
    entry["exclusive_ms"] = row.exclusive_ms;
    span_rows.emplace_back(std::move(entry));
  }
  support::JsonArray hotspot_rows;
  for (const SmtHotspot& hotspot : hotspots) {
    support::JsonObject entry;
    entry["contract"] = hotspot.contract_id;
    entry["queries"] = hotspot.queries;
    entry["solve_ms"] = hotspot.solve_ms;
    hotspot_rows.emplace_back(std::move(entry));
  }
  support::JsonObject root;
  root["wall_ms"] = wall_ms;
  root["spans"] = support::Json(std::move(span_rows));
  root["smt_hotspots"] = support::Json(std::move(hotspot_rows));
  return support::Json(std::move(root));
}

std::string CostTable::render(std::size_t limit) const {
  std::string out;
  char line[256];
  std::snprintf(line, sizeof(line), "%-28s %8s %14s %14s\n", "span", "count",
                "inclusive ms", "exclusive ms");
  out += line;
  std::size_t shown = 0;
  for (const SpanCost& row : rows) {
    if (shown++ >= limit) break;
    std::snprintf(line, sizeof(line), "%-28s %8lld %14.3f %14.3f\n", row.name.c_str(),
                  static_cast<long long>(row.count), row.inclusive_ms, row.exclusive_ms);
    out += line;
  }
  if (!hotspots.empty()) {
    std::snprintf(line, sizeof(line), "\n%-44s %8s %14s\n", "SMT hotspot (contract)",
                  "queries", "solve ms");
    out += line;
    shown = 0;
    for (const SmtHotspot& hotspot : hotspots) {
      if (shown++ >= limit) break;
      std::snprintf(line, sizeof(line), "%-44s %8lld %14.3f\n", hotspot.contract_id.c_str(),
                    static_cast<long long>(hotspot.queries), hotspot.solve_ms);
      out += line;
    }
  }
  std::snprintf(line, sizeof(line), "\nwall clock (root spans): %.3f ms\n", wall_ms);
  out += line;
  return out;
}

}  // namespace lisa::obs
