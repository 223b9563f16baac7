// Attribution tier of the observability subsystem: live per-category cost
// breakdowns rendered as the paper's Table 1 / Figure 2.
//
// The cost meter (cost/meter.hpp) tags every charge site with a fine-grained
// attribution category. This module walks the *real* isend/put critical paths
// of a throwaway two-rank world with a meter armed -- the same methodology as
// the paper's Intel SDE traces -- and renders the per-operation, per-device,
// per-build category histograms in text and JSON. Every row is checked
// bit-for-bit against the closed-form decomposition in cost/model.hpp
// (`model_ok`), so a drifted charge site is caught by the reporting layer
// itself, not only by the unit tests.
#pragma once

#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "core/config.hpp"
#include "cost/meter.hpp"
#include "cost/model.hpp"

namespace lwmpi::obs {

// Walk one operation through a fresh two-rank world with a meter armed around
// the single metered call. Deterministic: the result depends only on
// (device, build). Tracing is forced off in the throwaway world: the walk
// needs no lifecycle events.
cost::Meter metered_isend(DeviceKind device, BuildConfig build);
cost::Meter metered_put(DeviceKind device, BuildConfig build);

// One row of the attribution report: a metered walk plus its closed-form
// decomposition and the bit-equality verdict.
struct AttributionRow {
  std::string_view op;  // "isend" | "put"
  DeviceKind device = DeviceKind::Ch4;
  BuildConfig build;
  cost::Meter::Snapshot metered;
  cost::Breakdown modeled;
  bool model_ok = false;  // metered == modeled, per category, bit-equal
};

// Build one row by walking the live path for (op, device, build).
AttributionRow attribution_row(std::string_view op, DeviceKind device, BuildConfig build);

// The paper's full measurement matrix: {isend, put} x {orig default, ch4
// default, no-err, no-err-single, no-err-single-ipo} (Table 1 + Figure 2).
std::vector<AttributionRow> collect_attribution();

// Render rows as text (Table-1-style grouped breakdown per configuration,
// plus the Figure-2 totals ladder) or as a JSON document:
//   {"attribution":[{"op":...,"device":...,"build":...,"total":...,
//     "groups":{...},"categories":{...},"modeled_total":...,"model_ok":...}]}
std::string table_report(std::span<const AttributionRow> rows, bool as_json);

// Both operations for a single (device, build): the slice World::stats_report
// embeds for the world's own configuration.
std::string attribution_report(DeviceKind device, BuildConfig build, bool as_json);

}  // namespace lwmpi::obs
