#include "obs/table.hpp"

#include <cstdio>
#include <sstream>
#include <vector>

#include "core/engine.hpp"
#include "runtime/world.hpp"

namespace lwmpi::obs {

namespace {

WorldOptions walk_opts(DeviceKind device, BuildConfig build) {
  WorldOptions o;
  o.device = device;
  o.build = build;
  o.build.trace = false;  // the walk needs no lifecycle events
  o.ranks_per_node = 1;
  return o;
}

bool matches_model(const cost::Meter::Snapshot& metered, const cost::Breakdown& modeled) {
  for (std::size_t i = 0; i < cost::kNumCategories; ++i) {
    if (metered.by_category[i] != modeled.by_category[i]) return false;
  }
  return true;
}

void append_json_row(std::ostringstream& out, const AttributionRow& r, bool first) {
  out << (first ? "" : ",") << "{\"op\":\"" << r.op << "\",\"device\":\""
      << to_string(r.device) << "\",\"build\":\"" << r.build.label() << "\",\"total\":"
      << r.metered.total << ",\"groups\":{";
  for (std::size_t g = 0; g < cost::kNumGroups; ++g) {
    out << (g == 0 ? "" : ",") << '"' << cost::to_string(static_cast<cost::Group>(g))
        << "\":" << r.metered.group(static_cast<cost::Group>(g));
  }
  out << "},\"categories\":{";
  for (std::size_t c = 0; c < cost::kNumCategories; ++c) {
    out << (c == 0 ? "" : ",") << '"' << cost::to_string(static_cast<cost::Category>(c))
        << "\":" << r.metered.by_category[c];
  }
  out << "},\"modeled_total\":" << r.modeled.total()
      << ",\"model_ok\":" << (r.model_ok ? "true" : "false") << '}';
}

// Text rendering: pairs of rows (same device+build, isend then put) become one
// Table-1-style block; singletons render alone.
void append_text_block(std::ostringstream& out, const AttributionRow* isend,
                       const AttributionRow* put) {
  const AttributionRow& any = isend != nullptr ? *isend : *put;
  out << "--- " << to_string(any.device) << " (" << any.build.label() << ") ---\n";
  char line[128];
  std::snprintf(line, sizeof(line), "%-26s %10s %10s\n", "category", "isend", "put");
  out << line;
  auto cell = [](const AttributionRow* r, std::uint64_t v) {
    return r != nullptr ? std::to_string(v) : std::string("-");
  };
  for (std::size_t g = 0; g < cost::kNumGroups; ++g) {
    const auto grp = static_cast<cost::Group>(g);
    const std::uint64_t iv = isend != nullptr ? isend->metered.group(grp) : 0;
    const std::uint64_t pv = put != nullptr ? put->metered.group(grp) : 0;
    if (iv == 0 && pv == 0) continue;
    std::snprintf(line, sizeof(line), "%-26s %10s %10s\n",
                  std::string(cost::to_string(grp)).c_str(), cell(isend, iv).c_str(),
                  cell(put, pv).c_str());
    out << line;
  }
  // Section-3 mandatory detail: the fine categories behind the Mandatory row.
  for (std::size_t c = 0; c < cost::kNumCategories; ++c) {
    const auto cat = static_cast<cost::Category>(c);
    if (cost::group_of(cat) != cost::Group::Mandatory) continue;
    const std::uint64_t iv = isend != nullptr ? isend->metered.category(cat) : 0;
    const std::uint64_t pv = put != nullptr ? put->metered.category(cat) : 0;
    if (iv == 0 && pv == 0) continue;
    std::snprintf(line, sizeof(line), "  %-24s %10s %10s\n",
                  std::string(cost::to_string(cat)).c_str(), cell(isend, iv).c_str(),
                  cell(put, pv).c_str());
    out << line;
  }
  std::snprintf(line, sizeof(line), "%-26s %10s %10s\n", "total",
                cell(isend, isend != nullptr ? isend->metered.total : 0).c_str(),
                cell(put, put != nullptr ? put->metered.total : 0).c_str());
  out << line;
  auto verdict = [&](const AttributionRow* r) {
    if (r == nullptr) return;
    out << "model check (" << r->op << "): "
        << (r->model_ok ? "OK" : "MISMATCH") << " (modeled " << r->modeled.total()
        << ")\n";
  };
  verdict(isend);
  verdict(put);
}

}  // namespace

cost::Meter metered_isend(DeviceKind device, BuildConfig build) {
  cost::Meter out;
  World w(2, walk_opts(device, build));
  w.run([&](Engine& e) {
    if (e.world_rank() == 0) {
      int v = 7;
      Request r = kRequestNull;
      {
        cost::ScopedMeter arm(out);
        e.isend(&v, 1, kInt, 1, 1, kCommWorld, &r);
      }
      e.wait(&r, nullptr);
    } else {
      int got = 0;
      e.recv(&got, 1, kInt, 0, 1, kCommWorld, nullptr);
    }
  });
  return out;
}

cost::Meter metered_put(DeviceKind device, BuildConfig build) {
  cost::Meter out;
  World w(2, walk_opts(device, build));
  w.run([&](Engine& e) {
    std::vector<int> mem(8, 0);
    Win win = kWinNull;
    e.win_create(mem.data(), mem.size() * sizeof(int), sizeof(int), kCommWorld, &win);
    e.win_fence(win);
    if (e.world_rank() == 0) {
      const int v = 3;
      cost::ScopedMeter arm(out);
      e.put(&v, 1, kInt, 1, 0, 1, kInt, win);
    }
    e.win_fence(win);
    e.win_free(&win);
  });
  return out;
}

AttributionRow attribution_row(std::string_view op, DeviceKind device, BuildConfig build) {
  AttributionRow r;
  r.op = op == "put" ? "put" : "isend";
  r.device = device;
  r.build = build;
  const bool orig = device == DeviceKind::Orig;
  if (r.op == "put") {
    r.metered = metered_put(device, build).snapshot();
    r.modeled = cost::modeled_put_breakdown(orig, build.error_checking, build.thread_safety,
                                            build.ipo);
  } else {
    r.metered = metered_isend(device, build).snapshot();
    r.modeled = cost::modeled_isend_breakdown(orig, build.error_checking,
                                              build.thread_safety, build.ipo);
  }
  r.model_ok = matches_model(r.metered, r.modeled);
  return r;
}

std::vector<AttributionRow> collect_attribution() {
  struct Config {
    DeviceKind device;
    BuildConfig build;
  };
  const Config matrix[] = {
      {DeviceKind::Orig, BuildConfig::dflt()},
      {DeviceKind::Ch4, BuildConfig::dflt()},
      {DeviceKind::Ch4, BuildConfig::no_err()},
      {DeviceKind::Ch4, BuildConfig::no_err_single()},
      {DeviceKind::Ch4, BuildConfig::no_err_single_ipo()},
  };
  std::vector<AttributionRow> rows;
  rows.reserve(2 * std::size(matrix));
  for (const Config& c : matrix) {
    rows.push_back(attribution_row("isend", c.device, c.build));
    rows.push_back(attribution_row("put", c.device, c.build));
  }
  return rows;
}

std::string table_report(std::span<const AttributionRow> rows, bool as_json) {
  std::ostringstream out;
  if (as_json) {
    out << "{\"attribution\":[";
    for (std::size_t i = 0; i < rows.size(); ++i) append_json_row(out, rows[i], i == 0);
    out << "]}";
    return out.str();
  }
  out << "=== cost attribution (metered live paths vs closed-form model) ===\n";
  // Pair isend/put rows of the same configuration into one block.
  std::vector<bool> used(rows.size(), false);
  for (std::size_t i = 0; i < rows.size(); ++i) {
    if (used[i]) continue;
    const AttributionRow* isend = rows[i].op == "isend" ? &rows[i] : nullptr;
    const AttributionRow* put = rows[i].op == "put" ? &rows[i] : nullptr;
    for (std::size_t j = i + 1; j < rows.size(); ++j) {
      if (used[j] || rows[j].device != rows[i].device ||
          rows[j].build.label() != rows[i].build.label() || rows[j].op == rows[i].op) {
        continue;
      }
      if (rows[j].op == "isend") isend = &rows[j]; else put = &rows[j];
      used[j] = true;
      break;
    }
    used[i] = true;
    append_text_block(out, isend, put);
  }
  return out.str();
}

std::string attribution_report(DeviceKind device, BuildConfig build, bool as_json) {
  const AttributionRow rows[] = {
      attribution_row("isend", device, build),
      attribution_row("put", device, build),
  };
  return table_report(rows, as_json);
}

}  // namespace lwmpi::obs
