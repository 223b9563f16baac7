// Text renderers over the artifacts' JSON forms (obs/text.hpp,
// obs/profile_load.hpp).
//
// Members are read with json::Value::operator[], so a member missing from a
// hand-edited file prints as 0, or as "?" where text is expected.
#include "obs/text.hpp"

#include <algorithm>
#include <cstdarg>
#include <cstdint>
#include <cstdio>
#include <initializer_list>
#include <map>
#include <vector>

#include "common/types.hpp"
#include "obs/profile_load.hpp"

namespace lwmpi::obs {

namespace {

using json::Value;

// printf onto the end of `out`.
[[gnu::format(printf, 2, 3)]] void put(std::string& out, const char* fmt, ...) {
  va_list ap;
  va_list again;
  va_start(ap, fmt);
  va_copy(again, ap);
  const int n = std::vsnprintf(nullptr, 0, fmt, ap);
  va_end(ap);
  if (n > 0) {
    const std::size_t at = out.size();
    out.resize(at + static_cast<std::size_t>(n) + 1);
    std::vsnprintf(out.data() + at, static_cast<std::size_t>(n) + 1, fmt, again);
    out.resize(at + static_cast<std::size_t>(n));
  }
  va_end(again);
}

const char* text(const Value& v) { return v.kind == Value::Kind::Str ? v.str.c_str() : "?"; }
unsigned long long ull(const Value& v) { return v.u64(); }
long long ll(const Value& v) { return v.i64(); }

// An age or a duration; 0 means the event was never stamped.
std::string age(const Value& ns) { return ns.u64() == 0 ? "?" : fmt_ns(ns.num); }

// A source or tag that may be a wildcard.
std::string any(const Value& v, long long wildcard) {
  return v.i64() == wildcard ? "*" : std::to_string(v.i64());
}

// The `k` callsites with the most MPI time, one line each.
void top_sites(std::string& o, const std::map<std::string, SiteAgg>& sites, std::size_t k) {
  std::vector<std::pair<std::string, SiteAgg>> top(sites.begin(), sites.end());
  std::stable_sort(top.begin(), top.end(), [](const auto& a, const auto& b) {
    return a.second.time_ns > b.second.time_ns;
  });
  if (top.size() > k) top.resize(k);
  for (const auto& [site, a] : top) {
    put(o, "  %-22s count=%-10llu bytes=%-10s time=%.1fus\n", site.c_str(),
        static_cast<unsigned long long>(a.count), fmt_bytes(static_cast<double>(a.bytes)).c_str(),
        static_cast<double>(a.time_ns) / 1e3);
  }
}

void entry(std::string& o, const char* label, const Value& e) {
  put(o, "    %s comm=%s src=%s tag=%s bytes=%llu age=%s%s\n", label, text(e["comm"]),
      any(e["src"], kAnySource).c_str(), any(e["tag"], kAnyTag).c_str(), ull(e["bytes"]),
      age(e["age_ns"]).c_str(), e["arrival_order"].b ? " [arrival-order]" : "");
}

// `v` in the largest of `units` (largest first) it reaches; the last unit
// takes whatever is left.
struct Unit {
  double scale;
  const char* fmt;
};
std::string scaled(double v, std::initializer_list<Unit> units) {
  const Unit* u = units.begin();
  while (u + 1 != units.end() && v < u->scale) ++u;
  std::string s;
  put(s, u->fmt, v / u->scale);
  return s;
}

}  // namespace

std::string fmt_ns(double ns) {
  return scaled(ns, {{1e9, "%.2fs"}, {1e6, "%.1fms"}, {1e3, "%.1fus"}, {1, "%.0fns"}});
}

std::string fmt_bytes(double bytes) {
  return scaled(bytes,
                {{0x1p30, "%.1fGiB"}, {0x1p20, "%.1fMiB"}, {0x1p10, "%.1fKiB"}, {1, "%.0fB"}});
}

// --- hang report ------------------------------------------------------------

std::string render_snapshot_text(const Value& s) {
  std::string o;
  put(o, "rank %lld: ", ll(s["rank"]));
  if (s["blocking_call"].kind == Value::Kind::Str) {
    put(o, "blocked in %s for %s", text(s["blocking_call"]), age(s["blocked_ns"]).c_str());
  } else {
    o += "not in a blocking call";
  }
  const unsigned long long live = ull(s["live_requests"]);
  put(o, " (%llu live request%s)", live, live == 1 ? "" : "s");
  if (s["phase"].kind == Value::Kind::Str) put(o, " [phase %s]", text(s["phase"]));
  o += '\n';
  if (const Value& r = s["oldest"]; r.kind == Value::Kind::Obj) {
    put(o, "  oldest: %s comm=%s peer=%s tag=%s bytes=%llu age=%s\n", text(r["kind"]),
        text(r["comm"]), any(r["peer"], kAnySource).c_str(), any(r["tag"], kAnyTag).c_str(),
        ull(r["bytes"]), age(r["age_ns"]).c_str());
  }
  for (const Value& v : s["vcis"].arr) {
    const std::vector<Value>& posted = v["posted"].arr;
    const std::vector<Value>& unexpected = v["unexpected"].arr;
    const std::vector<Value>& sendq = v["send_queue"].arr;
    if (posted.empty() && unexpected.empty() && sendq.empty()) continue;
    put(o, "  vci %lld: posted=%zu unexpected=%zu sendq=%zu\n", ll(v["vci"]), posted.size(),
        unexpected.size(), sendq.size());
    for (const Value& e : posted) entry(o, "posted:    ", e);
    for (const Value& e : unexpected) entry(o, "unexpected:", e);
    for (const Value& e : sendq) {
      put(o, "    sendq:      dst=%lld tag=%lld bytes=%llu age=%s\n", ll(e["dst"]),
          ll(e["tag"]), ull(e["bytes"]), age(e["age_ns"]).c_str());
    }
  }
  for (const Value& w : s["windows"].arr) {
    put(o, "  win %llu: epoch=%s acks=%llu deferred=%llu\n", ull(w["win_id"]),
        text(w["epoch"]), ull(w["outstanding_acks"]), ull(w["deferred_ops"]));
  }
  if (const Value& r = s["rdma"]; r.kind == Value::Kind::Obj) {
    put(o, "  rdma: reg_cache=%llu (hits=%llu misses=%llu evictions=%llu) ring_stalls=%llu (%s)\n",
        ull(r["reg_cache_size"]), ull(r["reg_hits"]), ull(r["reg_misses"]),
        ull(r["reg_evictions"]), ull(r["ring_stalls"]), age(r["ring_stall_ns"]).c_str());
    for (const Value& l : r["lanes"].arr) {
      put(o, "    ring vci=%lld: credits=%llu/%llu occupancy_hwm=%llu%s\n", ll(l["vci"]),
          ull(l["credits_free"]), ull(l["ring_depth"]), ull(l["occupancy_hwm"]),
          ull(l["credits_free"]) == 0 ? " [EXHAUSTED]" : "");
    }
  }
  return o;
}

bool render_hang_text(const Value& r, std::string* out) {
  out->clear();
  const Value& stuck = r["stuck"];
  if (stuck.kind != Value::Kind::Arr || r["nranks"].kind != Value::Kind::Num) return false;
  std::string& o = *out;
  put(o, "=== lwmpi hang diagnosis: %zu of %lld rank(s) stuck ===\n", stuck.arr.size(),
      ll(r["nranks"]));
  for (const Value& s : stuck.arr) {
    put(o, "rank %lld stuck in %s (blocked %s, no progress for %s)\n", ll(s["rank"]),
        text(s["call"]), age(s["blocked_ns"]).c_str(), age(s["stalled_ns"]).c_str());
    o += render_snapshot_text(s["snapshot"]);
    if (const std::vector<Value>& moves = s["last_moves"].arr; !moves.empty()) {
      o += "  last moves (oldest first):\n";
      for (const Value& m : moves) {
        put(o, "    #%llu %-12s peer=%lld tag=%lld vci=%lld bytes=%llu", ull(m["op"]),
            text(m["kind"]), ll(m["peer"]), ll(m["tag"]), ll(m["vci"]), ull(m["bytes"]));
        if (const long long link = ll(m["link"]); link != 0) put(o, " link=-%lld", link);
        o += '\n';
      }
    }
  }
  return true;
}

// --- profile ----------------------------------------------------------------

// Each cell is two columns wide; the intensity scale is linear in bytes
// relative to the hottest cell.
std::string render_heatmap(const Profile& p, bool color) {
  std::string o;
  const std::size_t n = static_cast<std::size_t>(p.nranks);
  if (n == 0) return o;
  std::uint64_t max_b = 0;
  for (std::uint64_t b : p.matrix_total) max_b = std::max(max_b, b);
  put(o, "comm matrix (rows = src, cols = dst, hottest pair = %s):\n",
      fmt_bytes(static_cast<double>(max_b)).c_str());
  static const char* kRamp = " .:-=+*#%@";  // 10 density steps for non-tty
  o += "     ";
  for (std::size_t d = 0; d < n; ++d) put(o, "%2zu", d % 100);
  o += '\n';
  for (std::size_t s = 0; s < n; ++s) {
    put(o, "%4zu ", s);
    std::uint64_t row_tx = 0;
    for (std::size_t d = 0; d < n; ++d) {
      const std::uint64_t b = p.matrix_total[s * n + d];
      row_tx += b;
      const double frac = max_b == 0 ? 0.0 : static_cast<double>(b) / static_cast<double>(max_b);
      if (color) {
        // 256-color grayscale ramp: 232 (near-black) .. 255 (white).
        const int shade = b == 0 ? 232 : 236 + static_cast<int>(frac * 19.0);
        put(o, "\x1b[48;5;%dm  \x1b[0m", std::min(shade, 255));
      } else {
        const int step = b == 0 ? 0 : 1 + static_cast<int>(frac * 8.0);
        o.append(2, kRamp[std::min(step, 9)]);
      }
    }
    put(o, "  tx=%s\n", fmt_bytes(static_cast<double>(row_tx)).c_str());
  }
  // Per-class totals, so the eager / rendezvous / zcopy split is visible
  // without reading raw JSON.
  o += "class split:";
  for (const auto& [cls, cells] : p.matrix_by_class) {
    std::uint64_t t = 0;
    for (std::uint64_t b : cells) t += b;
    put(o, "  %s=%s", cls.c_str(), fmt_bytes(static_cast<double>(t)).c_str());
  }
  o += '\n';
  return o;
}

std::string render_text(const Profile& p, bool color) {
  std::string o;
  put(o, "lwmpi profile: %d rank(s), netmod %s, %zu phase(s)\n", p.nranks, p.netmod.c_str(),
      p.phases.size());
  if (p.pop_warnings != 0 || p.phase_overflows != 0) {
    put(o, "  warnings: %llu unbalanced phase pop(s), %llu phase-table overflow(s)\n",
        static_cast<unsigned long long>(p.pop_warnings),
        static_cast<unsigned long long>(p.phase_overflows));
  }
  // Load imbalance: max over mean MPI time across ranks, per phase.
  for (const std::string& ph : p.phases) {
    const auto it = p.phase_time.find(ph);
    if (it == p.phase_time.end()) continue;
    std::uint64_t max_ns = 0;
    std::uint64_t sum_ns = 0;
    std::size_t max_rank = 0;
    for (std::size_t r = 0; r < it->second.size(); ++r) {
      sum_ns += it->second[r];
      if (it->second[r] > max_ns) {
        max_ns = it->second[r];
        max_rank = r;
      }
    }
    const double mean = p.nranks > 0 ? static_cast<double>(sum_ns) / p.nranks : 0.0;
    put(o, "phase \"%s\": mpi time max=%.1fus (rank %zu) mean=%.1fus imbalance=%.2fx\n",
        ph.c_str(), static_cast<double>(max_ns) / 1e3, max_rank, mean / 1e3,
        mean > 0.0 ? static_cast<double>(max_ns) / mean : 1.0);
    if (const auto sites = p.phase_sites.find(ph); sites != p.phase_sites.end()) {
      top_sites(o, sites->second, 5);
    }
  }
  o += "top callsites (by MPI time, all ranks):\n";
  top_sites(o, p.sites, 8);
  o += render_heatmap(p, color);

  // The heaviest (src, dst) pairs, then packet against zero-copy bytes.
  const std::size_t n = static_cast<std::size_t>(p.nranks);
  std::vector<std::size_t> hot;
  for (std::size_t i = 0; i < p.matrix_total.size(); ++i) {
    if (p.matrix_total[i] != 0) hot.push_back(i);
  }
  std::stable_sort(hot.begin(), hot.end(), [&p](std::size_t a, std::size_t b) {
    return p.matrix_total[a] > p.matrix_total[b];
  });
  if (hot.size() > 3) hot.resize(3);
  if (!hot.empty()) o += "comm matrix hot spots:\n";
  for (std::size_t i : hot) {
    put(o, "  %zu -> %zu  %s\n", i / n, i % n,
        fmt_bytes(static_cast<double>(p.matrix_total[i])).c_str());
  }
  std::uint64_t packet = 0;
  std::uint64_t zcopy = 0;
  for (const auto& [cls, cells] : p.matrix_by_class) {
    for (std::uint64_t b : cells) (cls == "zcopy" ? zcopy : packet) += b;
  }
  put(o, "matrix totals: packet=%s zcopy=%s\n", fmt_bytes(static_cast<double>(packet)).c_str(),
      fmt_bytes(static_cast<double>(zcopy)).c_str());
  return o;
}

}  // namespace lwmpi::obs
