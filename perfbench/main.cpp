// lwbench: the lwmpi benchmark binary.
//
//   lwbench --workload <send_path|pingpong|halo|replay> --seed N --seconds S
//           --trace 0|1 [--force-wrong] [--trace-dir DIR] [--artifact FILE]
//
// Every run reports the full end-to-end metric set (trace 0) or the full
// per-layer metric set (trace 1), so each run executes all four workload
// groups. The named workload is the focus: it gets 40% of the run time and
// the other groups 20% each, as guard readings. Groups always run in the
// same order: a group measured after the four-thread groups reads slower and
// noisier than in a fresh process, so a fixed order keeps each metric's
// conditions the same in every workload. The last stdout line is one JSON
// object {"correct","attempted","failed","metrics"}; any failed check makes
// the run exit nonzero.
#include <pthread.h>
#include <sched.h>

#include <cmath>
#include <cstdarg>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <map>

#include "common.hpp"
#include "core/engine.hpp"
#include "obs/pvar.hpp"
#include "runtime/world.hpp"

namespace pb {

double span_median_ns(const Tracer& t, std::string_view name) {
  std::vector<double> v;
  for (const Span& sp : t.spans()) {
    if (name == sp.name && sp.ops > 0) v.push_back(static_cast<double>(sp.t1 - sp.t0) / sp.ops);
  }
  return median(v);
}

std::vector<std::uint64_t> layer_self_ns(const Tracer& t) {
  std::vector<std::uint64_t> out(static_cast<std::size_t>(Layer::kCount), 0);
  for (const Span& sp : t.spans()) {
    const std::uint64_t d = sp.t1 - sp.t0;
    out[static_cast<std::size_t>(sp.layer)] += d - std::min(sp.child_ns, d);
  }
  return out;
}

double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}

namespace {
// The process's CPUs, read once from the main thread before any pinning.
const std::vector<int>& process_cpus() {
  static const std::vector<int> cpus = [] {
    std::vector<int> v;
    cpu_set_t allowed;
    CPU_ZERO(&allowed);
    if (sched_getaffinity(0, sizeof(allowed), &allowed) == 0) {
      for (int c = 0; c < CPU_SETSIZE; ++c) {
        if (CPU_ISSET(c, &allowed)) v.push_back(c);
      }
    }
    return v;
  }();
  return cpus;
}
}  // namespace

void pin_thread(int slot) {
  const std::vector<int>& cpus = process_cpus();
  if (cpus.empty()) return;
  cpu_set_t one;
  CPU_ZERO(&one);
  CPU_SET(cpus[static_cast<std::size_t>(slot) % cpus.size()], &one);
  pthread_setaffinity_np(pthread_self(), sizeof(one), &one);
}

std::string fmt(const char* f, ...) {
  char buf[512];
  va_list ap;
  va_start(ap, f);
  std::vsnprintf(buf, sizeof(buf), f, ap);
  va_end(ap);
  return buf;
}

void Report::add(const std::string& name, double value, const std::string& unit,
                 const std::string& note) {
  m_[name] = Metric{std::isfinite(value) ? value : 0.0, unit, note};
}

double Report::get(const std::string& name) const {
  auto it = m_.find(name);
  return it == m_.end() ? 0.0 : it->second.value;
}

std::uint64_t pvar_sum(lwmpi::World& w, const char* name) {
  const int idx = lwmpi::obs::LWMPI_T_pvar_index(name);
  std::uint64_t sum = 0;
  for (int r = 0; r < w.nranks(); ++r) {
    lwmpi::obs::PvarSession s;
    lwmpi::obs::LWMPI_T_pvar_session_create(w.engine(r), &s);
    std::uint64_t v = 0;
    lwmpi::obs::LWMPI_T_pvar_read(s, idx, &v);
    lwmpi::obs::LWMPI_T_pvar_session_free(&s);
    sum += v;
  }
  return sum;
}

namespace {

const Group* const kGroups[] = {&kSendPath, &kPingpong, &kHalo, &kReplay};
constexpr double kFocusShare = 0.4;  // the rest split evenly over the other groups
constexpr int kSetupReps = 41;

// The end-to-end metric, and workload, each per-layer metric should move.
std::string moves(const std::string& m) {
  static const std::map<std::string, std::string> kMoves = {
      {"core.isend_ns", "isend_rate_mps on send_path"},
      {"core.waitall_ns_per_req", "isend_rate_mps on send_path"},
      {"core.isend_best_ns", "isend_best_rate_mps on send_path"},
      {"core.all_opts_ns", "all_opts_rate_mps on send_path"},
      {"rma.put_ns", "put_rate_mps on send_path"},
      {"rma.flush_ns_per_put", "put_rate_mps on send_path"},
      {"cost.charge_ns", "isend_rate_mps on send_path"},
      {"net.blackhole_inject_ns", "isend_rate_mps and all_opts_rate_mps on send_path"},
      {"obs.counters_isend_ns", "isend_rate_mps on send_path"},
      {"obs.prof_isend_ns", "nothing at default settings (opt-in tier)"},
      {"obs.record_isend_ns", "nothing at default settings (opt-in tier)"},
      {"obs.trace_isend_ns", "nothing at default settings (opt-in tier)"},
      {"orig.isend_ns", "nothing: reference device, a ch4 change must not move it"},
      {"orig.put_ns", "nothing: reference device, a ch4 change must not move it"},
      {"cost.isend_modeled_instr", "Table 1 twin of core.isend_ns on send_path"},
      {"cost.put_modeled_instr", "Table 1 twin of rma.put_ns on send_path"},
      {"core.send_ns", "lat_small_p50_ns on pingpong"},
      {"core.recv_ns", "lat_small_p50_ns on pingpong"},
      {"core.progress_idle_ns", "lat_small_p50_ns on pingpong"},
      {"core.progress_swept_ratio", "lat_small_p99_ns on pingpong"},
      {"net.inject_poll_ns", "lat_small_p50_ns on pingpong"},
      {"net.rdma_inject_poll_ns", "rdma_lat_small_p50_ns on pingpong"},
      {"datatype.pack_contig_ns_per_kib", "lat_large_p50_us on pingpong"},
      {"net.packets_per_large_msg", "lat_large_p50_us on pingpong"},
      {"net.rdma_reg_cache_hit_ratio", "rdma_lat_large_p50_us on pingpong"},
      {"datatype.pack_vector_ns", "stencil_iter_rate_kps on halo"},
      {"coll.allreduce_8b_us", "cg_iter_rate_kps on halo"},
      {"coll.barrier_us", "cg_iter_rate_kps on halo"},
      {"match.unexpected_ratio", "stencil_iter_rate_kps and cg_iter_rate_kps on halo"},
      {"core.gate_contended", "stencil_iter_rate_kps and cg_iter_rate_kps on halo"},
      {"apps.wait_late_sender", "stencil_iter_rate_kps and cg_iter_rate_kps on halo"},
      {"apps.wait_progress_starved", "stencil_iter_rate_kps and cg_iter_rate_kps on halo"},
      {"runtime.world_ctor_us", "replay_*_kops and setup_s on replay"},
      {"runtime.run_launch_us", "replay_*_kops and setup_s on replay"},
      {"apps.load_trace_ms", "setup_s on replay"},
      {"match.post_arrive_ns", "replay_mailbox_kops on replay"},
      {"match.arrive_depth64_ns", "replay_mailbox_kops on replay"},
      {"match.unexpected_hwm", "replay_mailbox_kops on replay"},
      {"net.rdma_ring_stalls", "replay_rdma_kops on replay"},
      {"shape.isend_ch4_over_orig", "isend_rate_mps on send_path (ROADMAP item 1 gate)"},
      {"shape.put_ch4_over_orig", "put_rate_mps on send_path (ROADMAP item 1 gate)"},
      {"shape.all_opts_over_isend_best", "all_opts_rate_mps on send_path (ROADMAP item 1 gate)"},
      {"shape.replay_mailbox_over_rdma_stencil4", "replay_mailbox_kops on replay (backend gap)"},
      {"shape.replay_mailbox_over_rdma_storm4", "replay_mailbox_kops on replay (backend gap)"},
      {"shape.rdma_over_mailbox_lat_large", "rdma_lat_large_p50_us on pingpong"},
  };
  if (auto it = kMoves.find(m); it != kMoves.end()) return it->second;
  if (m.starts_with("trace.")) return "nothing: the spans' own cost on the group's headline metric";
  if (m.ends_with(".self_ms")) return "the end-to-end metrics its layer's metrics above move";
  return "";
}

std::string json_str(const std::string& s) {
  std::string o = "\"";
  for (char ch : s) {
    if (ch == '"' || ch == '\\') o += '\\';
    if (static_cast<unsigned char>(ch) < 0x20) {
      o += fmt("\\u%04x", static_cast<unsigned>(ch));
      continue;
    }
    o += ch;
  }
  return o + "\"";
}

std::string json_metrics(const Report& r, bool with_notes, bool with_moves = false) {
  std::string o = "{";
  bool first = true;
  for (const auto& [name, m] : r.all()) {
    o += (first ? "" : ", ") + json_str(name) + ": {\"value\": " + fmt("%.17g", m.value) +
         ", \"unit\": " + json_str(m.unit);
    if (with_notes) o += ", \"note\": " + json_str(m.note);
    if (with_moves) o += ", \"moves\": " + json_str(moves(name));
    o += "}";
    first = false;
  }
  return o + "}";
}

void print_report(const char* title, const Report& r, bool with_moves) {
  std::printf("--- %s ---\n", title);
  for (const auto& [name, m] : r.all()) {
    std::printf("  %-40s %16.6g %-8s %s\n", name.c_str(), m.value, m.unit.c_str(),
                m.note.c_str());
    if (with_moves) std::printf("  %-40s moves: %s\n", "", moves(name).c_str());
  }
}

int usage(const char* msg) {
  std::fprintf(stderr,
               "lwbench: %s\nusage: lwbench --workload <send_path|pingpong|halo|replay> "
               "--seed N --seconds S --trace 0|1 [--force-wrong] [--trace-dir DIR] "
               "[--artifact FILE]\n",
               msg);
  return 2;
}

}  // namespace
}  // namespace pb

int main(int argc, char** argv) {
  using namespace pb;
  Ctx c;
  std::string artifact;
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    auto val = [&]() -> const char* { return i + 1 < argc ? argv[++i] : nullptr; };
    const char* v = nullptr;
    if (a == "--force-wrong") {
      c.force_wrong = true;
    } else if ((v = val()) == nullptr) {
      return usage(("missing value for " + a).c_str());
    } else if (a == "--workload") {
      c.workload = v;
      have_workload = true;
    } else if (a == "--seed") {
      c.seed = std::strtoull(v, nullptr, 10);
    } else if (a == "--seconds") {
      c.seconds = std::atof(v);
    } else if (a == "--trace") {
      c.trace = std::strcmp(v, "0") != 0;
    } else if (a == "--trace-dir") {
      c.trace_dir = v;
    } else if (a == "--artifact") {
      artifact = v;
    } else {
      return usage(("unknown argument " + a).c_str());
    }
  }
  const Group* focus = nullptr;
  for (const Group* g : kGroups) {
    if (have_workload && c.workload == g->name) focus = g;
  }
  if (focus == nullptr) return usage("unknown or missing --workload");
  if (!(c.seconds > 0.0) || c.seconds > 600.0) return usage("--seconds must be in (0, 600]");
  if (!std::ifstream(c.trace_dir + "/stencil4.json") ||
      !std::ifstream(c.trace_dir + "/storm4.json")) {
    return usage(("replay bundles not found under " + c.trace_dir).c_str());
  }
  const std::size_t ncpus = process_cpus().size();

  constexpr std::size_t kNumGroups = std::size(kGroups);
  const double other_share = (1.0 - kFocusShare) / static_cast<double>(kNumGroups - 1);
  std::printf("lwbench workload=%s seed=%llu seconds=%g trace=%d cpus=%zu\n",
              c.workload.c_str(), static_cast<unsigned long long>(c.seed), c.seconds,
              c.trace ? 1 : 0, ncpus);

  // Set-up time: construct every group's worlds and load its inputs, several
  // times. Starting rank threads is left out: its cost is runtime.run_launch_us
  // and part of every replay.
  std::vector<double> setups;
  for (int rep = 0; rep < kSetupReps; ++rep) {
    double s = 0.0;
    for (const Group* g : kGroups) s += g->setup(c);
    setups.push_back(s);
  }
  c.e2e.add("setup_s", median(setups), "s",
            fmt("median of %d constructions of all four groups' worlds and inputs", kSetupReps));

  Tracer all(true);  // every traced span of the run, for the per-layer self times
  for (const Group* g : kGroups) {
    const double budget = c.seconds * (g == focus ? kFocusShare : other_share);
    std::fprintf(stderr, "lwbench: %s\n", g->name);  // progress, for a run that stalls
    c.reseed(g->name);
    if (!c.trace) {
      g->e2e(c, c.e2e, budget, nullptr);
      continue;
    }
    // Traced run: the same measurement untraced then traced, then the
    // per-layer micro loops. The difference is the tracing overhead.
    g->e2e(c, c.e2e, budget / 2, nullptr);
    c.reseed(g->name);
    Tracer tr(true);
    Report traced;
    g->e2e(c, traced, budget / 2, &tr);
    c.reseed(g->name);
    const double u = c.e2e.get(g->headline), t = traced.get(g->headline);
    const double overhead = (u > 0 && t > 0) ? (g->headline_higher ? u / t - 1 : t / u - 1) : 0;
    c.layers.add(fmt("trace.%s_overhead_pct", g->name), 100.0 * overhead, "pct",
                 fmt("%s traced %.6g vs untraced %.6g", g->headline, t, u));
    g->layers(c, tr);
    all.absorb(tr);
  }
  if (c.trace) {
    const auto self = layer_self_ns(all);
    for (std::size_t l = 0; l < self.size(); ++l) {
      c.layers.add(std::string(kLayerNames[l]) + ".self_ms", static_cast<double>(self[l]) / 1e6,
                   "ms", "span time minus direct child spans, summed over the traced run");
    }
  }

  const double error_rate =
      c.attempted > 0 ? static_cast<double>(c.failed) / static_cast<double>(c.attempted) : 1.0;
  print_report("end-to-end (untraced)", c.e2e, false);
  std::printf("  %-40s %16.6g %-8s failed %llu of %llu operations attempted\n", "error_rate",
              error_rate, "ratio", static_cast<unsigned long long>(c.failed),
              static_cast<unsigned long long>(c.attempted));
  if (c.trace) print_report("per-layer (traced run)", c.layers, true);
  if (!c.table1.empty()) {
    std::printf("--- Table 1, executed twin: modeled instructions vs measured ns ---\n");
    for (const std::string& row : c.table1) std::printf("  %s\n", row.c_str());
  }
  std::printf("inputs_digest=%016llx\n", static_cast<unsigned long long>(c.digest));
  for (const std::string& f : c.failures) std::printf("FAILED: %s\n", f.c_str());

  const bool correct = c.failed == 0 && c.attempted > 0;
  if (!artifact.empty()) {
    std::string rows = "[";
    for (std::size_t i = 0; i < c.table1.size(); ++i) {
      rows += (i ? ", " : "") + json_str(c.table1[i]);
    }
    std::ofstream(artifact) << "{\"workload\": " << json_str(c.workload)
                            << ", \"seed\": " << c.seed << ", \"trace\": " << c.trace
                            << ", \"correct\": " << (correct ? "true" : "false")
                            << ", \"error_rate\": " << fmt("%.17g", error_rate)
                            << ", \"end_to_end\": " << json_metrics(c.e2e, true)
                            << ", \"per_layer\": " << json_metrics(c.layers, true, true)
                            << ", \"table1\": " << rows << "]}\n";
  }
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, \"metrics\": %s}\n",
              correct ? "true" : "false", static_cast<unsigned long long>(c.attempted),
              static_cast<unsigned long long>(c.failed),
              json_metrics(c.trace ? c.layers : c.e2e, false).c_str());
  return correct ? 0 : 1;
}
