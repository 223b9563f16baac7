#include "runtime/world.hpp"

#include <exception>
#include <fstream>
#include <sstream>
#include <thread>

#include "core/engine.hpp"
#include "obs/causal.hpp"
#include "obs/cvar.hpp"
#include "obs/histogram.hpp"
#include "obs/json.hpp"
#include "obs/pvar.hpp"
#include "obs/recorder.hpp"
#include "obs/table.hpp"
#include "obs/trace.hpp"

namespace lwmpi {

namespace {

// Fold the startup-scope cvars (obs/cvar.hpp) into the options a World is
// constructed with. Only *overridden* cvars (LWMPI_CVAR_* in the environment,
// or an explicit LWMPI_T_cvar_write before construction) take effect, and
// only over fields the caller left at their defaults -- so code that pins
// `opts.netmod = "rdma"` or `build.trace = true` always wins, while a test
// run under LWMPI_CVAR_TRACE_ENABLE=1 gets tracing everywhere without a
// recompile.
WorldOptions apply_cvars(WorldOptions opts) {
  if (obs::cvar_overridden(obs::Cv::TraceEnable)) {
    opts.build.trace = obs::cvar(obs::Cv::TraceEnable) != 0;
  }
  if (obs::cvar_overridden(obs::Cv::LatSampleShift)) {
    const auto shift = obs::cvar(obs::Cv::LatSampleShift);
    if (shift >= 0 && shift <= 63) opts.build.lat_sample_shift = static_cast<int>(shift);
  }
  if (obs::cvar_overridden(obs::Cv::NetmodDefault) && opts.netmod == "mailbox") {
    opts.netmod = obs::cvar_str(obs::Cv::NetmodDefault);
  }
  if (obs::cvar_overridden(obs::Cv::Prof)) {
    opts.prof = obs::cvar(obs::Cv::Prof) != 0;
  }
  if (obs::cvar_overridden(obs::Cv::ProfDefaultPhase) && opts.prof_default_phase == "main") {
    opts.prof_default_phase = obs::cvar_str(obs::Cv::ProfDefaultPhase);
  }
  if (obs::cvar_overridden(obs::Cv::ProfPath) && opts.prof_path.empty()) {
    opts.prof_path = obs::cvar_str(obs::Cv::ProfPath);
  }
  if (obs::cvar_overridden(obs::Cv::Record)) {
    opts.record = obs::cvar(obs::Cv::Record) != 0;
  }
  if (obs::cvar_overridden(obs::Cv::RecordPath) && opts.record_path.empty()) {
    opts.record_path = obs::cvar_str(obs::Cv::RecordPath);
  }
  if (obs::cvar_overridden(obs::Cv::RecordRingDepth)) {
    const auto d = obs::cvar(obs::Cv::RecordRingDepth);
    if (d > 0) opts.record_ring_depth = static_cast<std::size_t>(d);
  }
  if (obs::cvar_overridden(obs::Cv::RecordSampleShift)) {
    const auto s = obs::cvar(obs::Cv::RecordSampleShift);
    if (s >= 0 && s <= 32) opts.record_sample_shift = static_cast<int>(s);
  }
  return opts;
}

}  // namespace

World::World(int nranks, WorldOptions opts)
    : nranks_(nranks),
      opts_(apply_cvars(std::move(opts))),
      fabric_(nranks, opts_.ranks_per_node, opts_.profile, opts_.build.vcis(),
              opts_.netmod),
      next_ctx_(kFirstDynamicCtx) {
  if (opts_.prof) {
    profiler_ = std::make_unique<obs::Profiler>(nranks_, opts_.build.vcis(),
                                                opts_.prof_default_phase);
    fabric_.set_profiler(profiler_.get());
  }
  if (opts_.record) {
    recorder_ = std::make_unique<obs::Recorder>(nranks_, opts_.build.vcis(),
                                                opts_.record_ring_depth,
                                                opts_.record_sample_shift);
    recorder_->set_eager_threshold(opts_.eager_threshold);
  }
  engines_.reserve(static_cast<std::size_t>(nranks_));
  for (int r = 0; r < nranks_; ++r) {
    engines_.push_back(std::make_unique<Engine>(*this, static_cast<Rank>(r)));
  }
}

World::~World() {
  // Teardown causal export: all rank threads have joined by now, so the
  // per-rank trace rings are quiescent and the merge is exact.
  if (opts_.build.trace && !opts_.causal_trace_path.empty()) {
    std::ofstream f(opts_.causal_trace_path, std::ios::trunc);
    if (f) {
      const std::vector<obs::trace::Event> events = obs::trace::collect_all();
      obs::causal::export_jsonl(f, events);
    }
  }
  // Teardown profile artifact: same quiescence argument as the causal export.
  if (profiler_ != nullptr && !opts_.prof_path.empty()) {
    profiler_->write_artifact(opts_.prof_path, fabric_.backend_name());
  }
  // Teardown trace-bundle flush: quiescent rings, exact totals. Overwrites a
  // mid-run watchdog flush with the complete picture.
  if (recorder_ != nullptr && !opts_.record_path.empty()) flush_recording();
}

bool World::flush_recording(const std::string& prefix) {
  if (recorder_ == nullptr) return false;
  const std::string& out = prefix.empty() ? opts_.record_path : prefix;
  if (out.empty()) return false;
  std::vector<obs::RecTotals> totals;
  totals.reserve(static_cast<std::size_t>(nranks_));
  for (int r = 0; r < nranks_; ++r) {
    totals.push_back(obs::read_rec_totals(*engines_[static_cast<std::size_t>(r)]));
  }
  std::ostringstream prov;
  prov << "\"netmod\":\"" << fabric_.backend_name() << "\",\"device\":\""
       << to_string(opts_.device) << "\",\"eager_threshold\":" << opts_.eager_threshold
       << ",\"ring_depth\":" << opts_.record_ring_depth
       << ",\"sample_shift\":" << opts_.record_sample_shift
       << ",\"counters\":" << (opts_.build.counters ? "true" : "false")
       << ",\"profile\":" << obs::json::quote(opts_.profile.name);
  return recorder_->flush(out, totals, prov.str());
}

void World::phase_push(std::string_view name) {
  if (profiler_ == nullptr) return;
  const int id = profiler_->intern_phase(name);
  for (int r = 0; r < nranks_; ++r) profiler_->rank(r).phase_push(id);
}

void World::phase_pop() {
  if (profiler_ == nullptr) return;
  for (int r = 0; r < nranks_; ++r) profiler_->rank(r).phase_pop();
}

std::string World::profile_report(bool as_json) {
  if (profiler_ == nullptr) return {};
  return profiler_->report(fabric_.backend_name(), as_json);
}

Engine& World::engine(Rank r) { return *engines_.at(static_cast<std::size_t>(r)); }

void World::run(const std::function<void(Engine&)>& fn) {
  std::vector<std::thread> threads;
  threads.reserve(static_cast<std::size_t>(nranks_));
  std::vector<std::exception_ptr> errors(static_cast<std::size_t>(nranks_));
  for (int r = 0; r < nranks_; ++r) {
    threads.emplace_back([this, &fn, &errors, r] {
      try {
        fn(*engines_[static_cast<std::size_t>(r)]);
        // Implicit finalize: flush the device send queue so eager messages
        // buffered by the orig device are not stranded when a rank returns
        // while its peers are still receiving.
        engines_[static_cast<std::size_t>(r)]->progress();
      } catch (...) {
        errors[static_cast<std::size_t>(r)] = std::current_exception();
      }
    });
  }
  for (auto& t : threads) t.join();
  for (auto& e : errors) {
    if (e) std::rethrow_exception(e);
  }
}

std::string World::stats_report(bool as_json) {
  const int npvars = obs::LWMPI_T_pvar_num();
  const int nvcis = opts_.build.vcis();
  std::ostringstream out;
  if (as_json) {
    out << "{\"nranks\":" << nranks_ << ",\"num_vcis\":" << nvcis << ",\"device\":\""
        << to_string(opts_.device) << "\",\"netmod\":\"" << fabric_.backend_name()
        << "\",\"ranks\":[";
  } else {
    out << "=== lwmpi stats: " << nranks_ << " rank(s) x " << nvcis << " vci(s), "
        << to_string(opts_.device) << ", netmod " << fabric_.backend_name() << " ===\n";
  }
  for (int r = 0; r < nranks_; ++r) {
    Engine& e = *engines_[static_cast<std::size_t>(r)];
    obs::PvarSession s;
    obs::LWMPI_T_pvar_session_create(e, &s);
    if (as_json) {
      out << (r == 0 ? "" : ",") << "{\"rank\":" << r << ",\"pvars\":{";
    } else {
      out << "rank " << r << ":\n";
    }
    bool first = true;
    for (int i = 0; i < npvars; ++i) {
      obs::PvarInfo info;
      obs::LWMPI_T_pvar_get_info(i, &info);
      std::uint64_t total = 0;
      obs::LWMPI_T_pvar_read(s, i, &total);
      if (as_json) {
        out << (first ? "" : ",") << '"' << info.name << "\":";
        if (info.bind == obs::PvarBind::Vci && nvcis > 1) {
          out << "{\"total\":" << total << ",\"per_vci\":[";
          for (int v = 0; v < nvcis; ++v) {
            std::uint64_t pv = 0;
            obs::LWMPI_T_pvar_read_vci(s, i, v, &pv);
            out << (v == 0 ? "" : ",") << pv;
          }
          out << "]}";
        } else {
          out << total;
        }
        first = false;
      } else if (total != 0) {
        out << "  " << info.name;
        for (std::size_t pad = info.name.size(); pad < 26; ++pad) out << ' ';
        out << ' ' << to_string(info.klass) << " = " << total;
        if (info.bind == obs::PvarBind::Vci && nvcis > 1) {
          out << "  [";
          for (int v = 0; v < nvcis; ++v) {
            std::uint64_t pv = 0;
            obs::LWMPI_T_pvar_read_vci(s, i, v, &pv);
            out << (v == 0 ? "" : " ") << pv;
          }
          out << ']';
        }
        out << '\n';
      }
    }
    // Per-path message-lifetime latency distribution (obs/histogram.hpp),
    // merged over the rank's channels. The JSON shape is what
    // bench::JsonResult and the paper-table tooling consume.
    if (as_json) out << "},\"latency\":{";
    for (std::size_t p = 0; p < obs::kNumLatPaths; ++p) {
      const auto path = static_cast<obs::LatPath>(p);
      obs::LatSnapshot snap;
      for (int v = 0; v < nvcis; ++v) snap.merge(e.vci_latency(v).of(path));
      if (as_json) {
        out << (p == 0 ? "" : ",") << '"' << obs::to_string(path)
            << "\":{\"count\":" << snap.count << ",\"p50_ns\":" << snap.percentile(0.50)
            << ",\"p99_ns\":" << snap.percentile(0.99) << ",\"max_ns\":" << snap.max_ns
            << '}';
      } else if (snap.count != 0) {
        out << "  lat[" << obs::to_string(path) << ']';
        for (std::size_t pad = obs::to_string(path).size(); pad < 20; ++pad) out << ' ';
        out << " count=" << snap.count << " p50_ns=" << snap.percentile(0.50)
            << " p99_ns=" << snap.percentile(0.99) << " max_ns=" << snap.max_ns << '\n';
      }
    }
    if (as_json) out << "}}";
    obs::LWMPI_T_pvar_session_free(&s);
  }
  // Attribution slice for this world's own (device, build): the metered
  // Table-1 category breakdown of one isend and one put, walked through a
  // throwaway two-rank world (read-only with respect to this one).
  const std::string attrib = obs::attribution_report(opts_.device, opts_.build, as_json);
  if (as_json) {
    // attrib == {"attribution":[...]}; splice its body into this object.
    out << "]," << attrib.substr(1, attrib.size() - 2) << '}';
  } else {
    out << attrib;
  }
  return out.str();
}

std::shared_ptr<rma::WindowGlobal> World::register_window(
    std::shared_ptr<rma::WindowGlobal> w) {
  std::lock_guard<std::mutex> lk(win_mu_);
  win_registry_[w->id] = w;
  return w;
}

std::shared_ptr<rma::WindowGlobal> World::find_window(std::uint32_t id) {
  std::lock_guard<std::mutex> lk(win_mu_);
  auto it = win_registry_.find(id);
  return it == win_registry_.end() ? nullptr : it->second;
}

void World::unregister_window(std::uint32_t id) {
  std::lock_guard<std::mutex> lk(win_mu_);
  win_registry_.erase(id);
}

}  // namespace lwmpi
