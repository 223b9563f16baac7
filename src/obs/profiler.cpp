// Aggregate profiler implementation (obs/profiler.hpp): accumulator storage,
// phase interning, and the versioned profile artifact (read back by
// obs/profile_load.hpp).
#include "obs/profiler.hpp"

#include <fstream>
#include <sstream>

#include "obs/json.hpp"

namespace lwmpi::obs {

std::string_view to_string(Callsite s) noexcept {
  switch (s) {
    case Callsite::Isend: return "isend";
    case Callsite::Irecv: return "irecv";
    case Callsite::Send: return "send";
    case Callsite::Recv: return "recv";
    case Callsite::Sendrecv: return "sendrecv";
    case Callsite::Wait: return "wait";
    case Callsite::Test: return "test";
    case Callsite::Waitall: return "waitall";
    case Callsite::Waitany: return "waitany";
    case Callsite::Testany: return "testany";
    case Callsite::Testall: return "testall";
    case Callsite::Iprobe: return "iprobe";
    case Callsite::Probe: return "probe";
    case Callsite::Cancel: return "cancel";
    case Callsite::IsendGlobal: return "isend_global";
    case Callsite::IsendNpn: return "isend_npn";
    case Callsite::IsendNoreq: return "isend_noreq";
    case Callsite::CommWaitall: return "comm_waitall";
    case Callsite::IsendNomatch: return "isend_nomatch";
    case Callsite::IrecvNomatch: return "irecv_nomatch";
    case Callsite::IsendAllOpts: return "isend_all_opts";
    case Callsite::SendInit: return "send_init";
    case Callsite::RecvInit: return "recv_init";
    case Callsite::Start: return "start";
    case Callsite::Startall: return "startall";
    case Callsite::Barrier: return "barrier";
    case Callsite::Bcast: return "bcast";
    case Callsite::Reduce: return "reduce";
    case Callsite::Allreduce: return "allreduce";
    case Callsite::Gather: return "gather";
    case Callsite::Allgather: return "allgather";
    case Callsite::Scatter: return "scatter";
    case Callsite::Alltoall: return "alltoall";
    case Callsite::Scan: return "scan";
    case Callsite::Gatherv: return "gatherv";
    case Callsite::Allgatherv: return "allgatherv";
    case Callsite::Scatterv: return "scatterv";
    case Callsite::ReduceScatterBlock: return "reduce_scatter_block";
    case Callsite::Put: return "put";
    case Callsite::Get: return "get";
    case Callsite::Accumulate: return "accumulate";
    case Callsite::GetAccumulate: return "get_accumulate";
    case Callsite::PutVa: return "put_va";
    case Callsite::WinFence: return "win_fence";
    case Callsite::WinLock: return "win_lock";
    case Callsite::WinUnlock: return "win_unlock";
    case Callsite::WinFlush: return "win_flush";
    case Callsite::WinPost: return "win_post";
    case Callsite::WinStart: return "win_start";
    case Callsite::WinComplete: return "win_complete";
    case Callsite::WinWait: return "win_wait";
    case Callsite::kCount: break;
  }
  return "?";
}

std::string_view to_string(MsgClass c) noexcept {
  switch (c) {
    case MsgClass::Eager: return "eager";
    case MsgClass::Rdv: return "rdv";
    case MsgClass::Ctrl: return "ctrl";
    case MsgClass::Zcopy: return "zcopy";
    case MsgClass::kCount: break;
  }
  return "?";
}

// --- CommMatrix -------------------------------------------------------------

namespace {
// Monotonic instance ids so a thread's RowCache from a destroyed matrix can
// never validate against a new one (ids start at 1; caches start at 0).
std::atomic<std::uint64_t> g_matrix_id{0};
}  // namespace

CommMatrix::CommMatrix(int nranks)
    : n_(nranks < 0 ? 0 : nranks), id_(g_matrix_id.fetch_add(1) + 1) {}

CommMatrix::Cell* CommMatrix::lookup_row(RowCache& rc, Rank src) noexcept {
  const std::thread::id tid = std::this_thread::get_id();
  std::lock_guard<std::mutex> lk(mu_);
  for (RowEntry& e : rows_) {
    if (e.tid == tid && e.src == src) {
      rc = RowCache{id_, src, e.row.get()};
      return e.row.get();
    }
  }
  RowEntry e;
  e.tid = tid;
  e.src = src;
  e.row = std::make_unique<Cell[]>(static_cast<std::size_t>(n_) * kNumMsgClasses);
  Cell* row = e.row.get();
  rows_.push_back(std::move(e));
  rc = RowCache{id_, src, row};
  return row;
}

// cls >= 0: that class only; -1: all classes; -2: packet classes (no Zcopy).
std::uint64_t CommMatrix::sum(Rank src, Rank dst, int cls, bool counts) const noexcept {
  std::uint64_t t = 0;
  std::lock_guard<std::mutex> lk(mu_);
  for (const RowEntry& e : rows_) {
    if (src >= 0 && e.src != src) continue;
    const Rank d0 = dst >= 0 ? dst : 0;
    const Rank d1 = dst >= 0 ? dst + 1 : n_;
    for (Rank d = d0; d < d1; ++d) {
      for (std::size_t c = 0; c < kNumMsgClasses; ++c) {
        if (cls >= 0 && static_cast<int>(c) != cls) continue;
        if (cls == -2 && static_cast<MsgClass>(c) == MsgClass::Zcopy) continue;
        const Cell& cell = e.row[static_cast<std::size_t>(d) * kNumMsgClasses + c];
        t += counts ? cell.count.load(std::memory_order_relaxed)
                    : cell.bytes.load(std::memory_order_relaxed);
      }
    }
  }
  return t;
}

std::uint64_t CommMatrix::count(Rank src, Rank dst, MsgClass cls) const noexcept {
  if (src < 0 || src >= n_ || dst < 0 || dst >= n_) return 0;
  return sum(src, dst, static_cast<int>(cls), /*counts=*/true);
}

std::uint64_t CommMatrix::bytes(Rank src, Rank dst, MsgClass cls) const noexcept {
  if (src < 0 || src >= n_ || dst < 0 || dst >= n_) return 0;
  return sum(src, dst, static_cast<int>(cls), /*counts=*/false);
}

std::uint64_t CommMatrix::tx_bytes(Rank src, bool include_zcopy) const noexcept {
  return sum(src, -1, include_zcopy ? -1 : -2, /*counts=*/false);
}

std::uint64_t CommMatrix::rx_bytes(Rank dst, bool include_zcopy) const noexcept {
  return sum(-1, dst, include_zcopy ? -1 : -2, /*counts=*/false);
}

std::uint64_t CommMatrix::tx_msgs(Rank src) const noexcept {
  return sum(src, -1, -2, /*counts=*/true);
}

std::uint64_t CommMatrix::rx_msgs(Rank dst) const noexcept {
  return sum(-1, dst, -2, /*counts=*/true);
}

std::uint64_t CommMatrix::total_packet_bytes() const noexcept {
  return sum(-1, -1, -2, /*counts=*/false);
}

std::uint64_t CommMatrix::total_zcopy_bytes() const noexcept {
  return sum(-1, -1, static_cast<int>(MsgClass::Zcopy), /*counts=*/false);
}

// --- RankProf ---------------------------------------------------------------

RankProf::RankProf(Profiler& owner, int nvcis)
    : owner_(owner), nvcis_(nvcis < 1 ? 1 : nvcis) {
  for (auto& s : slabs_) s.store(nullptr, std::memory_order_relaxed);
  cur_slab_.store(alloc_slab(0), std::memory_order_release);
}

RankProf::~RankProf() {
  for (auto& s : slabs_) delete[] s.load(std::memory_order_relaxed);
}

void RankProf::phase_push(std::string_view name) { phase_push(owner_.intern_phase(name)); }

void RankProf::phase_push(int phase_id) noexcept {
  if (phase_id < 0 || phase_id >= kMaxPhases) phase_id = 0;
  std::lock_guard<std::mutex> lk(stack_mu_);
  if (static_cast<int>(stack_.size()) >= kMaxPhaseDepth) {
    // Depth misuse mirrors pop misuse: count it, stay where we are.
    pop_warnings_.fetch_add(1, std::memory_order_relaxed);
    return;
  }
  stack_.push_back(phase_id);
  cur_phase_.store(phase_id, std::memory_order_relaxed);
  publish_cur_slab(phase_id);
  depth_.store(static_cast<int>(stack_.size()), std::memory_order_relaxed);
}

void RankProf::phase_pop() noexcept {
  std::lock_guard<std::mutex> lk(stack_mu_);
  if (stack_.empty()) {
    pop_warnings_.fetch_add(1, std::memory_order_relaxed);
    return;
  }
  stack_.pop_back();
  const int phase = stack_.empty() ? 0 : stack_.back();
  cur_phase_.store(phase, std::memory_order_relaxed);
  publish_cur_slab(phase);
  depth_.store(static_cast<int>(stack_.size()), std::memory_order_relaxed);
}

void RankProf::publish_cur_slab(int phase) noexcept {
  CallCell* slab = slabs_[static_cast<std::size_t>(phase)].load(std::memory_order_acquire);
  if (slab == nullptr) slab = alloc_slab(phase);
  cur_slab_.store(slab, std::memory_order_release);
}

namespace {
// This thread's sampled outermost call (at most one at a time, so one slot
// suffices).
struct ProfSample {
  CallCell* cell = nullptr;
  std::uint64_t t0 = 0;
  int weight_shift = 0;
  bool metered = false;
  cost::Meter::Snapshot m0;
};
thread_local ProfSample tl_sample;
}  // namespace

void prof_arm(CallCell* cell, std::uint64_t count) noexcept {
  ProfSample& s = tl_sample;
  s.cell = cell;
  s.weight_shift = count < (std::uint64_t{1} << kProfSampleShift) ? 0 : kProfSampleShift;
  s.t0 = lat_now_ns();
  s.metered = false;
  if (const cost::Meter* m = cost::tl_meter()) {
    s.m0 = m->snapshot();
    s.metered = true;
  }
}

void prof_finish() noexcept {
  const ProfSample& s = tl_sample;
  CallCell* cell = s.cell;
  cell->time_ns.store(cell->time_ns.load(std::memory_order_relaxed) +
                          ((lat_now_ns() - s.t0) << s.weight_shift),
                      std::memory_order_relaxed);
  if (s.metered) {
    if (const cost::Meter* m = cost::tl_meter()) {
      // One pass over the categories, bucketing deltas by group, instead of
      // kNumGroups full scans via Snapshot::group().
      const cost::Meter::Snapshot m1 = m->snapshot();
      std::array<std::uint64_t, cost::kNumGroups> by_group{};
      for (std::size_t c = 0; c < cost::kNumCategories; ++c) {
        const auto grp = cost::group_of(static_cast<cost::Category>(c));
        by_group[static_cast<std::size_t>(grp)] +=
            m1.by_category[c] - s.m0.by_category[c];
      }
      for (std::size_t g = 0; g < cost::kNumGroups; ++g) {
        auto& slot = cell->instr[g];
        slot.store(slot.load(std::memory_order_relaxed) + (by_group[g] << s.weight_shift),
                   std::memory_order_relaxed);
      }
    }
  }
}

CallCell* RankProf::alloc_slab(int phase) noexcept {
  auto& slot = slabs_[static_cast<std::size_t>(phase)];
  CallCell* slab = nullptr;
  auto* fresh = new CallCell[kNumCallsites * static_cast<std::size_t>(nvcis_)];
  if (slot.compare_exchange_strong(slab, fresh, std::memory_order_acq_rel)) {
    return fresh;
  }
  delete[] fresh;  // another thread won the publication race
  return slab;
}

const CallCell* RankProf::peek(int phase, Callsite site, int vci) const noexcept {
  if (phase < 0 || phase >= kMaxPhases || vci < 0 || vci >= nvcis_) return nullptr;
  const CallCell* slab = slabs_[static_cast<std::size_t>(phase)].load(std::memory_order_acquire);
  if (slab == nullptr) return nullptr;
  return &slab[static_cast<std::size_t>(site) * static_cast<std::size_t>(nvcis_) +
               static_cast<std::size_t>(vci)];
}

std::uint64_t RankProf::site_count(int phase, Callsite site) const noexcept {
  std::uint64_t t = 0;
  for (int v = 0; v < nvcis_; ++v) {
    if (const CallCell* c = peek(phase, site, v)) {
      t += c->count.load(std::memory_order_relaxed);
    }
  }
  return t;
}

std::uint64_t RankProf::site_bytes(int phase, Callsite site) const noexcept {
  std::uint64_t t = 0;
  for (int v = 0; v < nvcis_; ++v) {
    if (const CallCell* c = peek(phase, site, v)) {
      t += c->bytes.load(std::memory_order_relaxed);
    }
  }
  return t;
}

std::uint64_t RankProf::phase_time_ns(int phase) const noexcept {
  std::uint64_t t = 0;
  for (std::size_t s = 0; s < kNumCallsites; ++s) {
    for (int v = 0; v < nvcis_; ++v) {
      if (const CallCell* c = peek(phase, static_cast<Callsite>(s), v)) {
        t += c->time_ns.load(std::memory_order_relaxed);
      }
    }
  }
  return t;
}

// --- Profiler ---------------------------------------------------------------

Profiler::Profiler(int nranks, int nvcis)
    : nranks_(nranks < 0 ? 0 : nranks), nvcis_(nvcis < 1 ? 1 : nvcis), matrix_(nranks_) {
  phases_.emplace_back("main");
  ranks_.reserve(static_cast<std::size_t>(nranks_));
  for (int r = 0; r < nranks_; ++r) {
    ranks_.push_back(std::make_unique<RankProf>(*this, nvcis_));
  }
}

int Profiler::intern_phase(std::string_view name) {
  std::lock_guard<std::mutex> lk(phase_mu_);
  for (std::size_t i = 0; i < phases_.size(); ++i) {
    if (phases_[i] == name) return static_cast<int>(i);
  }
  if (static_cast<int>(phases_.size()) >= kMaxPhases) {
    phase_overflows_.fetch_add(1, std::memory_order_relaxed);
    return 0;
  }
  phases_.emplace_back(name);
  return static_cast<int>(phases_.size() - 1);
}

int Profiler::num_phases() const {
  std::lock_guard<std::mutex> lk(phase_mu_);
  return static_cast<int>(phases_.size());
}

std::string Profiler::phase_name(int id) const {
  std::lock_guard<std::mutex> lk(phase_mu_);
  if (id < 0 || id >= static_cast<int>(phases_.size())) return "?";
  return phases_[static_cast<std::size_t>(id)];
}

std::string Profiler::artifact_json(std::string_view netmod) const {
  const int np = num_phases();
  std::ostringstream o;
  o << "{\"lwmpi_profile\":1,\"nranks\":" << nranks_ << ",\"nvcis\":" << nvcis_
    << ",\"netmod\":" << json::quote(netmod) << ",\"phases\":[";
  for (int ph = 0; ph < np; ++ph) {
    o << (ph == 0 ? "" : ",") << json::quote(phase_name(ph));
  }
  o << "],\"phase_overflows\":" << phase_overflows() << ",\"ranks\":[";
  for (int r = 0; r < nranks_; ++r) {
    const RankProf& rp = rank(r);
    o << (r == 0 ? "" : ",") << "{\"rank\":" << r
      << ",\"pop_warnings\":" << rp.pop_warnings() << ",\"phases\":[";
    bool first_ph = true;
    for (int ph = 0; ph < np; ++ph) {
      // Emit only phases this rank recorded under (slab allocated).
      bool any = false;
      for (std::size_t s = 0; s < kNumCallsites && !any; ++s) {
        any = rp.site_count(ph, static_cast<Callsite>(s)) != 0;
      }
      if (!any) continue;
      o << (first_ph ? "" : ",") << "{\"phase\":" << json::quote(phase_name(ph))
        << ",\"time_ns\":" << rp.phase_time_ns(ph) << ",\"callsites\":[";
      first_ph = false;
      bool first_cs = true;
      for (std::size_t s = 0; s < kNumCallsites; ++s) {
        const auto site = static_cast<Callsite>(s);
        for (int v = 0; v < nvcis_; ++v) {
          const CallCell* c = rp.peek(ph, site, v);
          if (c == nullptr || c->count.load(std::memory_order_relaxed) == 0) continue;
          o << (first_cs ? "" : ",") << "{\"site\":\"" << to_string(site)
            << "\",\"vci\":" << v << ",\"count\":" << c->count.load(std::memory_order_relaxed)
            << ",\"bytes\":" << c->bytes.load(std::memory_order_relaxed)
            << ",\"time_ns\":" << c->time_ns.load(std::memory_order_relaxed) << ",\"cost\":{";
          first_cs = false;
          for (std::size_t g = 0; g < cost::kNumGroups; ++g) {
            o << (g == 0 ? "" : ",") << '"' << cost::to_string(static_cast<cost::Group>(g))
              << "\":" << c->instr[g].load(std::memory_order_relaxed);
          }
          o << "}}";
        }
      }
      o << "]}";
    }
    o << "]}";
  }
  o << "],\"matrix\":[";
  bool first_cell = true;
  for (Rank s = 0; s < nranks_; ++s) {
    for (Rank d = 0; d < nranks_; ++d) {
      for (std::size_t c = 0; c < kNumMsgClasses; ++c) {
        const auto cls = static_cast<MsgClass>(c);
        const std::uint64_t n = matrix_.count(s, d, cls);
        const std::uint64_t b = matrix_.bytes(s, d, cls);
        if (n == 0 && b == 0) continue;
        o << (first_cell ? "" : ",") << "{\"src\":" << s << ",\"dst\":" << d
          << ",\"class\":\"" << to_string(cls) << "\",\"count\":" << n << ",\"bytes\":" << b
          << '}';
        first_cell = false;
      }
    }
  }
  o << "]}";
  return o.str();
}

void Profiler::write_artifact(const std::string& path, std::string_view netmod) const {
  if (path.empty()) return;
  std::ofstream f(path, std::ios::trunc);
  if (!f) return;
  f << artifact_json(netmod) << '\n';
}

}  // namespace lwmpi::obs
