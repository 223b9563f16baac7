// Engine core: construction, communicator table plumbing, request pool,
// validation helpers, completion (wait/test), and datatype wrappers.
#include "core/engine.hpp"

#include <algorithm>

#include "cost/meter.hpp"
#include "cost/model.hpp"
#include "obs/recorder.hpp"
#include "runtime/world.hpp"

namespace lwmpi {

Engine::Engine(World& world, Rank world_rank)
    : world_(world),
      fabric_(world.fabric()),
      self_(world_rank),
      device_(world.options().device),
      cfg_(world.options().build),
      eager_threshold_(world.options().eager_threshold) {
  const bool orig = device_ == DeviceKind::Orig;
  send_instr_ =
      cost::modeled_isend_total(orig, cfg_.error_checking, cfg_.thread_safety, cfg_.ipo);
  // Receive-side handling walks a comparable device path (matching, request
  // completion); approximate it with the send-path total.
  recv_instr_ = send_instr_;
  const std::uint32_t put_instr =
      cost::modeled_put_total(orig, cfg_.error_checking, cfg_.thread_safety, cfg_.ipo);
  const double k = world.options().sim_ns_per_instruction;
  if (k > 0) {
    sim_send_ns_ = static_cast<std::uint64_t>(send_instr_ * k);
    sim_recv_ns_ = static_cast<std::uint64_t>(recv_instr_ * k);
    sim_put_ns_ = static_cast<std::uint64_t>(put_instr * k);
  }
  const int n = cfg_.vcis();
  const int lat_shift =
      cfg_.lat_sample_shift < 0 ? 0 : (cfg_.lat_sample_shift > 20 ? 20 : cfg_.lat_sample_shift);
  // Per-peer sampling ordinals (obs/histogram.hpp VciLatency): one allocation
  // per engine holding two world-sized arrays per channel. The 16-slot gap
  // after each channel's pair keeps two channels' writers off a shared cache
  // line.
  const auto peers = static_cast<std::size_t>(fabric_.nranks());
  const std::size_t stride = 2 * peers + 16;
  lat_ordinals_ =
      std::make_unique<std::atomic<std::uint32_t>[]>(stride * static_cast<std::size_t>(n));
  vcis_.reserve(static_cast<std::size_t>(n));
  for (int i = 0; i < n; ++i) {
    vcis_.push_back(std::make_unique<Vci>(cfg_.trace ? obs::trace::kRingCapacity : 0));
    Vci& v = *vcis_.back();
    v.counters.enabled = cfg_.counters;
    v.lat.enabled = cfg_.counters;
    v.lat.sample_mask = (1u << lat_shift) - 1;
    v.lat.peers = static_cast<std::uint32_t>(peers);
    v.lat.sends_to = &lat_ordinals_[static_cast<std::size_t>(i) * stride];
    v.lat.posts_from = v.lat.sends_to + peers;
    v.matcher.set_stamp_arrivals(cfg_.counters);
  }
  eng_counters_.enabled = cfg_.counters;
  if (obs::Profiler* p = world.profiler(); p != nullptr) prof_ = &p->rank(self_);
  if (obs::Recorder* rec = world.recorder(); rec != nullptr) rec_ = &rec->rank(self_);
  init_world_comms();
}

Engine::~Engine() {
  for (auto& v : vcis_) {
    for (QueuedSend& q : v->send_queue) rt::PacketPool::free(q.pkt);
  }
}

int Engine::world_size() const noexcept { return fabric_.nranks(); }

// ---------------------------------------------------------------------------
// Communicator table
// ---------------------------------------------------------------------------

std::uint32_t Engine::assign_vci(std::uint32_t slot_idx, std::uint32_t ctx) const noexcept {
  const std::uint32_t n = static_cast<std::uint32_t>(vcis_.size());
  // The predefined fast-path handles kComm1..kComm4 pin to distinct channels
  // so an application thread per predefined comm never shares a VCI (up to n).
  const std::uint32_t first = handle_payload(kComm1);
  if (slot_idx >= first && slot_idx < first + static_cast<std::uint32_t>(kNumPredefinedComms)) {
    return (slot_idx - first) % n;
  }
  // Context ids come in (pt2pt, coll) pairs, so hash the pair index: both
  // planes of one communicator land on the same channel, and every rank
  // computes the same mapping from the collectively-agreed context id.
  return (ctx >> 1) % n;
}

Vci* Engine::vci_for(Comm comm) noexcept {
  const CommObject* c = comm_obj(comm);
  return c == nullptr ? nullptr : vcis_[c->vci].get();
}

void Engine::init_world_comms() {
  for (std::uint32_t i = 0; i < kFirstDynamicCommSlot; ++i) comms_.emplace();
  CommObject& w = *comms_.at(handle_payload(kCommWorld));
  w.ctx = kWorldCtx;
  w.vci = assign_vci(handle_payload(kCommWorld), kWorldCtx);
  world_vci_ = static_cast<int>(w.vci);
  w.rank = self_;
  w.map = comm::RankMap::identity(world_size());
  w.in_use.store(true, std::memory_order_release);

  CommObject& s = *comms_.at(handle_payload(kCommSelf));
  s.ctx = kSelfCtx;
  s.vci = assign_vci(handle_payload(kCommSelf), kSelfCtx);
  s.rank = 0;
  s.map = comm::RankMap::offset_map(1, self_);
  s.in_use.store(true, std::memory_order_release);

  for (int i = 0; i < kNumPredefinedComms; ++i) {
    comms_.at(handle_payload(kComm1) + static_cast<std::uint32_t>(i))->predefined_slot = true;
  }
}

Engine::CommObject* Engine::comm_obj(Comm comm) noexcept {
  if (handle_kind(comm) != HandleKind::Comm) return nullptr;
  CommObject* c = comms_.at(handle_payload(comm));
  if (c == nullptr || !c->in_use.load(std::memory_order_acquire)) return nullptr;
  return c;
}

const Engine::CommObject* Engine::comm_obj(Comm comm) const noexcept {
  return const_cast<Engine*>(this)->comm_obj(comm);
}

Comm Engine::alloc_comm_slot() {
  std::lock_guard<std::mutex> lk(comm_mu_);
  for (std::uint32_t i = kFirstDynamicCommSlot; i < comms_.size(); ++i) {
    CommObject& c = *comms_.at(i);
    if (!c.in_use.load(std::memory_order_acquire) && !c.reserved && !c.predefined_slot) {
      c.reserved = true;
      return make_handle(HandleKind::Comm, i);
    }
  }
  const std::uint32_t idx = comms_.emplace();
  comms_.at(idx)->reserved = true;
  return make_handle(HandleKind::Comm, idx);
}

Err Engine::build_comm(Comm slot_handle, std::vector<Rank> world_ranks, std::uint32_t ctx) {
  CommObject& c = *comms_.at(handle_payload(slot_handle));
  const Rank my = [&] {
    for (std::size_t i = 0; i < world_ranks.size(); ++i) {
      if (world_ranks[i] == self_) return static_cast<Rank>(i);
    }
    return kUndefined;
  }();
  if (my == kUndefined) return Err::Internal;
  c.ctx = ctx;
  c.vci = assign_vci(handle_payload(slot_handle), ctx);
  c.rank = my;
  c.map = comm::RankMap::from_list(std::move(world_ranks));
  c.noreq_outstanding.store(0, std::memory_order_relaxed);
  // Scrub state a previous occupant of this slot may have left behind.
  c.cart.reset();
  c.info.clear();
  c.hint_arrival_order.store(false, std::memory_order_relaxed);
  c.in_use.store(true, std::memory_order_release);
  return Err::Success;
}

int Engine::rank(Comm comm) const {
  const CommObject* c = comm_obj(comm);
  return c == nullptr ? kUndefined : c->rank;
}

int Engine::size(Comm comm) const {
  const CommObject* c = comm_obj(comm);
  return c == nullptr ? kUndefined : c->map.size();
}

bool Engine::comm_valid(Comm comm) const noexcept { return comm_obj(comm) != nullptr; }

int Engine::vci_of(Comm comm) const noexcept {
  const CommObject* c = comm_obj(comm);
  return c == nullptr ? -1 : static_cast<int>(c->vci);
}

std::uint64_t Engine::vci_busy_instr(int vci) const noexcept {
  return vcis_[static_cast<std::size_t>(vci)]->busy_instr.load(std::memory_order_relaxed);
}

std::uint64_t Engine::vci_contended(int vci) const noexcept {
  return vcis_[static_cast<std::size_t>(vci)]->contended.load(std::memory_order_relaxed);
}

std::size_t Engine::live_requests() const noexcept {
  std::size_t n = 0;
  for (const auto& v : vcis_) n += v->pool.live();
  return n;
}

std::uint64_t Engine::sends_issued() const noexcept {
  std::uint64_t n = 0;
  for (const auto& v : vcis_) n += v->sends_issued.load(std::memory_order_relaxed);
  return n;
}

std::size_t Engine::posted_depth(int vci) const noexcept {
  const Vci& v = *vcis_[static_cast<std::size_t>(vci)];
  std::lock_guard<std::recursive_mutex> lk(v.mu);
  return v.matcher.posted_depth();
}

std::size_t Engine::unexpected_depth(int vci) const noexcept {
  const Vci& v = *vcis_[static_cast<std::size_t>(vci)];
  std::lock_guard<std::recursive_mutex> lk(v.mu);
  return v.matcher.unexpected_depth();
}

std::size_t Engine::posted_depth() const noexcept {
  std::size_t n = 0;
  for (int v = 0; v < num_vcis(); ++v) n += posted_depth(v);
  return n;
}

std::size_t Engine::unexpected_depth() const noexcept {
  std::size_t n = 0;
  for (int v = 0; v < num_vcis(); ++v) n += unexpected_depth(v);
  return n;
}

// ---------------------------------------------------------------------------
// Validation helpers. Each performs the real check *and* charges its modeled
// instruction cost; both are skipped when error checking is disabled, which
// is what makes the Figure-2 build matrix reproducible.
// ---------------------------------------------------------------------------

Err Engine::check_count(int count) const noexcept {
  cost::charge(cost::Category::ErrCheck, cost::kErrCount);
  return count >= 0 ? Err::Success : Err::Count;
}

Err Engine::check_datatype(Datatype dt) const noexcept {
  cost::charge(cost::Category::ErrCheck, cost::kErrDatatype);
  return types_.committed_or_builtin(dt) ? Err::Success : Err::Datatype;
}

Err Engine::validate_pt2pt(Pt2ptRule rule, Comm comm, Rank peer, Tag tag, int count,
                           const void* buf, Datatype dt) const noexcept {
  cost::charge(cost::Category::ErrCheck, cost::kErrCommHandle);
  const CommObject* c = comm_obj(comm);
  if (c == nullptr) return Err::Comm;
  if (rule.peer != PeerRule::None) {
    cost::charge(cost::Category::ErrCheck, cost::kErrRankRange);
    const bool special = (peer == kProcNull && rule.peer != PeerRule::RankOnly) ||
                         (peer == kAnySource && rule.peer == PeerRule::Source);
    const int size = rule.peer == PeerRule::WorldRankOrNull ? world_size() : c->map.size();
    if (!special && (peer < 0 || peer >= size)) return Err::Rank;
  }
  if (rule.tag != TagRule::None) {
    cost::charge(cost::Category::ErrCheck, cost::kErrTagRange);
    const bool any = rule.tag == TagRule::Recv && tag == kAnyTag;
    if (!any && (tag < 0 || tag > kTagUb)) return Err::Tag;
  }
  if (!rule.data) return Err::Success;
  if (Err e = check_count(count); !ok(e)) return e;
  cost::charge(cost::Category::ErrCheck, cost::kErrBuffer);
  if (buf == nullptr && count != 0) return Err::Buffer;
  return check_datatype(dt);
}

// ---------------------------------------------------------------------------
// Request pool (one per VCI; handles encode [vci | slot index])
// ---------------------------------------------------------------------------

Request Engine::alloc_request(RequestSlot::Kind kind, std::uint32_t vci) {
  RequestPool& pool = vcis_[vci]->pool;
  std::uint32_t idx;
  pool.lock();
  if (!pool.free_list.empty()) {
    idx = pool.free_list.back();
    pool.free_list.pop_back();
    pool.unlock();
  } else {
    pool.unlock();
    idx = pool.slots.emplace();
  }
  RequestSlot& s = *pool.slots.at(idx);
  s.reset();
  s.kind = kind;
  s.active.store(true, std::memory_order_release);
  return make_request_handle(vci, idx);
}

RequestSlot* Engine::req_slot(Request r) noexcept {
  if (handle_kind(r) != HandleKind::Request) return nullptr;
  const std::uint32_t vci = request_vci(r);
  if (vci >= vcis_.size()) return nullptr;
  RequestSlot* s = vcis_[vci]->pool.slots.at(request_idx(r));
  if (s == nullptr || !s->active.load(std::memory_order_acquire)) return nullptr;
  return s;
}

bool Engine::slot_ready(const RequestSlot& s) noexcept {
  if (s.kind == RequestSlot::Kind::PersistentSend ||
      s.kind == RequestSlot::Kind::PersistentRecv) {
    if (s.inner == kRequestNull) return true;
    const RequestSlot* in = req_slot(s.inner);
    return in == nullptr || in->complete.load(std::memory_order_acquire);
  }
  return s.complete.load(std::memory_order_acquire);
}

void Engine::release_request(Request r) noexcept {
  RequestPool& pool = vcis_[request_vci(r)]->pool;
  const std::uint32_t idx = request_idx(r);
  RequestSlot& s = *pool.slots.at(idx);
  // Return staging memory eagerly: an errored (e.g. truncated) rendezvous may
  // leave the buffer allocated past the completion path.
  s.stage.clear();
  s.stage.shrink_to_fit();
  s.active.store(false, std::memory_order_release);
  pool.lock();
  pool.free_list.push_back(idx);
  pool.unlock();
}

// ---------------------------------------------------------------------------
// Completion
// ---------------------------------------------------------------------------

Err Engine::wait(Request* req, Status* st) {
  // Link resolved at entry: wait_impl nulls the handle on completion.
  obs::SurfaceScope sc(prof_, rec_, obs::Callsite::Wait, [&] {
    const Request h = req != nullptr ? *req : kRequestNull;
    return obs::Surface{static_cast<int>(request_vci(h)), 0, 0, 0, h};
  });
  return wait_impl(req, st);
}

template <class Done>
Err Engine::reap(Request* req, Status* st, Done done) {
  if (*req == kRequestNull) {
    if (st != nullptr) *st = Status{};
    return Err::Success;
  }
  RequestSlot* s = req_slot(*req);
  if (s == nullptr) return Err::Request;
  if (s->kind == RequestSlot::Kind::PersistentSend ||
      s->kind == RequestSlot::Kind::PersistentRecv) {
    // Persistent handles complete through their in-flight inner operation and
    // return to the inactive state instead of being released.
    if (s->inner == kRequestNull) {
      if (st != nullptr) *st = Status{};  // inactive: trivially complete
      return Err::Success;
    }
    req = &s->inner;
    s = req_slot(*req);
    if (s == nullptr) return Err::Request;
  }
  if (!done(*s)) return Err::Pending;
  const Err op_err = s->op_error;
  if (st != nullptr) *st = s->status;
  release_request(*req);
  *req = kRequestNull;
  return op_err;
}

Err Engine::wait_impl(Request* req, Status* st) {
  if (req == nullptr) return Err::Request;
  // An invalid handle is rejected by reap's lookup, checking on or off.
  if (cfg_.error_checking && *req != kRequestNull) {
    cost::charge(cost::Category::ErrCheck, cost::kErrRequestHandle);
  }
  return reap(req, st, [this](const RequestSlot& s) {
    // An already-complete request still progresses once, and never touches
    // the watchdog annotation.
    block_until("Wait", [&s] { return s.complete.load(std::memory_order_acquire); });
    return true;
  });
}

Err Engine::test(Request* req, bool* flag, Status* st) {
  // Success-gated: only a test that actually completed a request is a
  // replayable op, so the record is emitted at exit. The handle must be
  // captured first (completion nulls it).
  const Request h = req != nullptr ? *req : kRequestNull;
  obs::SurfaceScope sc(prof_, rec_, obs::kDeferRecord, obs::Callsite::Test,
                       [&] { return obs::Surface{static_cast<int>(request_vci(h))}; });
  const Err e = test_impl(req, flag, st);
  if (sc.recording() && ok(e) && flag != nullptr && *flag && h != kRequestNull) {
    sc.record(obs::Callsite::Test, {static_cast<int>(request_vci(h)), 0, 0, 0, h});
  }
  return e;
}

Err Engine::test_impl(Request* req, bool* flag, Status* st) {
  if (req == nullptr || flag == nullptr) return Err::Request;
  const Err e = reap(req, st, [this](const RequestSlot& s) {
    progress();
    return s.complete.load(std::memory_order_acquire);
  });
  if (e == Err::Request) return e;
  *flag = e != Err::Pending;
  return *flag ? e : Err::Success;
}

Err Engine::waitall(std::span<Request> reqs, std::span<Status> sts) {
  obs::SurfaceScope sc(prof_, rec_, obs::kDeferRecord, obs::Callsite::Waitall,
                       [] { return obs::Surface{}; });
  sc.record_list(obs::Callsite::Waitall, reqs);  // at entry, before completion
  Err first = Err::Success;
  for (std::size_t i = 0; i < reqs.size(); ++i) {
    Status st;
    const Err e = wait(&reqs[i], &st);
    if (i < sts.size()) sts[i] = st;
    if (!ok(e) && ok(first)) first = e;
  }
  return first;
}

Err Engine::waitany(std::span<Request> reqs, int* index, Status* st) {
  // Success-gated: recorded when a request completes.
  obs::SurfaceScope sc(prof_, rec_, obs::kDeferRecord, obs::Callsite::Waitany,
                       [] { return obs::Surface{}; });
  if (index == nullptr) return Err::Arg;
  bool any_active = false;
  for (const Request& r : reqs) {
    if (r != kRequestNull) any_active = true;
  }
  if (!any_active) {
    *index = kUndefined;
    if (st != nullptr) *st = Status{};
    return Err::Success;
  }
  std::size_t hit = 0;
  bool invalid = false;
  block_until("Waitany", [&] {
    for (hit = 0; hit < reqs.size(); ++hit) {
      if (reqs[hit] == kRequestNull) continue;
      const RequestSlot* s = req_slot(reqs[hit]);
      invalid = s == nullptr;
      if (invalid || slot_ready(*s)) return true;
    }
    return false;
  });
  if (invalid) return Err::Request;
  *index = static_cast<int>(hit);
  sc.record(obs::Callsite::Waitany, {0, 0, 0, 0, reqs[hit]});
  return wait(&reqs[hit], st);
}

Err Engine::testany(std::span<Request> reqs, int* index, bool* flag, Status* st) {
  // Success-gated, like test().
  obs::SurfaceScope sc(prof_, rec_, obs::kDeferRecord, obs::Callsite::Testany,
                       [] { return obs::Surface{}; });
  if (index == nullptr || flag == nullptr) return Err::Arg;
  progress();
  bool any_active = false;
  for (std::size_t i = 0; i < reqs.size(); ++i) {
    if (reqs[i] == kRequestNull) continue;
    any_active = true;
    RequestSlot* s = req_slot(reqs[i]);
    if (s == nullptr) return Err::Request;
    if (slot_ready(*s)) {
      *index = static_cast<int>(i);
      *flag = true;
      sc.record(obs::Callsite::Testany, {0, 0, 0, 0, reqs[i]});
      return wait(&reqs[i], st);
    }
  }
  *flag = !any_active;  // all-null arrays complete trivially
  *index = kUndefined;
  if (st != nullptr) *st = Status{};
  return Err::Success;
}

Err Engine::testall(std::span<Request> reqs, bool* flag, std::span<Status> sts) {
  // Success-gated: recorded only when all complete.
  obs::SurfaceScope sc(prof_, rec_, obs::kDeferRecord, obs::Callsite::Testall,
                       [] { return obs::Surface{}; });
  if (flag == nullptr) return Err::Arg;
  progress();
  for (const Request& r : reqs) {
    if (r == kRequestNull) continue;
    RequestSlot* s = req_slot(r);
    if (s == nullptr) return Err::Request;
    if (!slot_ready(*s)) {
      *flag = false;
      return Err::Success;
    }
  }
  *flag = true;
  sc.record_list(obs::Callsite::Testall, reqs);
  return waitall(reqs, sts);  // everything is complete: reap without blocking
}

Err Engine::cancel(Request* req) {
  obs::SurfaceScope sc(prof_, rec_, obs::Callsite::Cancel, [&] {
    const Request h = req != nullptr ? *req : kRequestNull;
    return obs::Surface{static_cast<int>(request_vci(h)), 0, 0, 0, h};
  });
  if (req == nullptr || *req == kRequestNull) return Err::Request;
  RequestSlot* s = req_slot(*req);
  if (s == nullptr) return Err::Request;
  // Serialize against the owning channel: the matcher may be handing this
  // request a packet right now.
  Vci& v = *vcis_[request_vci(*req)];
  std::lock_guard<std::recursive_mutex> lk(v.mu);
  if (s->complete.load(std::memory_order_acquire)) return Err::Success;  // wait() will reap it
  if (s->kind == RequestSlot::Kind::Recv && v.matcher.cancel(*req)) {
    v.counters.dec(obs::VciCtr::PostedDepth);
    s->op_error = Err::Success;
    s->status.source = kUndefined;
    s->status.tag = kUndefined;
    s->complete.store(true, std::memory_order_release);
    return Err::Success;
  }
  return Err::NotSupported;  // in-flight sends are not cancellable here
}

// ---------------------------------------------------------------------------
// Probe
// ---------------------------------------------------------------------------

Err Engine::probe_args(Rank src, Tag tag, Comm comm, const CommObject** c) {
  constexpr Pt2ptRule kProbe{
      .peer = PeerRule::Source, .tag = TagRule::Recv, .gated = false, .data = false};
  const Prologue pro(*this, kProbe, comm, src, tag, 0, nullptr, kDatatypeNull);
  if (!ok(pro.err)) return pro.err;
  *c = comm_obj(comm);
  return *c == nullptr ? Err::Comm : Err::Success;
}

bool Engine::probe_match(const CommObject& c, Rank src, Tag tag, Status* st) {
  if (src == kProcNull) {
    // MPI-3.1 3.11: a probe of MPI_PROC_NULL matches at once, with source
    // MPI_PROC_NULL, tag MPI_ANY_TAG and count 0.
    if (st != nullptr) *st = Status{.source = kProcNull, .tag = kAnyTag};
    return true;
  }
  Vci& v = *vcis_[c.vci];
  std::lock_guard<std::recursive_mutex> lk(v.mu);
  const rt::PacketHeader* h = v.matcher.probe(c.ctx, src, tag);
  if (h != nullptr && st != nullptr) {
    st->source = h->src_comm_rank;
    st->tag = h->tag;
    st->byte_count = h->total_bytes;
    st->error = Err::Success;
  }
  return h != nullptr;
}

Err Engine::iprobe(Rank src, Tag tag, Comm comm, bool* flag, Status* st) {
  // Success-gated: only a hit is a replayable op.
  obs::SurfaceScope sc(prof_, rec_, obs::kDeferRecord, obs::Callsite::Iprobe,
                       [&] { return obs::Surface{surface_vci(comm)}; });
  if (flag == nullptr) return Err::Arg;
  const CommObject* c = nullptr;
  if (Err e = probe_args(src, tag, comm, &c); !ok(e)) return e;
  progress();
  *flag = probe_match(*c, src, tag, st);
  if (*flag) sc.record(obs::Callsite::Iprobe, {static_cast<int>(c->vci), 0, src, tag});
  return Err::Success;
}

Err Engine::probe(Rank src, Tag tag, Comm comm, Status* st) {
  obs::SurfaceScope sc(prof_, rec_, obs::Callsite::Probe,
                       [&] { return obs::Surface{surface_vci(comm), 0, src, tag}; });
  const CommObject* c = nullptr;
  if (Err e = probe_args(src, tag, comm, &c); !ok(e)) return e;
  block_until("Probe", [&] { return probe_match(*c, src, tag, st); });
  return Err::Success;
}

// ---------------------------------------------------------------------------
// Watchdog liveness signals
// ---------------------------------------------------------------------------

std::uint64_t Engine::activity_fingerprint() const noexcept {
  // Mix each liveness counter through a splitmix-style step so two counters
  // moving in opposite directions (a delivery completing a request) can never
  // cancel to the same fingerprint -- a plain sum could read as "no progress".
  std::uint64_t fp = 0;
  const auto mix = [&fp](std::uint64_t x) {
    fp = (fp ^ (x + 0x9E3779B97F4A7C15ull)) * 0xBF58476D1CE4E5B9ull;
  };
  mix(live_requests());
  mix(sends_issued());
  mix(fabric_.injected(self_));
  mix(fabric_.delivered(self_));
  return fp;
}

bool Engine::has_outstanding_work() const noexcept {
  if (live_requests() != 0) return true;
  if (fabric_.pending_any(self_) != 0) return true;
  for (const auto& v : vcis_) {
    if (v->send_q_depth.load(std::memory_order_relaxed) != 0) return true;
  }
  return false;
}

// ---------------------------------------------------------------------------
// Datatype wrappers
// ---------------------------------------------------------------------------

Err Engine::type_contiguous(int count, Datatype oldtype, Datatype* newtype) {
  return types_.contiguous(count, oldtype, newtype);
}
Err Engine::type_vector(int count, int blocklength, int stride, Datatype oldtype,
                        Datatype* newtype) {
  return types_.vector(count, blocklength, stride, oldtype, newtype);
}
Err Engine::type_indexed(std::span<const int> blocklengths, std::span<const int> displacements,
                         Datatype oldtype, Datatype* newtype) {
  return types_.indexed(blocklengths, displacements, oldtype, newtype);
}
Err Engine::type_create_struct(std::span<const int> blocklengths,
                               std::span<const std::int64_t> displacements,
                               std::span<const Datatype> types, Datatype* newtype) {
  return types_.create_struct(blocklengths, displacements, types, newtype);
}
Err Engine::type_create_hvector(int count, int blocklength, std::int64_t stride_bytes,
                                Datatype oldtype, Datatype* newtype) {
  return types_.hvector(count, blocklength, stride_bytes, oldtype, newtype);
}
Err Engine::type_create_hindexed(std::span<const int> blocklengths,
                                 std::span<const std::int64_t> displacements_bytes,
                                 Datatype oldtype, Datatype* newtype) {
  return types_.hindexed(blocklengths, displacements_bytes, oldtype, newtype);
}
Err Engine::type_create_resized(Datatype oldtype, std::int64_t lb, std::int64_t extent,
                                Datatype* newtype) {
  return types_.create_resized(oldtype, lb, extent, newtype);
}
Err Engine::type_dup(Datatype oldtype, Datatype* newtype) {
  return types_.dup(oldtype, newtype);
}
Err Engine::type_commit(Datatype* dt) { return types_.commit(dt); }
Err Engine::type_free(Datatype* dt) { return types_.free_type(dt); }
Err Engine::type_size(Datatype dt, std::size_t* size) const { return types_.get_size(dt, size); }
Err Engine::type_get_extent(Datatype dt, std::int64_t* lb, std::int64_t* extent) const {
  return types_.get_extent(dt, lb, extent);
}

// ---------------------------------------------------------------------------
// Blocking pt2pt built on the nonblocking primitives
// ---------------------------------------------------------------------------

// The blocking wrappers call the _impl primitives directly: the outermost-wins
// depth guard would suppress the nested scopes anyway, but skipping them also
// skips their per-call depth-guard TLS traffic (the pingpong overhead gate
// measures exactly this path).

Err Engine::send(const void* buf, int count, Datatype dt, Rank dest, Tag tag, Comm comm) {
  obs::SurfaceScope sc(prof_, rec_, obs::Callsite::Send, [&] {
    return obs::Surface{surface_vci(comm), surface_bytes(count, dt), dest, tag};
  });
  Request r = kRequestNull;
  if (Err e = isend_impl(buf, count, dt, dest, tag, comm, &r); !ok(e)) return e;
  return wait_impl(&r, nullptr);
}

Err Engine::recv(void* buf, int count, Datatype dt, Rank src, Tag tag, Comm comm, Status* st) {
  obs::SurfaceScope sc(prof_, rec_, obs::Callsite::Recv, [&] {
    return obs::Surface{surface_vci(comm), surface_bytes(count, dt), src, tag};
  });
  Request r = kRequestNull;
  if (Err e = irecv_impl(buf, count, dt, src, tag, comm, &r); !ok(e)) return e;
  return wait_impl(&r, st);
}

Err Engine::sendrecv(const void* sbuf, int scount, Datatype sdt, Rank dest, Tag stag,
                     void* rbuf, int rcount, Datatype rdt, Rank src, Tag rtag, Comm comm,
                     Status* st) {
  // The profile counts both halves' bytes under the one call. The recorder
  // writes two records: the send half under the Sendrecv kind, then the recv
  // half as a follower -- replay re-issues recv-first exactly like the body
  // below.
  obs::SurfaceScope sc(prof_, rec_, obs::kDeferRecord, obs::Callsite::Sendrecv, [&] {
    return obs::Surface{surface_vci(comm),
                        surface_bytes(scount, sdt) + surface_bytes(rcount, rdt)};
  });
  if (sc.recording()) {
    const int vci = surface_vci(comm);
    sc.record(obs::Callsite::Sendrecv, {vci, surface_bytes(scount, sdt), dest, stag});
    sc.aux(obs::kRecKindSendrecvRecv, {vci, surface_bytes(rcount, rdt), src, rtag});
  }
  Request rr = kRequestNull;
  Request sr = kRequestNull;
  if (Err e = irecv_impl(rbuf, rcount, rdt, src, rtag, comm, &rr); !ok(e)) return e;
  if (Err e = isend_impl(sbuf, scount, sdt, dest, stag, comm, &sr); !ok(e)) return e;
  if (Err e = wait_impl(&sr, nullptr); !ok(e)) return e;
  return wait_impl(&rr, st);
}

}  // namespace lwmpi
