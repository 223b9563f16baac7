// Live queue introspection (obs/introspect.hpp).
//
// Two layers: Vci::snapshot_into copies one channel's queues while the caller
// holds the channel lock; Engine::snapshot orchestrates the walk across every
// channel, resolves matcher context ids back to communicator handles, finds
// the oldest incomplete request, and captures each window's epoch state. The
// renderers emit the per-rank dump the watchdog embeds in its hang report and
// tools/hangdump pretty-prints.
#include "obs/introspect.hpp"

#include <sstream>

#include "core/engine.hpp"
#include "obs/histogram.hpp"
#include "obs/json.hpp"

namespace lwmpi {

namespace {

const char* req_kind_name(RequestSlot::Kind k) noexcept {
  switch (k) {
    case RequestSlot::Kind::SendEager:
      return "send_eager";
    case RequestSlot::Kind::SendRdv:
      return "send_rdv";
    case RequestSlot::Kind::Recv:
      return "recv";
    case RequestSlot::Kind::RecvRdv:
      return "recv_rdv";
    default:
      return "none";
  }
}

std::uint64_t age_of(std::uint64_t now, std::uint64_t then) noexcept {
  return (then != 0 && now > then) ? now - then : 0;
}

}  // namespace

void Vci::snapshot_into(obs::VciSnapshot& out, std::uint64_t now) const {
  matcher.visit_posted([&](const match::PostedRecv& r) {
    obs::QueueEntrySnap e;
    e.ctx = r.ctx;
    e.src = r.src;
    e.tag = r.tag;
    e.req = request_idx(r.req);
    e.arrival_order = r.mode == rt::MatchMode::ArrivalOrder;
    if (const RequestSlot* s = pool.slots.at(request_idx(r.req))) {
      e.bytes = s->bytes_expected;
    }
    e.age_ns = age_of(now, r.posted_ns);
    out.posted.push_back(e);
  });
  matcher.visit_unexpected([&](const rt::PacketHeader& h, std::uint64_t arrived_ns) {
    obs::QueueEntrySnap e;
    e.ctx = h.ctx;
    e.src = h.src_comm_rank;
    e.tag = h.tag;
    e.bytes = h.total_bytes;
    e.arrival_order = h.match_mode == rt::MatchMode::ArrivalOrder;
    e.age_ns = age_of(now, arrived_ns);
    out.unexpected.push_back(e);
  });
  for (const QueuedSend& q : send_queue) {
    obs::SendQueueSnap e;
    e.dst_world = q.dst_world;
    e.tag = q.pkt->hdr.tag;
    e.bytes = q.pkt->hdr.total_bytes;
    e.age_ns = age_of(now, q.enq_ts);
    out.send_queue.push_back(e);
  }
}

obs::RankSnapshot Engine::snapshot() const {
  obs::RankSnapshot s;
  const std::uint64_t now = obs::lat_now_ns();
  s.rank = self_;
  s.live_requests = live_requests();
  s.blocking_call = blocking_call();
  if (s.blocking_call != nullptr) {
    s.blocked_ns = age_of(now, blocking_since_ns());
  }
  // A hang report is far more actionable when it names the application phase
  // the rank was in (obs/profiler.hpp).
  if (prof_ != nullptr) s.phase = prof_->owner().phase_name(prof_->cur_phase());

  // Reverse map matcher context ids to communicator handles: a communicator
  // owns ctx (pt2pt) and ctx + 1 (collective plane).
  std::vector<std::pair<std::uint32_t, Comm>> ctx_map;
  for (std::uint32_t i = 0; i < comms_.size(); ++i) {
    const CommObject* c = comms_.at(i);
    if (c == nullptr || !c->in_use.load(std::memory_order_acquire)) continue;
    ctx_map.emplace_back(c->ctx, make_handle(HandleKind::Comm, i));
  }
  const auto comm_of_ctx = [&ctx_map](std::uint32_t ctx) -> Comm {
    for (const auto& [base, comm] : ctx_map) {
      if (ctx == base || ctx == base + 1) return comm;
    }
    return kCommNull;
  };

  std::uint64_t oldest_ts = 0;
  for (int vi = 0; vi < num_vcis(); ++vi) {
    const Vci& v = *vcis_[static_cast<std::size_t>(vi)];
    std::lock_guard<std::recursive_mutex> lk(v.mu);
    obs::VciSnapshot vs;
    vs.vci = vi;
    v.snapshot_into(vs, now);
    for (obs::QueueEntrySnap& e : vs.posted) e.comm = comm_of_ctx(e.ctx);
    for (obs::QueueEntrySnap& e : vs.unexpected) e.comm = comm_of_ctx(e.ctx);

    // Oldest incomplete pt2pt request across all channels (stamped slots
    // only; an unstamped slot has no age to compare).
    for (std::uint32_t i = 0; i < v.pool.slots.size(); ++i) {
      const RequestSlot* slot = v.pool.slots.at(i);
      if (slot == nullptr || !slot->active.load(std::memory_order_acquire)) continue;
      if (slot->complete.load(std::memory_order_acquire)) continue;
      const RequestSlot::Kind k = slot->kind;
      if (k != RequestSlot::Kind::SendEager && k != RequestSlot::Kind::SendRdv &&
          k != RequestSlot::Kind::Recv && k != RequestSlot::Kind::RecvRdv) {
        continue;
      }
      if (slot->post_ts == 0) continue;
      if (s.oldest.valid && slot->post_ts >= oldest_ts) continue;
      oldest_ts = slot->post_ts;
      s.oldest.valid = true;
      s.oldest.kind = req_kind_name(k);
      s.oldest.comm = slot->comm;
      s.oldest.peer = slot->bound_peer;
      s.oldest.tag = slot->bound_tag;
      s.oldest.bytes = slot->bytes_expected;
      s.oldest.age_ns = age_of(now, slot->post_ts);
    }
    s.vcis.push_back(std::move(vs));
  }

  for (std::uint32_t i = 0; i < windows_.size(); ++i) {
    const WindowLocal* w = windows_.at(i);
    if (w == nullptr || !w->in_use.load(std::memory_order_acquire)) continue;
    obs::WinSnapshot ws;
    ws.win_id = w->win_id.load(std::memory_order_relaxed);
    switch (w->epoch.load(std::memory_order_relaxed)) {
      case WindowLocal::Epoch::None:
        ws.epoch = "none";
        break;
      case WindowLocal::Epoch::Fence:
        ws.epoch = "fence";
        break;
      case WindowLocal::Epoch::Lock:
        ws.epoch = "lock";
        break;
      case WindowLocal::Epoch::LockAll:
        ws.epoch = "lock_all";
        break;
      case WindowLocal::Epoch::Pscw:
        ws.epoch = "pscw";
        break;
    }
    ws.outstanding_acks = w->outstanding_acks.load(std::memory_order_relaxed);
    {
      // The deferred-op list mutates under the window's channel lock.
      std::lock_guard<std::recursive_mutex> lk(vcis_[w->vci]->mu);
      ws.pending_lock_ops = w->pending.size();
    }
    s.windows.push_back(ws);
  }

  // rdma credit state: how close each lane is to credit exhaustion, plus the
  // registration cache -- the two stall sources unique to this backend. The
  // block stays invalid (and unrendered) on backends without the mechanism.
  if (fabric_.rdma_capable()) {
    s.rdma.valid = true;
    const int depth =
        fabric_.profile().rdma_ring_depth < 1 ? 1 : fabric_.profile().rdma_ring_depth;
    for (int v = 0; v < fabric_.lanes_per_rank(); ++v) {
      obs::RdmaLaneSnap l;
      l.vci = v;
      l.credits_free = fabric_.net_stat(net::NetStat::RingCredits, self_, v);
      l.ring_depth = static_cast<std::uint64_t>(depth);
      l.occupancy_hwm = fabric_.net_stat(net::NetStat::RingOccupancyHwm, self_, v);
      s.rdma.lanes.push_back(l);
    }
    s.rdma.reg_cache_size = fabric_.net_stat(net::NetStat::RegCacheSize, self_);
    s.rdma.reg_hits = fabric_.net_stat(net::NetStat::RegCacheHit, self_);
    s.rdma.reg_misses = fabric_.net_stat(net::NetStat::RegCacheMiss, self_);
    s.rdma.reg_evictions = fabric_.net_stat(net::NetStat::RegCacheEviction, self_);
    s.rdma.ring_stalls = fabric_.net_stat(net::NetStat::RingStall, self_);
    s.rdma.ring_stall_ns = fabric_.net_stat(net::NetStat::RingStallNs, self_);
  }
  return s;
}

}  // namespace lwmpi

namespace lwmpi::obs {

namespace {

std::string fmt_age(std::uint64_t ns) {
  if (ns == 0) return "?";
  std::ostringstream o;
  o.setf(std::ios::fixed);
  const double ms = static_cast<double>(ns) / 1e6;
  if (ms < 1000.0) {
    o.precision(1);
    o << ms << "ms";
  } else {
    o.precision(2);
    o << ms / 1000.0 << "s";
  }
  return o.str();
}

std::string comm_name(Comm c) {
  if (c == kCommWorld) return "WORLD";
  if (c == kCommSelf) return "SELF";
  if (c == kCommNull) return "?";
  return "comm#" + std::to_string(handle_payload(c));
}

std::string rank_name(Rank r) {
  return r == kAnySource ? "*" : std::to_string(r);
}

std::string tag_name(Tag t) {
  return t == kAnyTag ? "*" : std::to_string(t);
}

void entry_text(std::ostringstream& o, const char* label, const QueueEntrySnap& e) {
  o << "    " << label << " comm=" << comm_name(e.comm) << " src=" << rank_name(e.src)
    << " tag=" << tag_name(e.tag) << " bytes=" << e.bytes << " age=" << fmt_age(e.age_ns);
  if (e.arrival_order) o << " [arrival-order]";
  o << '\n';
}

void entry_json(std::ostringstream& o, const QueueEntrySnap& e) {
  o << "{\"ctx\":" << e.ctx << ",\"comm\":" << json::quote(comm_name(e.comm))
    << ",\"src\":" << e.src << ",\"tag\":" << e.tag << ",\"bytes\":" << e.bytes
    << ",\"age_ns\":" << e.age_ns
    << ",\"arrival_order\":" << (e.arrival_order ? "true" : "false") << '}';
}

}  // namespace

std::string render_text(const RankSnapshot& s) {
  std::ostringstream o;
  o << "rank " << s.rank << ": ";
  if (s.blocking_call != nullptr) {
    o << "blocked in " << s.blocking_call << " for " << fmt_age(s.blocked_ns);
  } else {
    o << "not in a blocking call";
  }
  o << " (" << s.live_requests << " live request" << (s.live_requests == 1 ? "" : "s")
    << ")";
  if (!s.phase.empty()) o << " [phase " << s.phase << ']';
  o << '\n';
  if (s.oldest.valid) {
    o << "  oldest: " << s.oldest.kind << " comm=" << comm_name(s.oldest.comm)
      << " peer=" << rank_name(s.oldest.peer) << " tag=" << tag_name(s.oldest.tag)
      << " bytes=" << s.oldest.bytes << " age=" << fmt_age(s.oldest.age_ns) << '\n';
  }
  for (const VciSnapshot& v : s.vcis) {
    if (v.posted.empty() && v.unexpected.empty() && v.send_queue.empty()) continue;
    o << "  vci " << v.vci << ": posted=" << v.posted.size()
      << " unexpected=" << v.unexpected.size() << " sendq=" << v.send_queue.size() << '\n';
    for (const QueueEntrySnap& e : v.posted) entry_text(o, "posted:    ", e);
    for (const QueueEntrySnap& e : v.unexpected) entry_text(o, "unexpected:", e);
    for (const SendQueueSnap& e : v.send_queue) {
      o << "    sendq:      dst=" << e.dst_world << " tag=" << e.tag << " bytes=" << e.bytes
        << " age=" << fmt_age(e.age_ns) << '\n';
    }
  }
  for (const WinSnapshot& w : s.windows) {
    o << "  win " << w.win_id << ": epoch=" << w.epoch << " acks=" << w.outstanding_acks
      << " deferred=" << w.pending_lock_ops << '\n';
  }
  if (s.rdma.valid) {
    o << "  rdma: reg_cache=" << s.rdma.reg_cache_size << " (hits=" << s.rdma.reg_hits
      << " misses=" << s.rdma.reg_misses << " evictions=" << s.rdma.reg_evictions
      << ") ring_stalls=" << s.rdma.ring_stalls << " (" << fmt_age(s.rdma.ring_stall_ns)
      << ")\n";
    for (const RdmaLaneSnap& l : s.rdma.lanes) {
      o << "    ring vci=" << l.vci << ": credits=" << l.credits_free << "/"
        << l.ring_depth << " occupancy_hwm=" << l.occupancy_hwm;
      if (l.credits_free == 0) o << " [EXHAUSTED]";
      o << '\n';
    }
  }
  return o.str();
}

std::string render_json(const RankSnapshot& s) {
  std::ostringstream o;
  o << "{\"rank\":" << s.rank << ",\"live_requests\":" << s.live_requests
    << ",\"blocking_call\":"
    << (s.blocking_call != nullptr ? json::quote(s.blocking_call) : "null")
    << ",\"blocked_ns\":" << s.blocked_ns
    << ",\"phase\":" << (!s.phase.empty() ? json::quote(s.phase) : "null");
  o << ",\"oldest\":";
  if (s.oldest.valid) {
    o << "{\"kind\":" << json::quote(s.oldest.kind)
      << ",\"comm\":" << json::quote(comm_name(s.oldest.comm))
      << ",\"peer\":" << s.oldest.peer << ",\"tag\":" << s.oldest.tag
      << ",\"bytes\":" << s.oldest.bytes << ",\"age_ns\":" << s.oldest.age_ns << '}';
  } else {
    o << "null";
  }
  o << ",\"vcis\":[";
  for (std::size_t i = 0; i < s.vcis.size(); ++i) {
    const VciSnapshot& v = s.vcis[i];
    o << (i == 0 ? "" : ",") << "{\"vci\":" << v.vci << ",\"posted\":[";
    for (std::size_t j = 0; j < v.posted.size(); ++j) {
      if (j != 0) o << ',';
      entry_json(o, v.posted[j]);
    }
    o << "],\"unexpected\":[";
    for (std::size_t j = 0; j < v.unexpected.size(); ++j) {
      if (j != 0) o << ',';
      entry_json(o, v.unexpected[j]);
    }
    o << "],\"send_queue\":[";
    for (std::size_t j = 0; j < v.send_queue.size(); ++j) {
      const SendQueueSnap& e = v.send_queue[j];
      o << (j == 0 ? "" : ",") << "{\"dst\":" << e.dst_world << ",\"tag\":" << e.tag
        << ",\"bytes\":" << e.bytes << ",\"age_ns\":" << e.age_ns << '}';
    }
    o << "]}";
  }
  o << "],\"windows\":[";
  for (std::size_t i = 0; i < s.windows.size(); ++i) {
    const WinSnapshot& w = s.windows[i];
    o << (i == 0 ? "" : ",") << "{\"win_id\":" << w.win_id
      << ",\"epoch\":" << json::quote(w.epoch) << ",\"outstanding_acks\":" << w.outstanding_acks
      << ",\"deferred_ops\":" << w.pending_lock_ops << '}';
  }
  o << "],\"rdma\":";
  if (s.rdma.valid) {
    o << "{\"reg_cache_size\":" << s.rdma.reg_cache_size
      << ",\"reg_hits\":" << s.rdma.reg_hits << ",\"reg_misses\":" << s.rdma.reg_misses
      << ",\"reg_evictions\":" << s.rdma.reg_evictions
      << ",\"ring_stalls\":" << s.rdma.ring_stalls
      << ",\"ring_stall_ns\":" << s.rdma.ring_stall_ns << ",\"lanes\":[";
    for (std::size_t i = 0; i < s.rdma.lanes.size(); ++i) {
      const RdmaLaneSnap& l = s.rdma.lanes[i];
      o << (i == 0 ? "" : ",") << "{\"vci\":" << l.vci
        << ",\"credits_free\":" << l.credits_free << ",\"ring_depth\":" << l.ring_depth
        << ",\"occupancy_hwm\":" << l.occupancy_hwm << '}';
    }
    o << "]}";
  } else {
    o << "null";
  }
  o << '}';
  return o.str();
}

}  // namespace lwmpi::obs
