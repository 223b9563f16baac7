#include "apps/replay.hpp"

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <cstring>
#include <fstream>
#include <mutex>
#include <sstream>
#include <unordered_map>

#include "core/engine.hpp"
#include "core/vci.hpp"
#include "obs/pvar.hpp"
#include "runtime/backoff.hpp"
#include "runtime/world.hpp"

namespace lwmpi::apps {

namespace {

// Minimal value extraction from the flat provenance sidecar. The two fields
// read here (netmod, device) are fixed backend names with nothing to escape.
// This is a key scan rather than an obs/json.hpp parse because every bundle
// load pays for it and replay benchmarks time bundle loads: a DOM parse of a
// 4-rank sidecar costs about 40x the scan (~10 us against ~0.25 us).
std::string sidecar_string(const std::string& text, const std::string& key) {
  const std::string needle = "\"" + key + "\":\"";
  const std::size_t at = text.find(needle);
  if (at == std::string::npos) return {};
  const std::size_t begin = at + needle.size();
  const std::size_t end = text.find('"', begin);
  if (end == std::string::npos) return {};
  return text.substr(begin, end - begin);
}

bool read_rank_file(const std::string& path, TraceRank* out) {
  std::ifstream in(path, std::ios::binary | std::ios::ate);
  if (!in) return false;
  const std::streamoff size = in.tellg();
  in.seekg(0);
  in.read(reinterpret_cast<char*>(&out->header), sizeof(out->header));
  if (in.gcount() != static_cast<std::streamsize>(sizeof(out->header))) return false;
  if (out->header.magic != obs::kLwtraceMagic ||
      out->header.version != obs::kLwtraceVersion) {
    return false;
  }
  // Size the records by the bytes present, not by the header's claim: a
  // short file (killed writer, partial copy) keeps its complete-record
  // prefix and is flagged.
  const auto present = static_cast<std::uint64_t>(size - in.tellg()) / sizeof(obs::DiskRec);
  if (present < out->header.nrecords) {
    out->header.nrecords = present;
    out->truncated = true;
  }
  out->records.resize(static_cast<std::size_t>(out->header.nrecords));
  in.read(reinterpret_cast<char*>(out->records.data()),
          static_cast<std::streamsize>(out->records.size() * sizeof(obs::DiskRec)));
  return true;
}

// Builtin datatype whose size matches the recorded element width (collective
// records stash it in the tag field; 0 = derived type, fall back to bytes).
Datatype dt_for_esize(std::int32_t esize) {
  switch (esize) {
    case 2: return kShort;
    case 4: return kInt;
    case 8: return kDouble;
    default: return kChar;
  }
}

std::uint64_t field(const obs::RecTotals& t, int i) {
  switch (i) {
    case 0: return t.sends_eager;
    case 1: return t.sends_rdv;
    case 2: return t.recvs_posted;
    case 3: return t.matches;
    case 4: return t.misses;
    case 5: return t.injected;
    default: return t.injected_bytes;
  }
}

// Per-rank replay state: outstanding requests keyed by the absolute op index
// of the call that issued them (what link distances resolve to), plus a
// buffer free-list so steady-state replay does not allocate.
struct RankState {
  struct Pending {
    Request req = kRequestNull;
    std::vector<std::byte> buf;
    bool persistent = false;
  };
  std::unordered_map<std::uint64_t, Pending> pending;
  std::vector<std::vector<std::byte>> pool;
  std::uint64_t replayed = 0;
  std::uint64_t skipped = 0;
  std::uint64_t timeouts = 0;

  std::vector<std::byte> acquire(std::size_t bytes) {
    if (!pool.empty()) {
      std::vector<std::byte> b = std::move(pool.back());
      pool.pop_back();
      if (b.capacity() >= bytes) {
        b.resize(bytes);
        return b;
      }
    }
    return std::vector<std::byte>(bytes);
  }
  void release(std::vector<std::byte>&& b) {
    if (pool.size() < 64) pool.push_back(std::move(b));
  }
};

// Deadline-bounded completion: test + (engine-internal) progress until the
// request finishes or the deadline passes. Returns false on timeout; the
// request is cancelled and abandoned so a truncated trace cannot wedge us.
bool bounded_wait(Engine& e, Request* req, std::uint64_t deadline, RankState& st) {
  rt::Backoff bo;
  while (*req != kRequestNull) {
    bool done = false;
    if (!ok(e.test(req, &done, nullptr))) return true;  // op error: reaped
    if (done) return true;
    if (rt::now_ns() > deadline) {
      ++st.timeouts;
      e.cancel(req);
      bool flag = false;
      e.test(req, &flag, nullptr);  // reap if the cancel landed instantly
      return false;
    }
    bo.pause();
  }
  return true;
}

void complete_pending(Engine& e, RankState& st, std::uint64_t issued_at,
                      std::uint64_t deadline) {
  auto it = st.pending.find(issued_at);
  if (it == st.pending.end()) return;  // issuer fell off the ring, or already done
  if (it->second.persistent) {
    bounded_wait(e, &it->second.req, deadline, st);  // completes the inner op
    return;  // handle stays live for the next start
  }
  bounded_wait(e, &it->second.req, deadline, st);
  st.release(std::move(it->second.buf));
  st.pending.erase(it);
}

// Consume the run of follower (aux) records of `kind` that immediately
// trails records[i]; returns the index of the last consumed record.
std::size_t follower_run(const std::vector<obs::DiskRec>& recs, std::size_t i,
                         std::uint8_t kind) {
  std::size_t j = i;
  while (j + 1 < recs.size() && recs[j + 1].kind == kind) ++j;
  return j;
}

void replay_rank(Engine& e, const TraceBundle& bundle, const TraceRank& tr,
                 const ReplayOptions& opts, bool coll_safe, RankState& st) {
  const std::uint64_t base = tr.base_index();
  const auto& recs = tr.records;

  for (std::size_t i = 0; i < recs.size(); ++i) {
    const obs::DiskRec& r = recs[i];
    const std::uint64_t abs = base + i;
    const auto deadline = rt::now_ns() + opts.stall_timeout_ns;
    // Re-create the recorded compute gap before issuing (sampled ops only;
    // unsampled records carry gap 0).
    if (opts.timescale > 0.0 && r.gap_ns != 0) {
      rt::spin_for_ns(static_cast<std::uint64_t>(r.gap_ns * opts.timescale));
    }

    const auto kind = static_cast<obs::Callsite>(r.kind);
    const std::uint64_t linked = r.link != 0 ? abs - r.link : ~0ull;
    using C = obs::Callsite;

    // Aux records are consumed by their header op below; a stray one (its
    // header was the last op before truncation ate the followers' issuers)
    // is harmless to skip.
    if (r.kind == obs::kRecKindSendrecvRecv || r.kind == obs::kRecKindWaitItem) {
      continue;
    }
    ++st.replayed;

    switch (kind) {
      case C::Isend:
      case C::IsendNpn: {
        RankState::Pending p;
        p.buf = st.acquire(r.bytes);
        Err err = kind == C::Isend
                      ? e.isend(p.buf.data(), static_cast<int>(r.bytes), kChar, r.peer,
                                r.tag, kCommWorld, &p.req)
                      : e.isend_npn(p.buf.data(), static_cast<int>(r.bytes), kChar,
                                    r.peer, r.tag, kCommWorld, &p.req);
        if (ok(err)) st.pending.emplace(abs, std::move(p));
        break;
      }
      case C::IsendGlobal: {
        RankState::Pending p;
        p.buf = st.acquire(r.bytes);
        if (ok(e.isend_global(p.buf.data(), static_cast<int>(r.bytes), kChar, r.peer,
                              r.tag, kCommWorld, &p.req))) {
          st.pending.emplace(abs, std::move(p));
        }
        break;
      }
      case C::IsendNomatch: {
        RankState::Pending p;
        p.buf = st.acquire(r.bytes);
        if (ok(e.isend_nomatch(p.buf.data(), static_cast<int>(r.bytes), kChar, r.peer,
                               kCommWorld, &p.req))) {
          st.pending.emplace(abs, std::move(p));
        }
        break;
      }
      case C::Irecv: {
        RankState::Pending p;
        p.buf = st.acquire(r.bytes);
        if (ok(e.irecv(p.buf.data(), static_cast<int>(r.bytes), kChar, r.peer, r.tag,
                       kCommWorld, &p.req))) {
          st.pending.emplace(abs, std::move(p));
        }
        break;
      }
      case C::IrecvNomatch: {
        RankState::Pending p;
        p.buf = st.acquire(r.bytes);
        if (ok(e.irecv_nomatch(p.buf.data(), static_cast<int>(r.bytes), kChar,
                               kCommWorld, &p.req))) {
          st.pending.emplace(abs, std::move(p));
        }
        break;
      }
      case C::IsendNoreq: {
        std::vector<std::byte> buf = st.acquire(r.bytes);
        e.isend_noreq(buf.data(), static_cast<int>(r.bytes), kChar, r.peer, r.tag,
                      kCommWorld);
        // The engine owns delivery; the payload is copied eagerly, so the
        // buffer can be recycled immediately.
        st.release(std::move(buf));
        break;
      }
      case C::Send: {
        // Blocking forms decompose into nonblocking + bounded completion.
        std::vector<std::byte> buf = st.acquire(r.bytes);
        Request req = kRequestNull;
        if (ok(e.isend(buf.data(), static_cast<int>(r.bytes), kChar, r.peer, r.tag,
                       kCommWorld, &req))) {
          bounded_wait(e, &req, deadline, st);
        }
        st.release(std::move(buf));
        break;
      }
      case C::Recv: {
        std::vector<std::byte> buf = st.acquire(r.bytes);
        Request req = kRequestNull;
        if (ok(e.irecv(buf.data(), static_cast<int>(r.bytes), kChar, r.peer, r.tag,
                       kCommWorld, &req))) {
          bounded_wait(e, &req, deadline, st);
        }
        st.release(std::move(buf));
        break;
      }
      case C::Sendrecv: {
        // The recv half rides as an aux record right behind the header.
        std::vector<std::byte> sbuf = st.acquire(r.bytes);
        Request sreq = kRequestNull;
        Request rreq = kRequestNull;
        std::vector<std::byte> rbuf;
        if (i + 1 < recs.size() && recs[i + 1].kind == obs::kRecKindSendrecvRecv) {
          const obs::DiskRec& rr = recs[i + 1];
          rbuf = st.acquire(rr.bytes);
          e.irecv(rbuf.data(), static_cast<int>(rr.bytes), kChar, rr.peer, rr.tag,
                  kCommWorld, &rreq);
          ++i;
        }
        if (ok(e.isend(sbuf.data(), static_cast<int>(r.bytes), kChar, r.peer, r.tag,
                       kCommWorld, &sreq))) {
          bounded_wait(e, &sreq, deadline, st);
        }
        if (rreq != kRequestNull) bounded_wait(e, &rreq, deadline, st);
        st.release(std::move(sbuf));
        if (!rbuf.empty() || rreq != kRequestNull) st.release(std::move(rbuf));
        break;
      }
      case C::Wait:
      case C::Test:
      case C::Waitany:
      case C::Testany:
        // All four recorded the request they completed; re-complete it.
        if (linked != ~0ull) complete_pending(e, st, linked, deadline);
        break;
      case C::Waitall:
      case C::Testall:
      case C::Startall: {
        const std::size_t last = follower_run(recs, i, obs::kRecKindWaitItem);
        for (std::size_t j = i + 1; j <= last; ++j) {
          const obs::DiskRec& item = recs[j];
          if (item.link == 0) continue;
          const std::uint64_t at = base + j - item.link;
          if (kind == C::Startall) {
            auto it = st.pending.find(at);
            if (it != st.pending.end()) e.start(&it->second.req);
          } else {
            complete_pending(e, st, at, deadline);
          }
        }
        i = last;
        break;
      }
      case C::Iprobe:
      case C::Probe: {
        // Recorded only on a hit, so loop until the message shows (bounded).
        rt::Backoff bo;
        bool hit = false;
        while (!hit && rt::now_ns() <= deadline) {
          if (!ok(e.iprobe(r.peer, r.tag, kCommWorld, &hit, nullptr))) break;
          if (!hit) bo.pause();
        }
        if (!hit) ++st.timeouts;
        break;
      }
      case C::Cancel:
        if (linked != ~0ull) {
          auto it = st.pending.find(linked);
          if (it != st.pending.end()) e.cancel(&it->second.req);
        }
        break;
      case C::CommWaitall:
        if (coll_safe) {
          e.comm_waitall(kCommWorld);
        } else {
          --st.replayed;
          ++st.skipped;
        }
        break;
      case C::SendInit:
      case C::RecvInit: {
        RankState::Pending p;
        p.persistent = true;
        p.buf = st.acquire(r.bytes);
        Err err = kind == C::SendInit
                      ? e.send_init(p.buf.data(), static_cast<int>(r.bytes), kChar,
                                    r.peer, r.tag, kCommWorld, &p.req)
                      : e.recv_init(p.buf.data(), static_cast<int>(r.bytes), kChar,
                                    r.peer, r.tag, kCommWorld, &p.req);
        if (ok(err)) st.pending.emplace(abs, std::move(p));
        break;
      }
      case C::Start:
        if (linked != ~0ull) {
          auto it = st.pending.find(linked);
          if (it != st.pending.end()) e.start(&it->second.req);
        }
        break;
      case C::Barrier:
      case C::Bcast:
      case C::Reduce:
      case C::Allreduce:
      case C::Gather:
      case C::Allgather:
      case C::Scatter:
      case C::Alltoall:
      case C::Scan:
      case C::ReduceScatterBlock: {
        if (!coll_safe) {
          --st.replayed;
          ++st.skipped;
          break;
        }
        const Datatype dt = r.tag > 0 ? dt_for_esize(r.tag) : kChar;
        const std::uint32_t esize =
            r.tag > 0 ? static_cast<std::uint32_t>(r.tag) : 1u;
        const int count = static_cast<int>(r.bytes / esize);
        const std::size_t per = static_cast<std::size_t>(r.bytes);
        const std::size_t all = per * static_cast<std::size_t>(bundle.nranks);
        std::vector<std::byte> a = st.acquire(kind == C::Scatter || kind == C::Alltoall
                                                  ? all
                                                  : (kind == C::ReduceScatterBlock
                                                         ? all  // reduce input is count*p
                                                         : per));
        std::vector<std::byte> b = st.acquire(
            kind == C::Gather || kind == C::Allgather || kind == C::Alltoall ? all : per);
        switch (kind) {
          case C::Barrier: e.barrier(kCommWorld); break;
          case C::Bcast: e.bcast(a.data(), count, dt, r.peer, kCommWorld); break;
          case C::Reduce:
            e.reduce(a.data(), b.data(), count, dt, ReduceOp::Sum, r.peer, kCommWorld);
            break;
          case C::Allreduce:
            e.allreduce(a.data(), b.data(), count, dt, ReduceOp::Sum, kCommWorld);
            break;
          case C::Scan:
            e.scan(a.data(), b.data(), count, dt, ReduceOp::Sum, kCommWorld);
            break;
          case C::Gather:
            e.gather(a.data(), count, dt, b.data(), count, dt, r.peer, kCommWorld);
            break;
          case C::Allgather:
            e.allgather(a.data(), count, dt, b.data(), count, dt, kCommWorld);
            break;
          case C::Scatter:
            e.scatter(a.data(), count, dt, b.data(), count, dt, r.peer, kCommWorld);
            break;
          case C::Alltoall:
            e.alltoall(a.data(), count, dt, b.data(), count, dt, kCommWorld);
            break;
          case C::ReduceScatterBlock:
            e.reduce_scatter_block(a.data(), b.data(), count, dt, ReduceOp::Sum,
                                   kCommWorld);
            break;
          default: break;
        }
        st.release(std::move(a));
        st.release(std::move(b));
        break;
      }
      default:
        // v-collectives, isend_all_opts, and all RMA: argument vectors or
        // window geometry are not in the trace.
        --st.replayed;
        ++st.skipped;
        break;
    }
  }

  // Drain: a complete trace paired every request with a completion record,
  // but truncated traces (and cancel-without-wait apps) can leave stragglers.
  const std::uint64_t drain_deadline = rt::now_ns() + opts.stall_timeout_ns;
  for (auto& [idx, p] : st.pending) {
    if (bounded_wait(e, &p.req, drain_deadline, st) && p.persistent) {
      e.request_free(&p.req);
    }
  }
  st.pending.clear();
}

}  // namespace

bool TraceBundle::complete() const noexcept {
  if (ranks.empty() || static_cast<int>(ranks.size()) != nranks) return false;
  for (const TraceRank& r : ranks) {
    if (r.truncated || r.header.total_ops != r.header.nrecords) return false;
  }
  return true;
}

bool load_trace(const std::string& prefix, TraceBundle* out, std::string* err) {
  *out = TraceBundle{};
  const auto fail = [&](const std::string& why) {
    *out = TraceBundle{};
    if (err != nullptr) *err = why;
    return false;
  };
  TraceRank first;
  const std::string rank0 = prefix + ".rank0.lwtrace";
  if (!read_rank_file(rank0, &first)) return fail("cannot read " + rank0);
  const obs::LwtraceHeader& h0 = first.header;
  // The header sizes the replay World: nranks rank threads, nvcis channels.
  if (h0.nranks > static_cast<std::uint32_t>(kMaxTraceRanks)) {
    return fail(rank0 + ": header names " + std::to_string(h0.nranks) +
                " ranks, above the cap kMaxTraceRanks = " + std::to_string(kMaxTraceRanks));
  }
  if (h0.rank != 0 || h0.nranks == 0 || h0.nvcis == 0 ||
      h0.nvcis > static_cast<std::uint32_t>(kMaxVcis)) {
    return fail(rank0 + ": header names rank " + std::to_string(h0.rank) + " of " +
                std::to_string(h0.nranks) + " with " + std::to_string(h0.nvcis) + " vcis");
  }
  out->nranks = static_cast<int>(h0.nranks);
  out->nvcis = static_cast<int>(h0.nvcis);
  out->eager_threshold = h0.eager_threshold;
  out->sample_shift = h0.sample_shift;
  out->ranks.push_back(std::move(first));
  for (int r = 1; r < out->nranks; ++r) {
    TraceRank tr;
    const std::string path = prefix + ".rank" + std::to_string(r) + ".lwtrace";
    if (!read_rank_file(path, &tr)) {
      // Missing rank file: treat as an empty, truncated slice so the replay
      // still runs the ranks it has records for.
      tr.header = out->ranks[0].header;
      tr.header.rank = static_cast<std::uint32_t>(r);
      tr.header.nrecords = 0;
      tr.header.total_ops = 0;
      tr.records.clear();
      tr.truncated = true;
    } else if (tr.header.rank != static_cast<std::uint32_t>(r) ||
               tr.header.nranks != out->ranks[0].header.nranks ||
               tr.header.nvcis != out->ranks[0].header.nvcis) {
      return fail(path + ": header (rank " + std::to_string(tr.header.rank) + " of " +
                  std::to_string(tr.header.nranks) + ", " + std::to_string(tr.header.nvcis) +
                  " vcis) contradicts rank 0's");
    }
    out->ranks.push_back(std::move(tr));
  }
  std::ifstream side(prefix + ".json");
  if (side) {
    std::stringstream ss;
    ss << side.rdbuf();
    const std::string text = ss.str();
    out->netmod = sidecar_string(text, "netmod");
    out->device = sidecar_string(text, "device");
  }
  return true;
}

ReplayResult run_replay(const TraceBundle& bundle, const ReplayOptions& opts) {
  ReplayResult res;
  if (bundle.nranks <= 0 || bundle.ranks.empty()) return res;

  WorldOptions wo;
  wo.netmod = !opts.netmod.empty() ? opts.netmod
                                   : (!bundle.netmod.empty() ? bundle.netmod : "mailbox");
  wo.device = opts.device;
  wo.build.num_vcis = bundle.nvcis;
  wo.build.counters = true;  // fidelity is diffed through the pvar counters
  if (bundle.eager_threshold != 0) {
    wo.eager_threshold = static_cast<std::size_t>(bundle.eager_threshold);
  }
  res.netmod = wo.netmod;

  const bool coll_safe = bundle.complete();
  std::vector<RankState> states(static_cast<std::size_t>(bundle.nranks));

  World world(bundle.nranks, wo);
  const std::uint64_t t0 = rt::now_ns();
  world.run([&](Engine& e) {
    const auto r = static_cast<std::size_t>(e.world_rank());
    replay_rank(e, bundle, bundle.ranks[r], opts, coll_safe, states[r]);
  });
  res.wall_ns = rt::now_ns() - t0;
  res.ok = true;

  for (const RankState& s : states) {
    res.replayed += s.replayed;
    res.skipped += s.skipped;
    res.timeouts += s.timeouts;
  }

  // Fidelity: recorded totals live in each rank's trace header; measured
  // totals come from the replay world's counters. Engine-level totals must
  // match exactly on a complete bundle. Fabric injection totals are only
  // comparable when the replay ran on the recording's netmod (packetization
  // differs across backends).
  static const char* kNames[] = {"sends_eager", "sends_rdv",      "recvs_posted",
                                 "matches",     "misses",         "injected",
                                 "injected_bytes"};
  const bool same_netmod = !bundle.netmod.empty() && wo.netmod == bundle.netmod;
  res.fidelity_checked = coll_safe;
  res.fidelity_ok = coll_safe;
  res.fabric_checked = coll_safe && same_netmod;
  res.fabric_ok = res.fabric_checked;
  for (int r = 0; r < bundle.nranks; ++r) {
    obs::RecTotals rec;
    std::memcpy(&rec, bundle.ranks[static_cast<std::size_t>(r)].header.totals,
                sizeof(rec));
    const obs::RecTotals got = obs::read_rec_totals(world.engine(r));
    res.recorded.push_back(rec);
    res.measured.push_back(got);
    if (!res.fidelity_checked) continue;
    for (int f = 0; f < 7; ++f) {
      std::uint64_t want = field(rec, f);
      std::uint64_t have = field(got, f);
      const bool fabric_field = f >= 5;
      if (f == 3 || f == 4) {
        // The match/miss split depends on arrival timing; only the sum is
        // deterministic. Compare it once, on the `matches` slot.
        if (f == 4) continue;
        want = rec.matches + rec.misses;
        have = got.matches + got.misses;
      }
      if (want == have) continue;
      if (fabric_field && !res.fabric_checked) continue;
      std::ostringstream d;
      d << "rank " << r << " " << (f == 3 ? "matches+misses" : kNames[f])
        << ": recorded " << want << " replayed " << have;
      res.diffs.push_back(d.str());
      if (fabric_field) {
        res.fabric_ok = false;
      } else {
        res.fidelity_ok = false;
      }
    }
  }

  // Requested pvar readings from the replay world (histogram percentiles,
  // wait-state mix, ...). Counter-style names (_count suffix) sum across
  // ranks; distribution-style names (percentiles, maxima) report the worst
  // rank -- a cross-rank percentile sum would be meaningless.
  for (const std::string& name : opts.capture_pvars) {
    const int idx = obs::LWMPI_T_pvar_index(name.c_str());
    const bool summed = name.size() >= 6 &&
                        name.compare(name.size() - 6, 6, "_count") == 0;
    std::uint64_t agg = 0;
    for (int r = 0; r < bundle.nranks; ++r) {
      obs::PvarSession s;
      obs::LWMPI_T_pvar_session_create(world.engine(r), &s);
      std::uint64_t v = 0;
      obs::LWMPI_T_pvar_read(s, idx, &v);
      obs::LWMPI_T_pvar_session_free(&s);
      agg = summed ? agg + v : std::max(agg, v);
    }
    res.pvars.emplace_back(name, agg);
  }
  return res;
}

}  // namespace lwmpi::apps
