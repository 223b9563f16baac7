#include "obs/causal.hpp"

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <istream>
#include <ostream>
#include <sstream>
#include <string>
#include <unordered_map>

#include "obs/json.hpp"

namespace lwmpi::obs {

const char* to_string(Wait w) noexcept {
  switch (w) {
    case Wait::None: return "none";
    case Wait::LateSender: return "late-sender";
    case Wait::LateReceiver: return "late-receiver";
    case Wait::ProgressStarved: return "progress-starved";
    case Wait::CreditStalled: return "credit-stalled";
    case Wait::RegCacheMiss: return "reg-cache-miss";
  }
  return "?";
}

std::optional<Wait> wait_from_string(std::string_view s) noexcept {
  for (Wait w : {Wait::None, Wait::LateSender, Wait::LateReceiver, Wait::ProgressStarved,
                 Wait::CreditStalled, Wait::RegCacheMiss}) {
    if (s == to_string(w)) return w;
  }
  return std::nullopt;
}

Wait classify_wait(std::uint64_t posted_ns, std::uint64_t send_ns, std::uint64_t stall_ns,
                   std::uint64_t now_ns, std::uint64_t* wait_ns) noexcept {
  if (wait_ns) *wait_ns = 0;
  // Either side unstamped: the message fell outside the latency sample (or a
  // pre-causal packet). Nothing defensible to attribute.
  if (posted_ns == 0 || send_ns == 0) return Wait::None;

  const std::uint64_t first = std::min(posted_ns, send_ns);
  const std::uint64_t ready = std::max(posted_ns, send_ns);
  const std::uint64_t wait = now_ns > first ? now_ns - first : 0;
  if (wait_ns) *wait_ns = wait;

  const std::uint64_t lag_sender = send_ns > posted_ns ? send_ns - posted_ns : 0;
  const std::uint64_t lag_recv = posted_ns > send_ns ? posted_ns - send_ns : 0;
  // Time both sides were ready yet the message still wasn't matched. The
  // credit stall is spent inside that window (the sender busy-waits after
  // stamping); whatever it doesn't explain is a progress/wire residual. If
  // the receiver showed up later than the stall ended, the stall overlapped
  // the receiver's absence and lag_recv rightly dominates.
  const std::uint64_t post_ready = now_ns > ready ? now_ns - ready : 0;
  const std::uint64_t credit = std::min<std::uint64_t>(stall_ns, post_ready);
  const std::uint64_t starve = post_ready - credit;

  struct Component {
    std::uint64_t v;
    Wait w;
  };
  const Component comp[] = {
      {credit, Wait::CreditStalled},
      {lag_sender, Wait::LateSender},
      {lag_recv, Wait::LateReceiver},
      {starve, Wait::ProgressStarved},
  };
  std::uint64_t best = 0;
  Wait w = Wait::None;
  for (const Component& c : comp) {
    if (c.v > best) {
      best = c.v;
      w = c.w;
    }
  }
  return w;
}

namespace causal {

namespace {

using trace::Ev;
using trace::Event;

// Lifecycle order for equal-timestamp ties, mirroring the exporter's rule.
int stage_order(Ev e) noexcept {
  switch (e) {
    case Ev::SendPost:
    case Ev::RecvPost: return 0;
    case Ev::Inject: return 1;
    case Ev::Deliver: return 2;
    case Ev::ZcopyWrite: return 2;
    case Ev::Match: return 3;
    case Ev::Complete: return 4;
    case Ev::Alert: return 5;
  }
  return 5;
}

// Global merge order: timestamps are process-wide (all ranks share one steady
// clock), so ts is primary; the Lamport clock breaks ties causally for events
// recorded in the same nanosecond, then lifecycle stage, then seq.
bool merged_before(const Event& a, const Event& b) noexcept {
  if (a.ts_ns != b.ts_ns) return a.ts_ns < b.ts_ns;
  if (a.lclock != b.lclock) return a.lclock < b.lclock;
  if (a.seq != b.seq) return a.seq < b.seq;
  return stage_order(a.kind) < stage_order(b.kind);
}

struct MatchInfo {
  Wait wait = Wait::None;
  std::uint64_t wait_ns = 0;
};

// `post_wait` is the classification of the next Match on `to`'s rank -- the
// message a RecvPost eventually paired with. RecvPost events carry seq 0 (the
// receiver cannot know the sender-assigned id before the match), so blame for
// the gap in front of a late post has to come from that lookahead instead of
// the seq table.
const char* categorize(const Event& from, const Event& to, Wait post_wait,
                       const std::unordered_map<std::uint64_t, MatchInfo>& matches) {
  auto wait_of = [&](std::uint64_t seq) {
    auto it = matches.find(seq);
    return it == matches.end() ? Wait::None : it->second.wait;
  };
  if (from.rank != to.rank) {
    // Cross-rank (wire) edge: an Inject binding a Deliver. Refine by how the
    // receiver classified this message's wait.
    const Wait w = wait_of(to.seq);
    if (w == Wait::CreditStalled) return "credit_stalled";
    if (w == Wait::ProgressStarved) return "progress_starved";
    return "wire";
  }
  if (to.seq != 0 && from.seq == to.seq) {
    // Software path inside one message's lifecycle.
    switch (to.kind) {
      case Ev::Match:
        return wait_of(to.seq) == Wait::LateReceiver ? "late_receiver" : "sw_match";
      case Ev::Inject: return "sw_inject";
      case Ev::Deliver: return "sw_progress";
      case Ev::ZcopyWrite: return "sw_zcopy";
      case Ev::Complete: return "sw_complete";
      default: return "sw";
    }
  }
  // Application gap between messages on one rank. If the next message's
  // receiver blamed this side, surface that blame here: the gap before a
  // SendPost of a late-sender message *is* the late-sender time.
  if (to.kind == Ev::SendPost && wait_of(to.seq) == Wait::LateSender) return "late_sender";
  if (to.kind == Ev::RecvPost && post_wait == Wait::LateReceiver) return "late_receiver";
  return "app";
}

}  // namespace

Analysis analyze(std::span<const Event> events) {
  Analysis a;
  if (events.empty()) return a;

  std::vector<Event> ev(events.begin(), events.end());
  std::stable_sort(ev.begin(), ev.end(), merged_before);
  a.events = ev.size();
  a.span_ns = ev.back().ts_ns - ev.front().ts_ns;

  // Indexes: per-rank event positions, per-seq match classification, and the
  // set of distinct messages.
  std::unordered_map<std::int32_t, std::vector<std::size_t>> by_rank;
  std::unordered_map<std::uint64_t, MatchInfo> matches;
  std::vector<std::size_t> rank_pos(ev.size(), 0);  // position within by_rank list
  {
    std::unordered_map<std::uint64_t, bool> seen_seq;
    for (std::size_t i = 0; i < ev.size(); ++i) {
      auto& lst = by_rank[ev[i].rank];
      rank_pos[i] = lst.size();
      lst.push_back(i);
      if (ev[i].seq != 0) seen_seq[ev[i].seq] = true;
      if (ev[i].kind == Ev::Match && ev[i].seq != 0) {
        matches[ev[i].seq] = MatchInfo{static_cast<Wait>(ev[i].wait), ev[i].wait_ns};
      }
    }
    a.messages = seen_seq.size();
  }

  // Per-RecvPost lookahead: the wait classification of the next Match on the
  // same rank (see categorize).
  std::vector<Wait> post_wait(ev.size(), Wait::None);
  for (const auto& [rank, lst] : by_rank) {
    Wait next = Wait::None;
    for (std::size_t k = lst.size(); k-- > 0;) {
      const Event& e = ev[lst[k]];
      if (e.kind == Ev::Match && e.seq != 0) {
        next = static_cast<Wait>(e.wait);
      } else if (e.kind == Ev::RecvPost) {
        post_wait[lst[k]] = next;
      }
    }
  }

  // Backward walk from the last event. At each step the predecessor is the
  // *binding constraint*: the latest of (previous event on this rank, the
  // matching Inject on the peer for a Deliver). Global sort order guarantees
  // the predecessor index strictly decreases, so the walk terminates.
  std::vector<PathEdge> path;
  std::size_t cur = ev.size() - 1;
  while (cur > 0) {
    const Event& e = ev[cur];
    bool have_pred = false;
    std::size_t pred = 0;

    if (rank_pos[cur] > 0) {
      pred = by_rank[e.rank][rank_pos[cur] - 1];
      have_pred = true;
    }
    if (e.kind == Ev::Deliver && e.seq != 0) {
      // Matching inject: same seq, recorded by the peer, not after us.
      std::size_t best_inj = 0;
      bool found = false;
      for (std::size_t j = cur; j-- > 0;) {
        const Event& c = ev[j];
        if (c.kind == Ev::Inject && c.seq == e.seq && c.rank == e.peer) {
          best_inj = j;
          found = true;
          break;
        }
      }
      if (found && (!have_pred || ev[best_inj].ts_ns >= ev[pred].ts_ns)) {
        pred = best_inj;
        have_pred = true;
      }
    }
    if (!have_pred || pred >= cur) break;

    const Event& p = ev[pred];
    PathEdge edge;
    edge.from_ts = p.ts_ns;
    edge.to_ts = e.ts_ns;
    edge.dur_ns = e.ts_ns >= p.ts_ns ? e.ts_ns - p.ts_ns : 0;
    edge.seq = e.seq;
    edge.rank = p.rank == e.rank ? e.rank : -1;
    edge.category = categorize(p, e, post_wait[cur], matches);
    path.push_back(edge);
    cur = pred;
  }
  std::reverse(path.begin(), path.end());
  a.path = std::move(path);

  // Category totals, descending.
  {
    std::vector<CategoryCost> costs;
    for (const PathEdge& e : a.path) {
      auto it = std::find_if(costs.begin(), costs.end(), [&](const CategoryCost& c) {
        return std::string_view(c.category) == e.category;
      });
      if (it == costs.end()) {
        costs.push_back({e.category, e.dur_ns, 1});
      } else {
        it->total_ns += e.dur_ns;
        ++it->edges;
      }
    }
    std::sort(costs.begin(), costs.end(),
              [](const CategoryCost& x, const CategoryCost& y) {
                return x.total_ns > y.total_ns;
              });
    a.by_category = std::move(costs);
  }

  // Per-rank slack: span minus the critical-path time spent on that rank.
  {
    std::unordered_map<std::int32_t, std::uint64_t> on_path;
    for (const auto& [rank, lst] : by_rank) on_path.emplace(rank, 0);
    for (const PathEdge& e : a.path) {
      if (e.rank >= 0) on_path[e.rank] += e.dur_ns;
    }
    for (const auto& [rank, ns] : on_path) {
      RankSlack rs;
      rs.rank = rank;
      rs.on_path_ns = ns;
      rs.slack_ns = a.span_ns > ns ? a.span_ns - ns : 0;
      a.ranks.push_back(rs);
    }
    std::sort(a.ranks.begin(), a.ranks.end(),
              [](const RankSlack& x, const RankSlack& y) { return x.rank < y.rank; });
  }
  return a;
}

std::string render_text(const Analysis& a, std::size_t top_k) {
  std::ostringstream os;
  os << "== critical path ================================================\n";
  os << "span " << a.span_ns << " ns | events " << a.events << " | messages "
     << a.messages << " | path edges " << a.path.size() << "\n";

  os << "-- cost by category ---------------------------------------------\n";
  char line[160];
  std::snprintf(line, sizeof(line), "%-18s %14s %8s %7s\n", "category", "total_ns",
                "edges", "share");
  os << line;
  for (const CategoryCost& c : a.by_category) {
    const double share = a.span_ns ? 100.0 * static_cast<double>(c.total_ns) /
                                         static_cast<double>(a.span_ns)
                                   : 0.0;
    std::snprintf(line, sizeof(line), "%-18s %14llu %8llu %6.1f%%\n", c.category,
                  static_cast<unsigned long long>(c.total_ns),
                  static_cast<unsigned long long>(c.edges), share);
    os << line;
  }

  os << "-- top path edges -----------------------------------------------\n";
  std::vector<PathEdge> top(a.path.begin(), a.path.end());
  std::sort(top.begin(), top.end(),
            [](const PathEdge& x, const PathEdge& y) { return x.dur_ns > y.dur_ns; });
  if (top.size() > top_k) top.resize(top_k);
  std::snprintf(line, sizeof(line), "%-4s %-18s %14s %8s %6s\n", "#", "category",
                "dur_ns", "seq", "rank");
  os << line;
  for (std::size_t i = 0; i < top.size(); ++i) {
    std::snprintf(line, sizeof(line), "%-4zu %-18s %14llu %8llu %6d\n", i + 1,
                  top[i].category, static_cast<unsigned long long>(top[i].dur_ns),
                  static_cast<unsigned long long>(top[i].seq), top[i].rank);
    os << line;
  }

  os << "-- per-rank slack -----------------------------------------------\n";
  std::snprintf(line, sizeof(line), "%-6s %14s %14s\n", "rank", "on_path_ns",
                "slack_ns");
  os << line;
  for (const RankSlack& r : a.ranks) {
    std::snprintf(line, sizeof(line), "%-6d %14llu %14llu\n", r.rank,
                  static_cast<unsigned long long>(r.on_path_ns),
                  static_cast<unsigned long long>(r.slack_ns));
    os << line;
  }
  return os.str();
}

std::string render_json(const Analysis& a, std::size_t top_k) {
  std::ostringstream os;
  os << "{\"span_ns\":" << a.span_ns << ",\"events\":" << a.events
     << ",\"messages\":" << a.messages << ",\"by_category\":[";
  for (std::size_t i = 0; i < a.by_category.size(); ++i) {
    const CategoryCost& c = a.by_category[i];
    if (i) os << ",";
    os << "{\"category\":" << json::quote(c.category) << ",\"total_ns\":" << c.total_ns
       << ",\"edges\":" << c.edges << "}";
  }
  os << "],\"top_edges\":[";
  std::vector<PathEdge> top(a.path.begin(), a.path.end());
  std::sort(top.begin(), top.end(),
            [](const PathEdge& x, const PathEdge& y) { return x.dur_ns > y.dur_ns; });
  if (top.size() > top_k) top.resize(top_k);
  for (std::size_t i = 0; i < top.size(); ++i) {
    const PathEdge& e = top[i];
    if (i) os << ",";
    os << "{\"category\":" << json::quote(e.category) << ",\"dur_ns\":" << e.dur_ns
       << ",\"seq\":" << e.seq << ",\"rank\":" << e.rank << ",\"from_ts\":" << e.from_ts
       << ",\"to_ts\":" << e.to_ts << "}";
  }
  os << "],\"ranks\":[";
  for (std::size_t i = 0; i < a.ranks.size(); ++i) {
    const RankSlack& r = a.ranks[i];
    if (i) os << ",";
    os << "{\"rank\":" << r.rank << ",\"on_path_ns\":" << r.on_path_ns
       << ",\"slack_ns\":" << r.slack_ns << "}";
  }
  os << "]}";
  return os.str();
}

void export_jsonl(std::ostream& os, std::span<const Event> events) {
  std::vector<Event> ev(events.begin(), events.end());
  std::stable_sort(ev.begin(), ev.end(), merged_before);
  for (const Event& e : ev) {
    os << "{\"kind\":\"" << trace::to_string(e.kind) << "\",\"ts\":" << e.ts_ns
       << ",\"seq\":" << e.seq << ",\"bytes\":" << e.bytes << ",\"lclock\":" << e.lclock
       << ",\"rank\":" << e.rank << ",\"peer\":" << e.peer << ",\"tag\":" << e.tag
       << ",\"vci\":" << static_cast<int>(e.vci) << ",\"wait\":\""
       << obs::to_string(static_cast<Wait>(e.wait)) << "\",\"wait_ns\":" << e.wait_ns
       << "}\n";
  }
}

namespace {

bool event_from_json(const json::Value& v, Event* e, std::string* err) {
  json::Fields f(v, err);
  const auto i32 = [&f](std::string_view key) {
    const std::int64_t x = f.i64(key);
    if (x < INT32_MIN || x > INT32_MAX) f.bad(key, "a 32-bit integer");
    return static_cast<std::int32_t>(x);
  };
  const std::optional<Ev> kind = trace::ev_from_string(f.str("kind"));
  const std::optional<Wait> wait = wait_from_string(f.str("wait"));
  e->ts_ns = f.u64("ts");
  e->seq = f.u64("seq");
  e->bytes = f.u64("bytes");
  e->lclock = f.u64("lclock");
  e->wait_ns = f.u64("wait_ns");
  e->rank = i32("rank");
  e->peer = i32("peer");
  e->tag = i32("tag");
  const std::uint64_t vci = f.u64("vci");
  if (vci > UINT8_MAX) f.bad("vci", "below 256");
  if (f.ok() && !kind) f.bad("kind", "an event kind");
  if (f.ok() && !wait) f.bad("wait", "a wait state");
  if (!f.ok()) return false;
  e->vci = static_cast<std::uint8_t>(vci);
  e->kind = *kind;
  e->wait = static_cast<std::uint8_t>(*wait);
  return true;
}

}  // namespace

bool parse_jsonl(std::istream& is, std::vector<Event>* out, std::string* err) {
  out->clear();
  std::ostringstream text;
  text << is.rdbuf();
  const json::Lines file = json::split_lines(text.str());
  out->resize(file.lines.size());
  for (std::size_t i = 0; i < file.lines.size(); ++i) {
    json::Value v;
    if (!json::parse(file.lines[i], &v, err) || !event_from_json(v, &(*out)[i], err)) {
      *err = "record " + std::to_string(i + 1) + ": " + *err;
      out->clear();
      return false;
    }
  }
  return true;
}

}  // namespace causal
}  // namespace lwmpi::obs
