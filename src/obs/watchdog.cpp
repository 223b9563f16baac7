// Progress-stall detector (obs/watchdog.hpp).
//
// The sampling thread keeps, per rank, the last activity fingerprint and the
// time it last changed. A rank is stuck when it has outstanding work (live
// requests, undelivered fabric traffic, or queued sends) or sits inside a
// blocking call, and its fingerprint has not moved for stall_ns. One report
// is emitted per episode: the fired flag re-arms only after a sample in which
// no rank is stuck, so a persistent deadlock produces exactly one diagnosis.
#include "obs/watchdog.hpp"

#include <algorithm>
#include <chrono>
#include <fstream>
#include <sstream>

#include "obs/causal.hpp"
#include "obs/json.hpp"
#include "obs/text.hpp"
#include "runtime/world.hpp"

namespace lwmpi::obs {

namespace {

// How many of a stalled rank's most recent flight-recorder ops a diagnosis
// embeds as StuckRank::last_moves.
constexpr std::size_t kLastMovesDepth = 16;

}  // namespace

std::string render_text(const HangReport& r) {
  json::Value v;
  std::string out;
  if (json::parse(render_json(r), &v)) render_hang_text(v, &out);
  return out;
}

std::string render_json(const HangReport& r) {
  std::ostringstream o;
  o << "{\"nranks\":" << r.nranks << ",\"stuck\":[";
  for (std::size_t i = 0; i < r.stuck.size(); ++i) {
    const StuckRank& s = r.stuck[i];
    o << (i == 0 ? "" : ",") << "{\"rank\":" << s.rank << ",\"call\":" << json::quote(s.call)
      << ",\"blocked_ns\":" << s.blocked_ns << ",\"stalled_ns\":" << s.stalled_ns
      << ",\"snapshot\":" << render_json(s.snap);
    if (!s.last_moves.empty()) {
      o << ",\"last_moves\":[";
      for (std::size_t j = 0; j < s.last_moves.size(); ++j) {
        const auto& [idx, op] = s.last_moves[j];
        o << (j == 0 ? "" : ",") << "{\"op\":" << idx << ",\"kind\":"
          << json::quote(rec_kind_name(op.kind)) << ",\"peer\":" << op.peer
          << ",\"tag\":" << op.tag << ",\"vci\":" << static_cast<int>(op.vci)
          << ",\"bytes\":" << op.bytes << ",\"link\":" << op.link << '}';
      }
      o << ']';
    }
    o << '}';
  }
  o << "]}";
  return o.str();
}

Watchdog::Watchdog(World& world, WatchdogOptions opts)
    : world_(world), opts_(std::move(opts)) {
  thread_ = std::thread([this] { run(); });
}

Watchdog::~Watchdog() {
  stop_.store(true, std::memory_order_release);
  if (thread_.joinable()) thread_.join();
}

HangReport Watchdog::last_report() const {
  std::lock_guard<std::mutex> lk(report_mu_);
  return last_;
}

void Watchdog::run() {
  const int n = world_.nranks();
  struct RankState {
    std::uint64_t fingerprint = 0;
    std::uint64_t last_change_ns = 0;
  };
  std::vector<RankState> state(static_cast<std::size_t>(n));
  {
    const std::uint64_t now = lat_now_ns();
    for (int r = 0; r < n; ++r) {
      state[static_cast<std::size_t>(r)].fingerprint =
          world_.engine(r).activity_fingerprint();
      state[static_cast<std::size_t>(r)].last_change_ns = now;
    }
  }
  bool fired_this_episode = false;

  // Sleep in small slices so destruction never waits a full poll period.
  constexpr std::uint64_t kSliceNs = 2'000'000;
  while (!stop_.load(std::memory_order_acquire)) {
    std::uint64_t slept = 0;
    while (slept < opts_.poll_ns && !stop_.load(std::memory_order_acquire)) {
      const std::uint64_t chunk = std::min(kSliceNs, opts_.poll_ns - slept);
      std::this_thread::sleep_for(std::chrono::nanoseconds(chunk));
      slept += chunk;
    }
    if (stop_.load(std::memory_order_acquire)) break;

    const std::uint64_t now = lat_now_ns();
    std::vector<Rank> stuck_ranks;
    for (int r = 0; r < n; ++r) {
      Engine& e = world_.engine(r);
      RankState& st = state[static_cast<std::size_t>(r)];
      const std::uint64_t fp = e.activity_fingerprint();
      if (fp != st.fingerprint) {
        st.fingerprint = fp;
        st.last_change_ns = now;
        continue;
      }
      const bool busy = e.has_outstanding_work() || e.blocking_call() != nullptr;
      if (busy && now - st.last_change_ns >= opts_.stall_ns) {
        stuck_ranks.push_back(static_cast<Rank>(r));
      }
    }

    if (stuck_ranks.empty()) {
      fired_this_episode = false;  // progress resumed: re-arm
      continue;
    }
    if (fired_this_episode) continue;  // one diagnosis per episode
    fired_this_episode = true;

    HangReport report;
    report.nranks = n;
    for (Rank r : stuck_ranks) {
      Engine& e = world_.engine(r);
      StuckRank s;
      s.rank = r;
      s.snap = e.snapshot();
      if (s.snap.blocking_call != nullptr) s.call = s.snap.blocking_call;
      s.blocked_ns = s.snap.blocked_ns;
      s.stalled_ns = now - state[static_cast<std::size_t>(r)].last_change_ns;
      if (Recorder* rec = world_.recorder(); rec != nullptr) {
        std::uint64_t i = 0;
        for (const RecOp& op : rec->rank(r).ops().last(kLastMovesDepth, &i)) {
          s.last_moves.emplace_back(i++, op);
        }
      }
      report.stuck.push_back(std::move(s));
    }
    {
      std::lock_guard<std::mutex> lk(report_mu_);
      last_ = report;
    }
    if (!opts_.report_path.empty()) {
      std::ofstream f(opts_.report_path, std::ios::trunc);
      if (f) f << render_json(report) << '\n';
    }
    if (!opts_.causal_trace_path.empty()) {
      // Ranks are stalled, not quiescent, so a racing producer could overwrite
      // its ring's oldest events mid-collect; for a hang diagnosis a slightly
      // frayed tail beats no timeline at all.
      std::ofstream f(opts_.causal_trace_path, std::ios::trunc);
      if (f) causal::export_jsonl(f, world_.trace_events());
    }
    // A hung run may never reach World teardown; flush the trace bundle now
    // so the stall is replayable postmortem (teardown re-flushes harmlessly).
    if (!world_.options().record_path.empty()) world_.flush_recording();
    if (opts_.on_hang) opts_.on_hang(report);
    // Counted last: a caller that sees fires() > 0 finds the report file
    // closed, the causal export and bundle flush written, and on_hang returned.
    fires_.fetch_add(1, std::memory_order_release);
  }
}

}  // namespace lwmpi::obs
