#include "obs/trace.hpp"

#include <algorithm>
#include <unordered_map>
#include <vector>

namespace lwmpi::obs::trace {

const char* to_string(Ev e) noexcept {
  switch (e) {
    case Ev::SendPost: return "send-post";
    case Ev::RecvPost: return "recv-post";
    case Ev::Match: return "match";
    case Ev::Inject: return "inject";
    case Ev::Deliver: return "deliver";
    case Ev::Complete: return "complete";
    case Ev::ZcopyWrite: return "zcopy-write";
  }
  return "?";
}

std::optional<Ev> ev_from_string(std::string_view s) noexcept {
  for (Ev e : {Ev::SendPost, Ev::RecvPost, Ev::Match, Ev::Inject, Ev::Deliver,
               Ev::Complete, Ev::ZcopyWrite}) {
    if (s == to_string(e)) return e;
  }
  return std::nullopt;
}

namespace {

void write_common(std::ostream& os, const Event& e, std::uint64_t base_ns) {
  // Chrome trace timestamps are microseconds; emit fractional us to keep
  // nanosecond resolution and strict monotonicity.
  const std::uint64_t rel = e.ts_ns - base_ns;
  os << "\"ts\":" << rel / 1000 << "." << static_cast<char>('0' + (rel / 100) % 10)
     << static_cast<char>('0' + (rel / 10) % 10) << static_cast<char>('0' + rel % 10)
     << ",\"pid\":" << e.rank << ",\"tid\":" << static_cast<int>(e.vci);
}

void write_args(std::ostream& os, const Event& e) {
  os << "\"args\":{\"seq\":" << e.seq << ",\"peer\":" << e.peer << ",\"tag\":" << e.tag
     << ",\"bytes\":" << e.bytes << ",\"vci\":" << static_cast<int>(e.vci) << "}";
}

}  // namespace

void export_chrome_json(std::ostream& os, std::span<const Event> events) {
  std::vector<Event> sorted(events.begin(), events.end());
  std::stable_sort(sorted.begin(), sorted.end(), [](const Event& a, const Event& b) {
    if (a.ts_ns != b.ts_ns) return a.ts_ns < b.ts_ns;
    if (a.seq != b.seq) return a.seq < b.seq;
    return stage_order(a.kind) < stage_order(b.kind);
  });
  const std::uint64_t base = sorted.empty() ? 0 : sorted.front().ts_ns;

  os << "{\"displayTimeUnit\":\"ns\",\"traceEvents\":[";
  bool first = true;
  auto sep = [&] {
    if (!first) os << ",";
    first = false;
  };

  // One instant event per lifecycle step.
  for (const Event& e : sorted) {
    sep();
    os << "{\"name\":\"" << to_string(e.kind) << "\",\"ph\":\"i\",\"s\":\"t\",\"cat\":\"msg\",";
    write_common(os, e, base);
    os << ",";
    write_args(os, e);
    os << "}";
  }

  // Per message, in order of first appearance: the first and last event
  // (the async begin/end pair of the post -> complete chain) and the hops
  // (the flow chain). `sorted` is timestamp-ordered, so one pass finds all.
  auto is_hop = [](Ev k) {
    return k == Ev::Inject || k == Ev::Deliver || k == Ev::ZcopyWrite;
  };
  struct Chain {
    std::uint64_t seq = 0;
    const Event* first = nullptr;
    const Event* last = nullptr;
    std::vector<const Event*> hops;
  };
  std::vector<Chain> chains;
  std::unordered_map<std::uint64_t, std::size_t> chain_of;  // seq -> chains index
  for (const Event& e : sorted) {
    if (e.seq == 0) continue;
    const auto [it, fresh] = chain_of.try_emplace(e.seq, chains.size());
    if (fresh) chains.push_back(Chain{e.seq, &e, &e, {}});
    Chain& c = chains[it->second];
    c.last = &e;
    if (is_hop(e.kind)) c.hops.push_back(&e);
  }
  for (const Chain& c : chains) {
    sep();
    os << "{\"name\":\"msg " << c.seq << "\",\"ph\":\"b\",\"cat\":\"msg\",\"id\":" << c.seq
       << ",";
    write_common(os, *c.first, base);
    os << ",";
    write_args(os, *c.first);
    os << "},{\"name\":\"msg " << c.seq << "\",\"ph\":\"e\",\"cat\":\"msg\",\"id\":" << c.seq
       << ",";
    write_common(os, *c.last, base);
    os << "}";
  }

  // Flow events per message: start at the first Inject, step through each
  // Deliver (and the zcopy landing), finish at the last hop. Perfetto draws
  // these as arrows between the per-rank (pid) tracks, so the RTS -> CTS ->
  // RdvDone / rdma_write arcs of a rendezvous read as a cross-rank chain.
  for (const Chain& c : chains) {
    if (c.hops.size() < 2) continue;
    for (std::size_t i = 0; i < c.hops.size(); ++i) {
      const char* ph = i == 0 ? "s" : (i + 1 == c.hops.size() ? "f" : "t");
      sep();
      os << "{\"name\":\"msg " << c.seq << "\",\"ph\":\"" << ph
         << "\",\"cat\":\"flow\",\"id\":" << c.seq << ",";
      if (ph[0] == 'f') os << "\"bp\":\"e\",";
      write_common(os, *c.hops[i], base);
      os << "}";
    }
  }

  os << "]}";
}

}  // namespace lwmpi::obs::trace
