#include "obs/trace.hpp"

#include <algorithm>
#include <atomic>
#include <bit>
#include <mutex>

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
    case Ev::Alert: return "alert";
  }
  return "?";
}

std::optional<Ev> ev_from_string(std::string_view s) noexcept {
  for (Ev e : {Ev::SendPost, Ev::RecvPost, Ev::Match, Ev::Inject, Ev::Deliver,
               Ev::Complete, Ev::ZcopyWrite, Ev::Alert}) {
    if (s == to_string(e)) return e;
  }
  return std::nullopt;
}

Ring::Ring(std::size_t min_capacity)
    : mask_(std::bit_ceil(min_capacity < 2 ? std::size_t{2} : min_capacity) - 1),
      slots_(mask_ + 1) {}

std::vector<Event> Ring::collect() const {
  const std::uint64_t h = head_.load(std::memory_order_acquire);
  const std::uint64_t start = h > capacity() ? h - capacity() : 0;
  std::vector<Event> out;
  out.reserve(static_cast<std::size_t>(h - start));
  for (std::uint64_t i = start; i < h; ++i) {
    out.push_back(slots_[i & mask_]);
  }
  return out;
}

namespace {

// Registry of every thread's ring. Rings outlive their owning thread (the
// exporter collects after World::run joins), hence shared_ptr ownership.
std::mutex& registry_mu() {
  static std::mutex mu;
  return mu;
}
std::vector<std::shared_ptr<Ring>>& registry() {
  static std::vector<std::shared_ptr<Ring>> rings;
  return rings;
}

Ring& tl_ring() {
  thread_local std::shared_ptr<Ring> ring = [] {
    auto r = std::make_shared<Ring>(kDefaultRingCapacity);
    std::lock_guard<std::mutex> lk(registry_mu());
    registry().push_back(r);
    return r;
  }();
  return *ring;
}

std::atomic<std::uint64_t> g_seq{1};

}  // namespace

void record(const Event& e) noexcept { tl_ring().push(e); }

std::uint64_t next_seq() noexcept {
  return g_seq.fetch_add(1, std::memory_order_relaxed);
}

std::vector<Event> collect_all() {
  std::lock_guard<std::mutex> lk(registry_mu());
  std::vector<Event> out;
  for (const auto& r : registry()) {
    std::vector<Event> part = r->collect();
    out.insert(out.end(), part.begin(), part.end());
  }
  return out;
}

std::uint64_t dropped_all() {
  std::lock_guard<std::mutex> lk(registry_mu());
  std::uint64_t n = 0;
  for (const auto& r : registry()) n += r->dropped();
  return n;
}

void reset_all() {
  std::lock_guard<std::mutex> lk(registry_mu());
  for (const auto& r : registry()) r->clear();
}

namespace {

// Chrome's trace viewer sorts equal timestamps arbitrarily; break ties by
// lifecycle stage so post always precedes complete within one message.
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

  // Async begin/end per message: the post -> complete chain. `sorted` is
  // timestamp-ordered, so the first/last occurrence of a seq bound its chain.
  struct Chain {
    const Event* first = nullptr;
    const Event* last = nullptr;
  };
  std::vector<std::pair<std::uint64_t, Chain>> chains;  // seq-keyed, small N
  for (const Event& e : sorted) {
    if (e.seq == 0) continue;
    auto it = std::find_if(chains.begin(), chains.end(),
                           [&](const auto& c) { return c.first == e.seq; });
    if (it == chains.end()) {
      chains.push_back({e.seq, Chain{&e, &e}});
    } else {
      it->second.last = &e;
    }
  }
  for (const auto& [seq, chain] : chains) {
    sep();
    os << "{\"name\":\"msg " << seq << "\",\"ph\":\"b\",\"cat\":\"msg\",\"id\":" << seq << ",";
    write_common(os, *chain.first, base);
    os << ",";
    write_args(os, *chain.first);
    os << "},{\"name\":\"msg " << seq << "\",\"ph\":\"e\",\"cat\":\"msg\",\"id\":" << seq
       << ",";
    write_common(os, *chain.last, base);
    os << "}";
  }

  // Flow events per message: start at the first Inject, step through each
  // Deliver (and the zcopy landing), finish at the last hop. Perfetto draws
  // these as arrows between the per-rank (pid) tracks, so the RTS -> CTS ->
  // RdvDone / rdma_write arcs of a rendezvous read as a cross-rank chain.
  auto is_hop = [](Ev k) {
    return k == Ev::Inject || k == Ev::Deliver || k == Ev::ZcopyWrite;
  };
  for (const auto& [seq, chain] : chains) {
    std::vector<const Event*> hops;
    for (const Event& e : sorted) {
      if (e.seq == seq && is_hop(e.kind)) hops.push_back(&e);
    }
    if (hops.size() < 2) continue;
    for (std::size_t i = 0; i < hops.size(); ++i) {
      const char* ph = i == 0 ? "s" : (i + 1 == hops.size() ? "f" : "t");
      sep();
      os << "{\"name\":\"msg " << seq << "\",\"ph\":\"" << ph
         << "\",\"cat\":\"flow\",\"id\":" << seq << ",";
      if (ph[0] == 'f') os << "\"bp\":\"e\",";
      write_common(os, *hops[i], base);
      os << "}";
    }
  }

  os << "]}";
}

}  // namespace lwmpi::obs::trace
