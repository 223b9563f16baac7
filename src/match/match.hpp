// MPI message-matching engine: posted-receive and unexpected-message queues.
//
// Matching is on the (context, source, tag) triple with MPI wildcard
// semantics and strict ordering: an incoming message matches the *oldest*
// compatible posted receive, and a posted receive matches the oldest
// compatible unexpected message. The paper's _NOMATCH proposal (Section 3.6)
// is supported via arrival-order entries that match on context alone.
//
// One MatchEngine is instantiated per VCI (core/vci.hpp), not per engine:
// each channel matches independently under its own lock, so traffic on
// different channels never contends on (or reorders through) a shared queue
// pair. Cross-VCI isolation is structural -- a context id hashes to exactly
// one channel, so a message can never find a receive posted on another VCI.
#pragma once

#include <cstdint>
#include <list>
#include <optional>

#include "common/types.hpp"
#include "runtime/packet.hpp"

namespace lwmpi::match {

struct PostedRecv {
  std::uint32_t ctx = 0;
  Rank src = kAnySource;  // may be kAnySource
  Tag tag = kAnyTag;      // may be kAnyTag
  rt::MatchMode mode = rt::MatchMode::Full;
  void* buf = nullptr;
  int count = 0;
  Datatype dt = kDatatypeNull;
  std::uint32_t req = 0;       // request to complete on match
  std::uint64_t posted_ns = 0; // obs::lat_now_ns() at post time (0 = unstamped)
};

// Unexpected-queue entry: the retained packet plus its arrival timestamp, so
// introspection can report entry age and the latency tier can account the
// time a message waited for its receive to be posted.
struct Unexpected {
  rt::Packet* pkt = nullptr;
  std::uint64_t arrived_ns = 0;
};

class MatchEngine {
 public:
  MatchEngine() = default;
  ~MatchEngine();
  MatchEngine(const MatchEngine&) = delete;
  MatchEngine& operator=(const MatchEngine&) = delete;

  // Try to satisfy `r` from the unexpected queue. If a message is pending the
  // retained packet is returned (ownership to caller) and `r` is NOT queued;
  // otherwise `r` joins the posted queue. When `arrived_ns` is non-null and a
  // packet is returned, it receives the packet's unexpected-queue arrival
  // stamp (0 if arrivals were unstamped).
  std::optional<rt::Packet*> post(const PostedRecv& r,
                                  std::uint64_t* arrived_ns = nullptr);

  // Route an arriving first packet (Eager or Rts). If a posted receive
  // matches it is removed and returned; otherwise the packet is retained on
  // the unexpected queue (ownership to the engine, stamped with
  // obs::lat_now_ns() when stamping is on and the packet carries a send
  // stamp) and nullopt is returned.
  std::optional<PostedRecv> arrive(rt::Packet* p);

  // Non-destructive probe of the unexpected queue.
  const rt::PacketHeader* probe(std::uint32_t ctx, Rank src, Tag tag) const;

  // Cancel a posted receive by request id. True if found and removed.
  bool cancel(std::uint32_t req);

  std::size_t posted_depth() const noexcept { return posted_.size(); }
  std::size_t unexpected_depth() const noexcept { return unexpected_.size(); }

  // Arrival-timestamp stamping follows BuildConfig::counters (set once before
  // the world's rank threads start); defaults on so standalone engines (unit
  // tests) exercise the stamped path.
  void set_stamp_arrivals(bool on) noexcept { stamp_arrivals_ = on; }

  // Const visitors for the introspection tier (obs/introspect.cpp). Called
  // under the owning channel's lock; entries are visited oldest-first.
  template <typename F>  // F(const PostedRecv&)
  void visit_posted(F&& f) const {
    for (const PostedRecv& r : posted_) f(r);
  }
  template <typename F>  // F(const rt::PacketHeader&, std::uint64_t arrived_ns)
  void visit_unexpected(F&& f) const {
    for (const Unexpected& u : unexpected_) f(u.pkt->hdr, u.arrived_ns);
  }

 private:
  static bool matches(const PostedRecv& r, const rt::PacketHeader& h) noexcept;

  std::list<PostedRecv> posted_;
  std::list<Unexpected> unexpected_;
  bool stamp_arrivals_ = true;
};

}  // namespace lwmpi::match
