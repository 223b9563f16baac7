#include "match/match.hpp"

#include "obs/histogram.hpp"

namespace lwmpi::match {

MatchEngine::~MatchEngine() {
  for (const Unexpected& u : unexpected_) rt::PacketPool::free(u.pkt);
}

bool MatchEngine::matches(const PostedRecv& r, const rt::PacketHeader& h) noexcept {
  if (r.ctx != h.ctx) return false;
  // Arrival-order (_NOMATCH) traffic only pairs with arrival-order receives,
  // and vice versa; within the mode, context isolation is the only bit kept.
  if (r.mode != h.match_mode) return false;
  if (r.mode == rt::MatchMode::ArrivalOrder) return true;
  if (r.src != kAnySource && r.src != h.src_comm_rank) return false;
  if (r.tag != kAnyTag && r.tag != h.tag) return false;
  return true;
}

std::optional<rt::Packet*> MatchEngine::post(const PostedRecv& r,
                                             std::uint64_t* arrived_ns) {
  for (auto it = unexpected_.begin(); it != unexpected_.end(); ++it) {
    if (matches(r, it->pkt->hdr)) {
      rt::Packet* p = it->pkt;
      if (arrived_ns != nullptr) *arrived_ns = it->arrived_ns;
      unexpected_.erase(it);
      return p;
    }
  }
  posted_.push_back(r);
  return std::nullopt;
}

std::optional<PostedRecv> MatchEngine::arrive(rt::Packet* p) {
  for (auto it = posted_.begin(); it != posted_.end(); ++it) {
    if (matches(*it, p->hdr)) {
      PostedRecv r = *it;
      posted_.erase(it);
      return r;
    }
  }
  // Only a packet its sender stamped can meet a sampled receive, so an
  // unstamped one skips the clock read (its queue age then reads 0, as an
  // unsampled posted receive's does).
  unexpected_.push_back({p, stamp_arrivals_ && p->hdr.send_ns != 0 ? obs::lat_now_ns() : 0});
  return std::nullopt;
}

const rt::PacketHeader* MatchEngine::probe(std::uint32_t ctx, Rank src, Tag tag) const {
  PostedRecv probe_entry;
  probe_entry.ctx = ctx;
  probe_entry.src = src;
  probe_entry.tag = tag;
  for (const Unexpected& u : unexpected_) {
    if (matches(probe_entry, u.pkt->hdr)) return &u.pkt->hdr;
  }
  return nullptr;
}

bool MatchEngine::cancel(std::uint32_t req) {
  for (auto it = posted_.begin(); it != posted_.end(); ++it) {
    if (it->req == req) {
      posted_.erase(it);
      return true;
    }
  }
  return false;
}

}  // namespace lwmpi::match
