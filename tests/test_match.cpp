// Matching-engine unit tests: MPI matching semantics, wildcards, ordering,
// unexpected-message handling, and arrival-order (_NOMATCH) contexts.
#include <gtest/gtest.h>

#include "match/match.hpp"

namespace lwmpi::match {
namespace {

rt::Packet* make(std::uint32_t ctx, Rank src, Tag tag,
                 rt::MatchMode mode = rt::MatchMode::Full,
                 rt::PacketKind kind = rt::PacketKind::Eager) {
  rt::Packet* p = rt::PacketPool::alloc();
  p->hdr.kind = kind;
  p->hdr.match_mode = mode;
  p->hdr.ctx = ctx;
  p->hdr.src_comm_rank = src;
  p->hdr.tag = tag;
  return p;
}

PostedRecv posted(std::uint32_t ctx, Rank src, Tag tag, std::uint32_t req = 1,
                  rt::MatchMode mode = rt::MatchMode::Full) {
  PostedRecv r;
  r.ctx = ctx;
  r.src = src;
  r.tag = tag;
  r.req = req;
  r.mode = mode;
  return r;
}

TEST(Match, ExactTripleMatches) {
  MatchEngine m;
  EXPECT_FALSE(m.post(posted(7, 2, 99)).has_value());
  rt::Packet* p = make(7, 2, 99);
  auto hit = m.arrive(p);
  ASSERT_TRUE(hit.has_value());
  EXPECT_EQ(hit->req, 1u);
  EXPECT_EQ(m.posted_depth(), 0u);
  rt::PacketPool::free(p);
}

TEST(Match, ContextIsolates) {
  MatchEngine m;
  m.post(posted(7, 2, 99));
  rt::Packet* p = make(8, 2, 99);  // wrong context
  EXPECT_FALSE(m.arrive(p).has_value());
  EXPECT_EQ(m.unexpected_depth(), 1u);
  EXPECT_EQ(m.posted_depth(), 1u);
}

TEST(Match, SourceAndTagMustAgree) {
  MatchEngine m;
  m.post(posted(1, 2, 3));
  rt::Packet* wrong_src = make(1, 9, 3);
  EXPECT_FALSE(m.arrive(wrong_src).has_value());
  rt::Packet* wrong_tag = make(1, 2, 4);
  EXPECT_FALSE(m.arrive(wrong_tag).has_value());
  rt::Packet* right = make(1, 2, 3);
  EXPECT_TRUE(m.arrive(right).has_value());
  rt::PacketPool::free(right);
}

TEST(Match, AnySourceWildcard) {
  MatchEngine m;
  m.post(posted(1, kAnySource, 5));
  rt::Packet* p = make(1, 42, 5);
  auto hit = m.arrive(p);
  ASSERT_TRUE(hit.has_value());
  rt::PacketPool::free(p);
}

TEST(Match, AnyTagWildcard) {
  MatchEngine m;
  m.post(posted(1, 3, kAnyTag));
  rt::Packet* p = make(1, 3, 12345);
  EXPECT_TRUE(m.arrive(p).has_value());
  rt::PacketPool::free(p);
}

TEST(Match, BothWildcards) {
  MatchEngine m;
  m.post(posted(1, kAnySource, kAnyTag));
  rt::Packet* p = make(1, 7, 8);
  EXPECT_TRUE(m.arrive(p).has_value());
  rt::PacketPool::free(p);
}

TEST(Match, OldestPostedWins) {
  MatchEngine m;
  m.post(posted(1, kAnySource, kAnyTag, /*req=*/10));
  m.post(posted(1, 2, 5, /*req=*/20));
  rt::Packet* p = make(1, 2, 5);
  auto hit = m.arrive(p);
  ASSERT_TRUE(hit.has_value());
  EXPECT_EQ(hit->req, 10u);  // the earlier (wildcard) receive matches first
  rt::PacketPool::free(p);
}

TEST(Match, OldestUnexpectedWins) {
  MatchEngine m;
  rt::Packet* a = make(1, 2, 5);
  a->hdr.total_bytes = 111;
  rt::Packet* b = make(1, 2, 5);
  b->hdr.total_bytes = 222;
  EXPECT_FALSE(m.arrive(a).has_value());
  EXPECT_FALSE(m.arrive(b).has_value());
  auto hit = m.post(posted(1, 2, 5));
  ASSERT_TRUE(hit.has_value());
  EXPECT_EQ((*hit)->hdr.total_bytes, 111u);  // FIFO
  rt::PacketPool::free(*hit);
  auto hit2 = m.post(posted(1, 2, 5));
  ASSERT_TRUE(hit2.has_value());
  EXPECT_EQ((*hit2)->hdr.total_bytes, 222u);
  rt::PacketPool::free(*hit2);
}

TEST(Match, ArrivalOrderIgnoresSrcAndTag) {
  MatchEngine m;
  m.post(posted(3, kAnySource, kAnyTag, 1, rt::MatchMode::ArrivalOrder));
  rt::Packet* p = make(3, 17, 4242, rt::MatchMode::ArrivalOrder);
  EXPECT_TRUE(m.arrive(p).has_value());
  rt::PacketPool::free(p);
}

TEST(Match, ArrivalOrderStillIsolatedByContext) {
  MatchEngine m;
  m.post(posted(3, kAnySource, kAnyTag, 1, rt::MatchMode::ArrivalOrder));
  rt::Packet* p = make(4, 0, 0, rt::MatchMode::ArrivalOrder);
  EXPECT_FALSE(m.arrive(p).has_value());
}

TEST(Match, ModesDoNotCrossMatch) {
  MatchEngine m;
  // A Full-mode posted receive must not take arrival-order traffic, and vice
  // versa, even on the same context.
  m.post(posted(3, kAnySource, kAnyTag, 1, rt::MatchMode::Full));
  rt::Packet* p = make(3, 0, 0, rt::MatchMode::ArrivalOrder);
  EXPECT_FALSE(m.arrive(p).has_value());
  EXPECT_EQ(m.unexpected_depth(), 1u);
  // And an arrival-order receive must not take Full traffic.
  MatchEngine m2;
  m2.post(posted(3, kAnySource, kAnyTag, 1, rt::MatchMode::ArrivalOrder));
  rt::Packet* q = make(3, 0, 0, rt::MatchMode::Full);
  EXPECT_FALSE(m2.arrive(q).has_value());
}

TEST(Match, ProbeSeesUnexpected) {
  MatchEngine m;
  EXPECT_EQ(m.probe(1, 2, 3), nullptr);
  rt::Packet* p = make(1, 2, 3);
  p->hdr.total_bytes = 64;
  m.arrive(p);
  const rt::PacketHeader* h = m.probe(1, 2, 3);
  ASSERT_NE(h, nullptr);
  EXPECT_EQ(h->total_bytes, 64u);
  // Probe is non-destructive.
  EXPECT_NE(m.probe(1, kAnySource, kAnyTag), nullptr);
  EXPECT_EQ(m.unexpected_depth(), 1u);
  // Probe with mismatched pattern misses.
  EXPECT_EQ(m.probe(1, 5, 3), nullptr);
}

TEST(Match, CancelRemovesPosted) {
  MatchEngine m;
  m.post(posted(1, 2, 3, /*req=*/55));
  EXPECT_TRUE(m.cancel(55));
  EXPECT_EQ(m.posted_depth(), 0u);
  EXPECT_FALSE(m.cancel(55));
  rt::Packet* p = make(1, 2, 3);
  EXPECT_FALSE(m.arrive(p).has_value());  // nothing left to match
}

TEST(Match, RtsPacketsMatchLikeEager) {
  MatchEngine m;
  m.post(posted(1, 2, 3));
  rt::Packet* rts = make(1, 2, 3, rt::MatchMode::Full, rt::PacketKind::Rts);
  EXPECT_TRUE(m.arrive(rts).has_value());
  rt::PacketPool::free(rts);
}

TEST(Match, DestructorFreesRetainedPackets) {
  // Covered implicitly by ASAN-less builds; this exercises the path.
  MatchEngine m;
  m.arrive(make(1, 1, 1));
  m.arrive(make(1, 1, 2));
  EXPECT_EQ(m.unexpected_depth(), 2u);
  // m destructor frees both.
}

}  // namespace
}  // namespace lwmpi::match
