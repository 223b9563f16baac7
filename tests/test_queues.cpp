// Lock-free queue and packet-pool substrate tests.
#include <gtest/gtest.h>

#include <array>
#include <memory>
#include <thread>
#include <vector>

#include "runtime/mpsc_queue.hpp"
#include "runtime/packet.hpp"

namespace lwmpi::rt {
namespace {

// ---------------------------------------------------------------------------
// MpscQueue
// ---------------------------------------------------------------------------

struct Node : MpscNode {
  int value = 0;
};

TEST(MpscQueue, StartsEmpty) {
  MpscQueue<Node> q;
  EXPECT_TRUE(q.empty());
  EXPECT_EQ(q.pop(), nullptr);
}

TEST(MpscQueue, SingleThreadFifo) {
  MpscQueue<Node> q;
  std::vector<std::unique_ptr<Node>> nodes;
  for (int i = 0; i < 10; ++i) {
    nodes.push_back(std::make_unique<Node>());
    nodes.back()->value = i;
    q.push(nodes.back().get());
  }
  EXPECT_FALSE(q.empty());
  for (int i = 0; i < 10; ++i) {
    Node* n = q.pop();
    ASSERT_NE(n, nullptr);
    EXPECT_EQ(n->value, i);
  }
  EXPECT_EQ(q.pop(), nullptr);
  EXPECT_TRUE(q.empty());
}

TEST(MpscQueue, InterleavedPushPop) {
  MpscQueue<Node> q;
  std::array<Node, 6> nodes;
  q.push(&nodes[0]);
  q.push(&nodes[1]);
  EXPECT_EQ(q.pop(), &nodes[0]);
  q.push(&nodes[2]);
  EXPECT_EQ(q.pop(), &nodes[1]);
  EXPECT_EQ(q.pop(), &nodes[2]);
  EXPECT_EQ(q.pop(), nullptr);
  q.push(&nodes[3]);
  EXPECT_EQ(q.pop(), &nodes[3]);
}

TEST(MpscQueue, MultiProducerStress) {
  constexpr int kProducers = 4;
  constexpr int kPerProducer = 5000;
  MpscQueue<Node> q;
  std::vector<std::vector<std::unique_ptr<Node>>> storage(kProducers);
  for (auto& v : storage) {
    v.reserve(kPerProducer);
    for (int i = 0; i < kPerProducer; ++i) v.push_back(std::make_unique<Node>());
  }

  std::vector<std::thread> producers;
  for (int t = 0; t < kProducers; ++t) {
    producers.emplace_back([&, t] {
      for (int i = 0; i < kPerProducer; ++i) {
        storage[static_cast<std::size_t>(t)][static_cast<std::size_t>(i)]->value =
            t * kPerProducer + i;
        q.push(storage[static_cast<std::size_t>(t)][static_cast<std::size_t>(i)].get());
      }
    });
  }
  // Consume concurrently; verify per-producer FIFO.
  std::vector<int> last_seen(kProducers, -1);
  int total = 0;
  while (total < kProducers * kPerProducer) {
    Node* n = q.pop();
    if (n == nullptr) {
      std::this_thread::yield();
      continue;
    }
    const int producer = n->value / kPerProducer;
    const int seq = n->value % kPerProducer;
    EXPECT_GT(seq, last_seen[static_cast<std::size_t>(producer)]);
    last_seen[static_cast<std::size_t>(producer)] = seq;
    ++total;
  }
  for (auto& t : producers) t.join();
  EXPECT_EQ(q.pop(), nullptr);
}

// ---------------------------------------------------------------------------
// PacketPool
// ---------------------------------------------------------------------------

TEST(PacketPool, RecyclesPackets) {
  PacketPool::tl_drain();
  Packet* a = PacketPool::alloc();
  a->hdr.tag = 77;
  a->set_payload("abc", 3);
  PacketPool::free(a);
  EXPECT_EQ(PacketPool::tl_pool_size(), 1u);
  Packet* b = PacketPool::alloc();
  EXPECT_EQ(b, a);  // same storage reused
  EXPECT_EQ(b->hdr.tag, 0);  // header reset
  EXPECT_TRUE(b->payload.empty());
  PacketPool::free(b);
  PacketPool::tl_drain();
}

TEST(PacketPool, FreeNullIsNoop) {
  PacketPool::free(nullptr);  // must not crash
}

TEST(PacketPool, PayloadRoundTrip) {
  Packet* p = PacketPool::alloc();
  const char data[] = "hello lwmpi";
  p->set_payload(data, sizeof(data));
  ASSERT_EQ(p->payload.size(), sizeof(data));
  EXPECT_EQ(std::memcmp(p->bytes().data(), data, sizeof(data)), 0);
  p->set_payload(nullptr, 0);
  EXPECT_TRUE(p->payload.empty());
  PacketPool::free(p);
}

}  // namespace
}  // namespace lwmpi::rt
