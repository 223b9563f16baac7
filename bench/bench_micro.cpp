// Substrate microbenchmarks (google-benchmark): the building blocks under the
// MPI stack -- lock-free queues, packet pool, datatype pack/unpack, matching,
// and rank translation.
#include <benchmark/benchmark.h>

#include <memory>
#include <numeric>
#include <vector>

#include "comm/rankmap.hpp"
#include "datatype/datatype.hpp"
#include "match/match.hpp"
#include "runtime/mpsc_queue.hpp"
#include "runtime/packet.hpp"

namespace {

using namespace lwmpi;

// --- queues --------------------------------------------------------------------

struct BenchNode : rt::MpscNode {
  std::uint64_t value = 0;
};

void BM_MpscQueuePushPop(benchmark::State& state) {
  rt::MpscQueue<BenchNode> q;
  BenchNode node;
  for (auto _ : state) {
    q.push(&node);
    benchmark::DoNotOptimize(q.pop());
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_MpscQueuePushPop);

void BM_PacketPoolAllocFree(benchmark::State& state) {
  for (auto _ : state) {
    rt::Packet* p = rt::PacketPool::alloc();
    benchmark::DoNotOptimize(p);
    rt::PacketPool::free(p);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_PacketPoolAllocFree);

void BM_PacketPayloadCopy(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  std::vector<std::byte> src(n, std::byte{42});
  rt::Packet* p = rt::PacketPool::alloc();
  for (auto _ : state) {
    p->set_payload(src.data(), n);
    benchmark::DoNotOptimize(p->payload.data());
  }
  rt::PacketPool::free(p);
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(n));
}
BENCHMARK(BM_PacketPayloadCopy)->Arg(8)->Arg(512)->Arg(16384);

// --- datatypes -------------------------------------------------------------------

void BM_PackContiguous(benchmark::State& state) {
  dt::TypeEngine eng;
  const auto n = static_cast<int>(state.range(0));
  std::vector<double> src(static_cast<std::size_t>(n), 1.5);
  std::vector<std::byte> dst(dt::packed_size(eng, n, kDouble));
  for (auto _ : state) {
    benchmark::DoNotOptimize(dt::pack(eng, src.data(), n, kDouble, dst.data()));
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) * n * 8);
}
BENCHMARK(BM_PackContiguous)->Arg(16)->Arg(1024)->Arg(65536);

void BM_PackStridedVector(benchmark::State& state) {
  dt::TypeEngine eng;
  const auto rows = static_cast<int>(state.range(0));
  Datatype t = kDatatypeNull;
  eng.vector(rows, 8, 16, kDouble, &t);
  eng.commit(&t);
  std::vector<double> src(static_cast<std::size_t>(rows) * 16 + 16, 2.0);
  std::vector<std::byte> dst(dt::packed_size(eng, 1, t));
  for (auto _ : state) {
    benchmark::DoNotOptimize(dt::pack(eng, src.data(), 1, t, dst.data()));
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) * rows * 8 * 8);
}
BENCHMARK(BM_PackStridedVector)->Arg(16)->Arg(256)->Arg(4096);

void BM_UnpackStridedVector(benchmark::State& state) {
  dt::TypeEngine eng;
  const auto rows = static_cast<int>(state.range(0));
  Datatype t = kDatatypeNull;
  eng.vector(rows, 8, 16, kDouble, &t);
  eng.commit(&t);
  std::vector<double> dst(static_cast<std::size_t>(rows) * 16 + 16, 0.0);
  std::vector<std::byte> src(dt::packed_size(eng, 1, t), std::byte{1});
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        dt::unpack(eng, src.data(), src.size(), dst.data(), 1, t));
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) * rows * 8 * 8);
}
BENCHMARK(BM_UnpackStridedVector)->Arg(16)->Arg(256)->Arg(4096);

// --- matching ---------------------------------------------------------------------

void BM_MatchHit(benchmark::State& state) {
  match::MatchEngine m;
  const auto depth = static_cast<int>(state.range(0));
  for (auto _ : state) {
    state.PauseTiming();
    // Cold posted receives that never match.
    for (int i = 0; i < depth; ++i) {
      match::PostedRecv cold;
      cold.ctx = 1;
      cold.src = 999;
      cold.tag = 999;
      cold.req = static_cast<std::uint32_t>(i + 100);
      m.post(cold);
    }
    match::PostedRecv hot;
    hot.ctx = 1;
    hot.src = 2;
    hot.tag = 5;
    hot.req = 1;
    m.post(hot);
    rt::Packet* p = rt::PacketPool::alloc();
    p->hdr.ctx = 1;
    p->hdr.src_comm_rank = 2;
    p->hdr.tag = 5;
    state.ResumeTiming();

    benchmark::DoNotOptimize(m.arrive(p));

    state.PauseTiming();
    rt::PacketPool::free(p);
    for (int i = 0; i < depth; ++i) m.cancel(static_cast<std::uint32_t>(i + 100));
    state.ResumeTiming();
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_MatchHit)->Arg(0)->Arg(32)->Arg(512);

// --- rank translation ----------------------------------------------------------------

void BM_RankTranslateCompressed(benchmark::State& state) {
  auto map = comm::RankMap::strided(4096, 5, 3);
  Rank r = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(map.to_world_nocharge(r));
    r = (r + 1) & 4095;
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_RankTranslateCompressed);

void BM_RankTranslateDirect(benchmark::State& state) {
  std::vector<Rank> world(4096);
  for (int i = 0; i < 4096; ++i) world[static_cast<std::size_t>(i)] = (i * 7919) % 4096;
  auto map = comm::RankMap::from_list(world);
  Rank r = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(map.to_world_nocharge(r));
    r = (r + 1) & 4095;
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_RankTranslateDirect);

}  // namespace

BENCHMARK_MAIN();
