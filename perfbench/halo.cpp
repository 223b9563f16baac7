// halo: four ranks running the paper's application shapes (Figs 7/8) on the
// loopback profile: a 2x2 Jacobi stencil at a latency-bound grid (vector-
// datatype columns, PROC_NULL edges), then the Nek5000 CG model at small
// n/P (a face exchange plus two 8-byte allreduces per iteration). This is
// where datatype pack and the collectives do most of their work and where
// several peers contend for progress; send_path bypasses both layers.
#include <atomic>
#include <cmath>

#include "apps/nek.hpp"
#include "apps/stencil.hpp"
#include "common.hpp"
#include "core/engine.hpp"
#include "datatype/datatype.hpp"
#include "runtime/world.hpp"

namespace pb {
namespace {
using namespace lwmpi;

constexpr int kRanks = 4;
constexpr int kGrid = 32;         // 16x16 interior per rank: communication-bound
constexpr int kStencilIters = 400;  // per timed chunk
constexpr int kNekOrder = 5;
constexpr int kNekElems = 16;     // 4 elements of 216 points per rank
constexpr int kCgIters = 150;     // per timed chunk
// Parallel and serial runs sum the residual's partial sums in different
// orders; nothing else differs, so they agree to rounding.
constexpr double kRelTol = 1e-9;

apps::StencilConfig stencil_cfg(int px, int py) {
  apps::StencilConfig s;
  s.nx = s.ny = kGrid;
  s.px = px;
  s.py = py;
  s.iters = kStencilIters;
  return s;
}

apps::NekConfig nek_cfg() {
  apps::NekConfig n;
  n.order = kNekOrder;
  n.elems_total = kNekElems;
  n.cg_iters = kCgIters;
  return n;
}

bool close_to(double got, double want) {
  return std::fabs(got - want) <= kRelTol * std::max(std::fabs(want), 1e-300) ||
         std::fabs(got - want) <= 1e-14;
}

// The same problems on one rank: the reference the 4-rank residuals must match.
struct Reference {
  double stencil = 0.0, nek = 0.0;
  Reference() {
    World w(1);
    w.run([&](Engine& e) {
      stencil = apps::run_stencil(e, kCommWorld, stencil_cfg(1, 1)).residual;
      nek = apps::run_nek_cg(e, kCommWorld, nek_cfg()).residual;
    });
  }
};

void e2e(Ctx& c, Report& out, double seconds, Tracer* tr) {
  static const Reference ref;  // seed-independent, computed once per process
  World w(kRanks);
  std::vector<double> stencil_rates, cg_rates;
  std::uint32_t id = 0;
  Budget b(seconds, 4);
  while (b.next()) {
    for (int which : c.order(2)) {
      double secs[kRanks] = {}, resid[kRanks] = {};
      bool valid[kRanks] = {};
      const int slot = c.slot++;
      w.run([&](Engine& e) {
        pin_thread(slot + e.world_rank());
        const auto r = static_cast<std::size_t>(e.world_rank());
        Tracer* t = r == 0 ? tr : nullptr;
        if (which == 0) {
          Scope s(t, "apps.run_stencil", Layer::apps, id, kStencilIters);
          const apps::StencilResult res = apps::run_stencil(e, kCommWorld, stencil_cfg(2, 2));
          secs[r] = res.seconds;
          resid[r] = res.residual;
          valid[r] = res.converged_layout;
        } else {
          Scope s(t, "apps.run_nek_cg", Layer::apps, id, kCgIters);
          const apps::NekResult res = apps::run_nek_cg(e, kCommWorld, nek_cfg());
          secs[r] = res.seconds;
          resid[r] = res.residual;
          valid[r] = res.valid;
        }
      });
      ++id;
      const double want = which == 0 ? ref.stencil : ref.nek;
      double slowest = 0.0;
      int wrong = 0;
      for (int r = 0; r < kRanks; ++r) {
        if (r == 0 && c.force_wrong_once("halo")) resid[r] *= 1.001;
        wrong += !valid[r] || !close_to(resid[r], want);
        slowest = std::max(slowest, secs[r]);
      }
      c.check(wrong == 0, fmt("%s residual differs from the 1-rank run (%.17g vs %.17g)",
                              which == 0 ? "stencil" : "nek", resid[0], want));
      const int iters = which == 0 ? kStencilIters : kCgIters;
      c.ops(static_cast<std::uint64_t>(iters) * kRanks, 0, "halo iterations");
      (which == 0 ? stencil_rates : cg_rates).push_back(slowest > 0 ? iters / slowest / 1e3 : 0.0);
    }
  }
  out.add("stencil_iter_rate_kps", median(stencil_rates), "k/s",
          fmt("median of %zu chunks x %d iterations, 2x2 ranks, %dx%d grid", stencil_rates.size(),
              kStencilIters, kGrid, kGrid));
  out.add("cg_iter_rate_kps", median(cg_rates), "k/s",
          fmt("median of %zu chunks x %d CG iterations, N=%d, E=%d on 4 ranks", cg_rates.size(),
              kCgIters, kNekOrder, kNekElems));
  if (tr == nullptr) return;

  const double matches = static_cast<double>(pvar_sum(w, "vci_posted_matches"));
  const double misses = static_cast<double>(pvar_sum(w, "vci_posted_misses"));
  c.layers.add("match.unexpected_ratio", matches + misses > 0 ? misses / (matches + misses) : 0,
               "ratio", "vci_posted_misses / (matches + misses), halo world");
  c.layers.add("core.gate_contended", static_cast<double>(pvar_sum(w, "vci_gate_contended")),
               "count", "vci_gate_contended summed over ranks, halo world");
  c.layers.add("apps.wait_late_sender", static_cast<double>(pvar_sum(w, "wait_late_sender_count")),
               "count", "matches classified late-sender, halo world");
  c.layers.add("apps.wait_progress_starved",
               static_cast<double>(pvar_sum(w, "wait_progress_starved_count")), "count",
               "matches classified progress-starved, halo world");
}

double setup(Ctx&) {
  const std::uint64_t t0 = now_ns();
  World w(kRanks);
  return static_cast<double>(now_ns() - t0) / 1e9;
}

void layers(Ctx& c, Tracer& tr) {
  // The stencil's column type: 16 doubles strided by the 18-wide local row.
  {
    dt::TypeEngine te;
    Datatype col = kDatatypeNull;
    const int lny = kGrid / 2, w = lny + 2;
    c.check(te.vector(lny, 1, w, kDouble, &col) == Err::Success && te.commit(&col) == Err::Success,
            "stencil column type");
    std::vector<double> grid(static_cast<std::size_t>(w * w), 1.5);
    std::vector<std::byte> out(static_cast<std::size_t>(lny) * sizeof(double));
    std::uint64_t short_packs = 0;
    for (int r = 0; r < 96; ++r) {
      Scope s(&tr, "datatype.pack_vector", Layer::datatype, static_cast<std::uint32_t>(r), 256);
      for (int i = 0; i < 256; ++i) short_packs += dt::pack(te, grid.data() + 1, 1, col, out.data()) != out.size();
    }
    c.ops(96 * 256, short_packs, "vector pack");
  }
  c.layers.add("datatype.pack_vector_ns", span_median_ns(tr, "datatype.pack_vector"), "ns",
               "median over windows of 256 packs of the stencil column type");

  // Collectives on four ranks; only rank 0 records.
  {
    World w(kRanks);
    std::atomic<std::uint64_t> bad{0};
    std::atomic<int> wrong{0};
    w.run([&](Engine& e) {
      Tracer* t = e.world_rank() == 0 ? &tr : nullptr;
      std::uint64_t my_bad = 0;
      for (int r = 0; r < 24; ++r) {
        {
          Scope s(t, "coll.allreduce_8b", Layer::coll, static_cast<std::uint32_t>(r), 32);
          for (int i = 0; i < 32; ++i) {
            const double x = e.world_rank() + 1.0;
            double sum = 0.0;
            my_bad += e.allreduce(&x, &sum, 1, kDouble, ReduceOp::Sum, kCommWorld) != Err::Success;
            wrong += sum != 10.0;
          }
        }
        Scope s(t, "coll.barrier", Layer::coll, static_cast<std::uint32_t>(r), 32);
        for (int i = 0; i < 32; ++i) my_bad += e.barrier(kCommWorld) != Err::Success;
      }
      bad += my_bad;
    });
    c.ops(24 * 64 * kRanks, bad.load(), "allreduce/barrier");
    c.check(wrong.load() == 0, "allreduce sum of 1..4 is 10");
  }
  c.layers.add("coll.allreduce_8b_us", span_median_ns(tr, "coll.allreduce_8b") / 1e3, "us",
               "median over windows of 32 one-double allreduces, 4 ranks");
  c.layers.add("coll.barrier_us", span_median_ns(tr, "coll.barrier") / 1e3, "us",
               "median over windows of 32 barriers, 4 ranks");
}

}  // namespace

const Group kHalo = {"halo", "stencil_iter_rate_kps", true, e2e, layers, setup};

}  // namespace pb
