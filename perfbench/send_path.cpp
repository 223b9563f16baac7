// send_path: one rank on the blackhole ("infinitely fast") profile, the paper's
// Fig 5/6 method. Almost all of the time is sender software -- validation,
// thread gate, request, match bits, cost charges, obs hooks and the inject
// facade -- because the fabric drops every packet at the injection boundary.
// Transport, matching and receive-side progress do no work here.
#include <span>

#include "common.hpp"
#include "core/engine.hpp"
#include "cost/meter.hpp"
#include "net/fabric.hpp"
#include "obs/table.hpp"
#include "runtime/packet.hpp"
#include "runtime/world.hpp"

namespace pb {
namespace {
using namespace lwmpi;

constexpr int kWindow = 256;     // operations between completions
constexpr int kWinBytes = 64;    // RMA window size; put i targets disp i % 64
constexpr int kLayerRounds = 24; // rounds of the per-layer micro loops

// The host's vCPUs each switch, for seconds at a time, between an uncontended
// state and one where this single-threaded path runs about 1.5x slower, and
// the uncontended share of a run varies from run to run. A median of chunk
// rates then reads whichever state dominated the run. The chunks are spread
// over every CPU and the rate is their 95th percentile, which tracks the
// uncontended state while it holds for at least 5% of the chunks.
double fast_rate(const std::vector<double>& per_chunk) { return quantile(per_chunk, 0.95); }

WorldOptions blackhole(DeviceKind dev, BuildConfig b) {
  WorldOptions o;
  o.profile = net::infinite();
  o.ranks_per_node = 1;
  o.device = dev;
  o.build = b;
  return o;
}

// A one-rank world kept across chunks: a window in a fence epoch (flushed per
// window, as the Fig 5 harness does) and, on
// ch4, the predefined handle the ALL_OPTS path needs.
class SelfWorld {
 public:
  explicit SelfWorld(const WorldOptions& o) : w_(1, o), mem_(kWinBytes, 0), dev_(o.device) {
    w_.run([&](Engine& e) {
      if (e.device() == DeviceKind::Ch4) ok_ &= e.comm_dup_predefined(kCommWorld, kComm1) == Err::Success;
      ok_ &= e.win_create(mem_.data(), mem_.size(), 1, kCommWorld, &win_) == Err::Success;
      ok_ &= e.win_fence(win_) == Err::Success;
    });
  }
  ~SelfWorld() {
    w_.run([&](Engine& e) {
      e.win_fence(win_);
      e.win_free(&win_);
    });
  }
  SelfWorld(const SelfWorld&) = delete;
  SelfWorld& operator=(const SelfWorld&) = delete;

  bool ok() const noexcept { return ok_; }
  DeviceKind device() const noexcept { return dev_; }
  Win win() const noexcept { return win_; }
  std::vector<char>& mem() noexcept { return mem_; }
  void run(const std::function<void(Engine&)>& f) { w_.run(f); }

 private:
  World w_;
  std::vector<char> mem_;
  DeviceKind dev_;
  Win win_ = kWinNull;
  bool ok_ = true;
};

enum class Op { Isend, Put, AllOpts };

struct Names {
  const char* issue;     // span around a window of issues
  const char* complete;  // span around the window's completion call
  Layer layer;
};

// `windows` windows of `op` (after one untimed warm-up window); returns the
// elapsed ns of the timed windows. Err returns and unfinished requests count
// as failed operations; for puts the last window's bytes must land.
std::uint64_t run_windows(Ctx& c, SelfWorld& sw, Op op, int windows, const char* payload,
                          Tracer* tr, const Names& nm) {
  std::uint64_t elapsed = 0, bad = 0, n = 0;
  const int slot = c.slot++;
  sw.run([&](Engine& e) {
    pin_thread(slot);
    Request reqs[kWindow];
    for (int w = -1; w < windows; ++w) {
      const std::uint64_t t0 = now_ns();
      if (op == Op::Isend) {
        {
          Scope s(w < 0 ? nullptr : tr, nm.issue, nm.layer, static_cast<std::uint32_t>(w), kWindow);
          for (int i = 0; i < kWindow; ++i) {
            bad += e.isend(payload + i, 1, kChar, 0, 0, kCommWorld, &reqs[i]) != Err::Success;
          }
        }
        Scope s(w < 0 ? nullptr : tr, nm.complete, nm.layer, static_cast<std::uint32_t>(w), kWindow);
        bad += e.waitall(std::span<Request>(reqs, kWindow), {}) != Err::Success;
      } else if (op == Op::Put) {
        {
          Scope s(w < 0 ? nullptr : tr, nm.issue, nm.layer, static_cast<std::uint32_t>(w), kWindow);
          for (int i = 0; i < kWindow; ++i) {
            bad += e.put(payload + i, 1, kChar, 0, static_cast<std::uint64_t>(i % kWinBytes), 1,
                         kChar, sw.win()) != Err::Success;
          }
        }
        Scope s(w < 0 ? nullptr : tr, nm.complete, nm.layer, static_cast<std::uint32_t>(w), kWindow);
        bad += e.win_flush_all(sw.win()) != Err::Success;
      } else {
        {
          Scope s(w < 0 ? nullptr : tr, nm.issue, nm.layer, static_cast<std::uint32_t>(w), kWindow);
          for (int i = 0; i < kWindow; ++i) {
            bad += e.isend_all_opts(payload + i, 1, kChar, 0, kComm1) != Err::Success;
          }
        }
        Scope s(w < 0 ? nullptr : tr, nm.complete, nm.layer, static_cast<std::uint32_t>(w), kWindow);
        bad += e.comm_waitall(kComm1) != Err::Success;
      }
      if (w >= 0) elapsed += now_ns() - t0;
    }
    n = static_cast<std::uint64_t>(windows + 1) * kWindow;
    if (op == Op::Isend) {
      for (Request r : reqs) bad += r != kRequestNull;
    }
  });
  c.ops(n, bad, op == Op::Isend ? "isend" : op == Op::Put ? "put" : "isend_all_opts");
  // The original device sends puts as active messages, which the blackhole
  // drops; only ch4's direct path writes the window.
  if (op == Op::Put && sw.device() == DeviceKind::Ch4) {
    // Put i wrote payload[i] to disp i % 64, so disp d ends with payload[192 + d].
    if (c.force_wrong_once("send_path")) sw.mem()[0] ^= 0x5a;
    int wrong = 0;
    for (int d = 0; d < kWinBytes; ++d) {
      wrong += sw.mem()[static_cast<std::size_t>(d)] != payload[kWindow - kWinBytes + d];
    }
    c.check(wrong == 0, fmt("put (%s): %d of %d window bytes did not land", nm.issue, wrong, kWinBytes));
  }
  return elapsed;
}

std::vector<char> seeded_payload(Ctx& c) {
  std::vector<char> p(kWindow);
  for (char& b : p) b = static_cast<char>(c.rng() | 1);  // never 0, the window's initial value
  c.mix(p.data(), p.size());
  return p;
}

void e2e(Ctx& c, Report& out, double seconds, Tracer* tr) {
  SelfWorld dflt(blackhole(DeviceKind::Ch4, BuildConfig::dflt()));
  SelfWorld best(blackhole(DeviceKind::Ch4, BuildConfig::no_err_single_ipo()));
  c.check(dflt.ok() && best.ok(), "send_path world set-up");
  const std::vector<char> payload = seeded_payload(c);

  struct Case {
    const char* metric;
    SelfWorld* world;
    Op op;
    int windows;  // per timed chunk, sized to a few ms
    Names names;
    std::vector<double> rates;
  };
  Case cases[] = {
      {"isend_rate_mps", &dflt, Op::Isend, 32, {"core.isend", "core.waitall", Layer::core}, {}},
      {"isend_best_rate_mps", &best, Op::Isend, 48,
       {"core.isend_best", "core.waitall_best", Layer::core}, {}},
      {"put_rate_mps", &dflt, Op::Put, 160, {"rma.put", "rma.flush_all", Layer::rma}, {}},
      {"all_opts_rate_mps", &dflt, Op::AllOpts, 96,
       {"core.all_opts", "core.comm_waitall", Layer::core}, {}},
  };
  Budget b(seconds, 5);
  while (b.next()) {
    for (int i : c.order(4)) {
      Case& k = cases[i];
      const std::uint64_t ns = run_windows(c, *k.world, k.op, k.windows, payload.data(), tr, k.names);
      k.rates.push_back(ns > 0 ? 1e3 * k.windows * kWindow / static_cast<double>(ns) : 0.0);
    }
  }
  for (const Case& k : cases) {
    out.add(k.metric, fast_rate(k.rates), "M/s",
            fmt("p95 of %zu chunks x %d msgs over all CPUs, 1 byte, blackhole", k.rates.size(),
                k.windows * kWindow));
  }
}

double setup(Ctx&) {
  const std::uint64_t t0 = now_ns();
  World dflt(1, blackhole(DeviceKind::Ch4, BuildConfig::dflt()));
  World best(1, blackhole(DeviceKind::Ch4, BuildConfig::no_err_single_ipo()));
  return static_cast<double>(now_ns() - t0) / 1e9;  // teardown is not set-up
}

void layers(Ctx& c, Tracer& tr) {
  const std::vector<char> payload = seeded_payload(c);
  // Per-layer loops: the opt-in obs tiers and the reference device, each
  // against a default ch4 world measured in the same interleaved rounds.
  const WorldOptions ref = blackhole(DeviceKind::Ch4, BuildConfig::dflt());
  const WorldOptions orig = blackhole(DeviceKind::Orig, BuildConfig::dflt());
  WorldOptions no_counters = ref, prof = ref, record = ref, traced = ref;
  no_counters.build.counters = false;
  prof.prof = true;
  record.record = true;
  traced.build.trace = true;
  struct Case {
    WorldOptions o;
    Op op;
    Names names;
  };
  std::vector<Case> cases = {
      {ref, Op::Isend, {"obs.isend_ref", "obs.waitall_ref", Layer::core}},
      {no_counters, Op::Isend, {"obs.isend_counters_off", "obs.waitall_counters_off", Layer::core}},
      {prof, Op::Isend, {"obs.isend_prof", "obs.waitall_prof", Layer::obs}},
      {record, Op::Isend, {"obs.isend_record", "obs.waitall_record", Layer::obs}},
      {traced, Op::Isend, {"obs.isend_trace", "obs.waitall_trace", Layer::obs}},
      {orig, Op::Isend, {"orig.isend", "orig.waitall", Layer::orig}},
      {ref, Op::Put, {"rma.put_ref", "rma.flush_ref", Layer::rma}},
      {orig, Op::Put, {"orig.put", "orig.flush_all", Layer::orig}},
      {blackhole(DeviceKind::Ch4, BuildConfig::no_err_single_ipo()), Op::Put,
       {"rma.put_best", "rma.flush_best", Layer::rma}},
  };
  std::vector<std::unique_ptr<SelfWorld>> worlds;
  for (const Case& k : cases) worlds.push_back(std::make_unique<SelfWorld>(k.o));
  for (int r = 0; r < kLayerRounds; ++r) {
    for (std::size_t i = 0; i < cases.size(); ++i) {
      run_windows(c, *worlds[i], cases[i].op, 4, payload.data(), &tr, cases[i].names);
    }
  }
  worlds.clear();

  // cost::charge with no meter armed: the cost every charge site pays.
  for (int r = 0; r < kLayerRounds * 4; ++r) {
    Scope s(&tr, "cost.charge", Layer::cost, static_cast<std::uint32_t>(r), 4096);
    for (int i = 0; i < 4096; ++i) cost::charge(cost::Category::MandInject, 1);
  }
  // Fabric::inject on a blackhole fabric: the facade, the causal stamp and
  // the backend's drop (which frees the packet).
  {
    net::Fabric f(1, 1, net::infinite());
    rt::Packet* pk[kWindow];
    for (int r = 0; r < kLayerRounds * 4; ++r) {
      for (auto& p : pk) {
        p = rt::PacketPool::alloc();
        p->set_payload(payload.data(), 1);
      }
      Scope s(&tr, "net.blackhole_inject", Layer::net, static_cast<std::uint32_t>(r), kWindow);
      for (auto* p : pk) f.inject(0, 0, p);
    }
    c.check(f.dropped() == static_cast<std::uint64_t>(kLayerRounds) * 4 * kWindow,
            "blackhole fabric dropped every injected packet");
  }
  cost::Meter mi, mp;
  {
    Scope s(&tr, "obs.metered_walks", Layer::obs);
    mi = obs::metered_isend(DeviceKind::Ch4, BuildConfig::dflt());
    mp = obs::metered_put(DeviceKind::Ch4, BuildConfig::dflt());
  }

  auto med = [&](const char* n) { return span_median_ns(tr, n); };
  const std::string win = fmt("median over windows of %d calls", kWindow);
  c.layers.add("core.isend_ns", med("core.isend"), "ns", win + ", default build, comm rank map included");
  c.layers.add("core.waitall_ns_per_req", med("core.waitall"), "ns", win);
  c.layers.add("core.isend_best_ns", med("core.isend_best"), "ns", win + ", no-err-single-ipo");
  c.layers.add("core.all_opts_ns", med("core.all_opts"), "ns", win);
  c.layers.add("rma.put_ns", med("rma.put"), "ns", win);
  c.layers.add("rma.flush_ns_per_put", med("rma.flush_all"), "ns", win);
  c.layers.add("cost.charge_ns", med("cost.charge"), "ns", "median over windows of 4096 charges, no meter armed");
  c.layers.add("net.blackhole_inject_ns", med("net.blackhole_inject"), "ns", win);
  const double isend_ref = med("obs.isend_ref");
  c.layers.add("obs.counters_isend_ns", isend_ref - med("obs.isend_counters_off"), "ns",
               "isend counters on minus off, same rounds");
  c.layers.add("obs.prof_isend_ns", med("obs.isend_prof") - isend_ref, "ns",
               "isend prof on minus off");
  c.layers.add("obs.record_isend_ns", med("obs.isend_record") - isend_ref, "ns",
               "isend recorder on minus off");
  c.layers.add("obs.trace_isend_ns", med("obs.isend_trace") - isend_ref, "ns",
               "isend trace on minus off");
  c.layers.add("orig.isend_ns", med("orig.isend"), "ns", win + ", reference device");
  c.layers.add("orig.put_ns", med("orig.put"), "ns", win + ", reference device");
  c.layers.add("cost.isend_modeled_instr", static_cast<double>(mi.total()), "instr",
               "obs::metered_isend, ch4 default");
  c.layers.add("cost.put_modeled_instr", static_cast<double>(mp.total()), "instr",
               "obs::metered_put, ch4 default");

  const double ch4_isend = isend_ref + med("obs.waitall_ref");
  const double orig_isend = med("orig.isend") + med("orig.waitall");
  const double ch4_put = med("rma.put_ref") + med("rma.flush_ref");
  const double orig_put = med("orig.put") + med("orig.flush_all");
  c.layers.add("shape.isend_ch4_over_orig", ch4_isend > 0 ? orig_isend / ch4_isend : 0, "ratio",
               "isend+waitall rate, ch4 default over original, same rounds");
  c.layers.add("shape.put_ch4_over_orig", ch4_put > 0 ? orig_put / ch4_put : 0, "ratio",
               "put+flush rate, ch4 default over original, same rounds");
  const double best = c.e2e.get("isend_best_rate_mps");
  c.layers.add("shape.all_opts_over_isend_best", best > 0 ? c.e2e.get("all_opts_rate_mps") / best : 0,
               "ratio", "all_opts_rate_mps over isend_best_rate_mps, untraced");

  // Table 1's executed twin: modeled instructions beside measured ns.
  struct Row {
    const char* op;
    DeviceKind dev;
    BuildConfig b;
    double ns;
  };
  const Row rows[] = {
      {"isend", DeviceKind::Orig, BuildConfig::dflt(), med("orig.isend")},
      {"isend", DeviceKind::Ch4, BuildConfig::dflt(), med("core.isend")},
      {"isend", DeviceKind::Ch4, BuildConfig::no_err_single_ipo(), med("core.isend_best")},
      {"put", DeviceKind::Orig, BuildConfig::dflt(), med("orig.put")},
      {"put", DeviceKind::Ch4, BuildConfig::dflt(), med("rma.put")},
      {"put", DeviceKind::Ch4, BuildConfig::no_err_single_ipo(), med("rma.put_best")},
  };
  for (const Row& r : rows) {
    const cost::Meter m = std::string_view(r.op) == "isend" ? obs::metered_isend(r.dev, r.b)
                                                            : obs::metered_put(r.dev, r.b);
    c.table1.push_back(fmt("%-5s %-15s %-18s modeled %4llu instr  measured %8.2f ns  %6.3f ns/instr",
                           r.op, to_string(r.dev), r.b.label().c_str(),
                           static_cast<unsigned long long>(m.total()), r.ns,
                           m.total() > 0 ? r.ns / static_cast<double>(m.total()) : 0.0));
  }
}

}  // namespace

const Group kSendPath = {"send_path", "isend_rate_mps", true, e2e, layers, setup};

}  // namespace pb
