// World: the simulated MPI job.
//
// A World owns P Engine instances (one per rank), the shared fabric, and the
// global allocators (context ids, window ids). `run` executes an SPMD
// function with one thread per rank -- the reproduction's substitute for a
// multi-process cluster launch. Tests may instead drive several engines from
// a single thread, interleaving calls and progress manually.
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "core/config.hpp"
#include "net/fabric.hpp"
#include "net/profile.hpp"
#include "obs/ring.hpp"
#include "obs/trace.hpp"

namespace lwmpi {

class Engine;
namespace rma {
struct WindowGlobal;
}
namespace obs {
class Recorder;  // obs/recorder.hpp
}

// A World runs with exactly the options its constructor received; nothing in
// the environment or in process-global state changes them.
struct WorldOptions {
  int ranks_per_node = 16;
  net::Profile profile = net::loopback();
  // Transport backend behind the Fabric facade: "mailbox" (default, the
  // original simulated transport) or "rdma" (registration cache + eager
  // rings + zero-copy rendezvous). Unknown names throw at World construction.
  std::string netmod = "mailbox";
  DeviceKind device = DeviceKind::Ch4;
  BuildConfig build = {};
  std::size_t eager_threshold = 16 * 1024;
  // When non-empty (and the build has tracing on), World teardown stitches
  // this World's trace rings (trace_events()) into one globally-ordered
  // timeline and writes it here as JSONL -- the input format of
  // `lwmpi critpath`. The watchdog can dump the same file mid-run on a hang
  // (WatchdogOptions::causal_trace_path).
  std::string causal_trace_path;
  // When > 0, the engine busy-waits `modeled instructions x this` per
  // operation on the send, receive, and put paths, turning the instruction
  // cost model into simulated CPU time. The application studies (Figures 7-8)
  // use 1.0 ns/instruction, matching a BG/Q-like in-order core at 1.6 GHz
  // with sub-1 IPC on this branchy code.
  double sim_ns_per_instruction = 0.0;
  // Aggregate profiler (obs/profiler.hpp): phase regions, per-callsite
  // statistics, and the rank x rank communication matrix.
  bool prof = false;
  // When profiling is on and this is non-empty, World teardown writes the
  // versioned profile JSON artifact here (`lwmpi prof` input).
  std::string prof_path;
  // Flight recorder (obs/recorder.hpp): per-rank DXT-style op rings, flushed
  // as a `.lwtrace` trace bundle at teardown (or by the watchdog on a hang).
  bool record = false;
  std::string record_path;       // bundle prefix; empty = record but never flush
  // 1024 x 16B keeps the always-on ring L1-resident (the <2% overhead gate);
  // bundle-recording tools raise it so whole runs survive without wrapping.
  std::size_t record_ring_depth = 1024;
  // 1-in-2^8 timing anchors: the rdtsc stamp pair is the recorder's largest
  // per-op cost, so the always-on default samples sparsely (the <2% gate);
  // 0 = stamp every op (bundle-recording mode).
  int record_sample_shift = 8;
};

class World {
 public:
  explicit World(int nranks, WorldOptions opts = {});
  ~World();
  World(const World&) = delete;
  World& operator=(const World&) = delete;

  int nranks() const noexcept { return nranks_; }
  const WorldOptions& options() const noexcept { return opts_; }
  net::Fabric& fabric() noexcept { return fabric_; }
  Engine& engine(Rank r);

  // SPMD execution: one thread per rank. Exceptions thrown by any rank are
  // captured and the first one rethrown after all threads join.
  void run(const std::function<void(Engine&)>& fn);

  // Dump every rank's pvar registry (obs/pvar.hpp): human-readable text, or a
  // JSON object for the bench harness. Reads are relaxed-atomic, so this is
  // safe to call while ranks run, but call it after run() returns for a
  // consistent end-of-job picture.
  std::string stats_report(bool as_json = false);

  // --- aggregate profiler (obs/profiler.hpp) ---------------------------------
  // Null when WorldOptions::prof is off.
  obs::Profiler* profiler() noexcept { return profiler_.get(); }
  // MPI_Pcontrol-style phase regions applied to every rank at once (a single
  // rank can scope its own phases through Engine::phase_push/pop). No-ops
  // when profiling is off.
  void phase_push(std::string_view name);
  void phase_pop();
  // Merged cross-rank profile report: artifact_json() through the profile's
  // one text renderer (obs/profile_load.hpp) -- per-phase max/mean MPI time
  // and imbalance, top callsites, the heatmap, matrix hot spots and totals.
  // Empty when profiling is off.
  std::string profile_report();

  // --- flight recorder (obs/recorder.hpp) ------------------------------------
  // Null when WorldOptions::record is off.
  obs::Recorder* recorder() noexcept { return recorder_.get(); }
  // Write the trace bundle now: `<prefix>.rank<r>.lwtrace` per rank plus the
  // `<prefix>.json` provenance sidecar. `prefix` empty uses
  // options().record_path. Idempotent (teardown re-flushes after a watchdog
  // flush). Returns false when recording is off or no prefix is known.
  bool flush_recording(const std::string& prefix = {});

  // --- lifecycle tracing (obs/trace.hpp) --------------------------------------
  // Message ids, unique within this World; 0 means "no message".
  std::uint64_t next_trace_seq() noexcept {
    return next_trace_seq_.fetch_add(1, std::memory_order_relaxed);
  }
  // Every trace ring of this World: one per (rank, channel), rank-major.
  // Untraced worlds' rings hold nothing.
  std::vector<const obs::Ring<obs::trace::Event>*> trace_rings() const;
  // The events held in those rings, grouped by ring, oldest first within
  // each. Exact once the ranks are quiescent (after run() returns).
  std::vector<obs::trace::Event> trace_events() const;

  // Global id allocators. Context ids are handed out in pairs: (ctx) for
  // pt2pt and (ctx + 1) for the collective plane of the same communicator.
  std::uint32_t alloc_context_pair() noexcept {
    return next_ctx_.fetch_add(2, std::memory_order_relaxed);
  }
  // Contiguous block of `n` context pairs (comm_split needs one per color).
  std::uint32_t alloc_context_block(std::uint32_t n) noexcept {
    return next_ctx_.fetch_add(2 * n, std::memory_order_relaxed);
  }
  std::uint32_t alloc_win_id() noexcept {
    return next_win_.fetch_add(1, std::memory_order_relaxed);
  }

  // Window registry used by the collective win_create protocol: the root
  // registers the shared state, peers look it up after learning the id.
  std::shared_ptr<rma::WindowGlobal> register_window(std::shared_ptr<rma::WindowGlobal> w);
  std::shared_ptr<rma::WindowGlobal> find_window(std::uint32_t id);
  void unregister_window(std::uint32_t id);

 private:
  const int nranks_;
  WorldOptions opts_;
  net::Fabric fabric_;
  // Declared before engines_ so the profiler outlives the engines holding
  // RankProf pointers into it. Same ordering argument for the recorder.
  std::unique_ptr<obs::Profiler> profiler_;
  std::unique_ptr<obs::Recorder> recorder_;
  std::vector<std::unique_ptr<Engine>> engines_;
  std::atomic<std::uint32_t> next_ctx_;
  std::atomic<std::uint32_t> next_win_{1};
  std::atomic<std::uint64_t> next_trace_seq_{1};
  std::mutex win_mu_;
  std::unordered_map<std::uint32_t, std::shared_ptr<rma::WindowGlobal>> win_registry_;
};

// Reserved context ids for the predefined communicators.
inline constexpr std::uint32_t kWorldCtx = 0;  // +1 collective
inline constexpr std::uint32_t kSelfCtx = 2;   // +1 collective
inline constexpr std::uint32_t kFirstDynamicCtx = 4;

}  // namespace lwmpi
