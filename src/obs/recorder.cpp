#include "obs/recorder.hpp"

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <fstream>

#include "core/engine.hpp"
#include "net/fabric.hpp"
#include "runtime/backoff.hpp"
#include "runtime/world.hpp"

namespace lwmpi::obs {

std::string_view rec_kind_name(std::uint8_t kind) noexcept {
  if (kind == kRecKindSendrecvRecv) return "sendrecv.recv";
  if (kind == kRecKindWaitItem) return "wait.item";
  if (kind < static_cast<std::uint8_t>(Callsite::kCount)) {
    return to_string(static_cast<Callsite>(kind));
  }
  return "?";
}

RecTotals read_rec_totals(Engine& e) {
  RecTotals t;
  net::Fabric& fab = e.world().fabric();
  for (int v = 0; v < e.num_vcis(); ++v) {
    const VciCounters& c = e.vci_counters(v);
    t.sends_eager += c.get(VciCtr::SendEager);
    t.sends_rdv += c.get(VciCtr::SendRdv);
    t.recvs_posted += c.get(VciCtr::RecvPosted);
    t.matches += c.get(VciCtr::PostedMatch);
    t.misses += c.get(VciCtr::PostedMiss);
    t.injected_bytes += fab.injected_bytes(e.world_rank(), v);
  }
  t.injected = fab.injected(e.world_rank());
  return t;
}

// --- RankRec -----------------------------------------------------------------

RankRec::RankRec(std::size_t ring_depth, int sample_shift)
    : ops_(std::max<std::size_t>(ring_depth, 64)),
      sample_mask_((1ull << std::clamp(sample_shift, 0, 32)) - 1),
      links_(256, 0),  // pre-sized past the warm request range: no hot growth
      sample_shift_(std::clamp(sample_shift, 0, 32)),
      // Enough anchor slots to cover every sampled op still resident in the
      // ring, with slack so the gap chain rarely breaks at the seam.
      anchors_(std::max<std::size_t>((ops_.capacity() >> sample_shift_) + 8, 64)) {}

void RankRec::bind_grow(std::vector<std::uint64_t>& m, std::uint32_t slot) {
  // Flat-index space is dense (slot x 8 VCIs); grow geometrically with
  // headroom so binds amortize to O(1).
  m.resize(std::max<std::size_t>(slot + 128, m.size() * 2), 0);
}

void RankRec::stamp(std::uint64_t op_index, std::uint64_t t0) noexcept {
  const std::uint64_t t1 = lat_now_ns();
  RecAnchor a;
  a.op_index = op_index;
  a.t0_ns = t0;
  if (last_end_ns_ != 0 && t0 > last_end_ns_) {
    const std::uint64_t gap = t0 - last_end_ns_;
    a.gap_ns = gap > 0xFFFFFFFFull ? 0xFFFFFFFFu : static_cast<std::uint32_t>(gap);
  }
  const std::uint64_t dur = t1 > t0 ? t1 - t0 : 0;
  a.dur_ns = dur > 0xFFFFFFFFull ? 0xFFFFFFFFu : static_cast<std::uint32_t>(dur);
  last_end_ns_ = t1;
  anchors_.push(a);
}

// --- SurfaceScope sampled path -------------------------------------------------

namespace {
// This thread's armed record (only the outermost scope arms, so one slot).
struct RecSample {
  RankRec* rec = nullptr;
  std::uint64_t op_index = 0;
  std::uint64_t t0 = 0;
};
thread_local RecSample tl_rec_sample;
}  // namespace

void SurfaceScope::rec_arm(RankRec* r, std::uint64_t op_index) noexcept {
  tl_rec_sample = {r, op_index, lat_now_ns()};
}

void SurfaceScope::finish_sampled(std::uint8_t state) noexcept {
  if ((state & kProfArmed) != 0) prof_finish();
  if ((state & kRecArmed) != 0) {
    const RecSample& s = tl_rec_sample;
    s.rec->stamp(s.op_index, s.t0);
  }
}

// --- Recorder ----------------------------------------------------------------

Recorder::Recorder(int nranks, int nvcis, std::size_t ring_depth, int sample_shift)
    : nranks_(nranks), nvcis_(nvcis) {
  ranks_.reserve(static_cast<std::size_t>(nranks));
  for (int r = 0; r < nranks; ++r) {
    ranks_.push_back(std::make_unique<RankRec>(ring_depth, sample_shift));
  }
}

bool Recorder::flush(const std::string& prefix, const std::vector<RecTotals>& totals,
                     const std::string& provenance_json) {
  bool ok = true;
  std::string sidecar_ranks;
  for (int r = 0; r < nranks_; ++r) {
    const std::uint64_t t_flush0 = rt::now_ns();
    RankRec& rr = *ranks_[static_cast<std::size_t>(r)];
    std::uint64_t first = 0;  // op index of records[0]
    const std::vector<RecOp> records = rr.ops().collect(&first);
    const std::vector<RecAnchor> anchors = rr.anchors().collect();

    LwtraceHeader h;
    h.rank = static_cast<std::uint32_t>(r);
    h.nranks = static_cast<std::uint32_t>(nranks_);
    h.nvcis = static_cast<std::uint32_t>(nvcis_);
    h.sample_shift = static_cast<std::uint32_t>(rr.sample_shift());
    h.eager_threshold = eager_threshold_;
    h.total_ops = first + records.size();
    h.nrecords = records.size();
    const RecTotals t =
        static_cast<std::size_t>(r) < totals.size() ? totals[static_cast<std::size_t>(r)]
                                                    : RecTotals{};
    const std::uint64_t tvals[kNumRecTotals] = {t.sends_eager,  t.sends_rdv,
                                                t.recvs_posted, t.matches,
                                                t.misses,       t.injected,
                                                t.injected_bytes};
    std::memcpy(h.totals, tvals, sizeof(tvals));

    // Merge anchors into the surviving records. Both sequences are ordered by
    // op index, so one forward sweep pairs them up; anchors whose op scrolled
    // out of the ring are skipped.
    std::vector<DiskRec> disk(records.size());
    std::size_t ai = 0;
    for (std::size_t i = 0; i < records.size(); ++i) {
      const std::uint64_t idx = first + i;
      const RecOp& op = records[i];
      DiskRec& d = disk[i];
      d.peer = op.peer;
      d.tag = op.tag;
      d.bytes = op.bytes;
      d.link = op.link;
      d.vci = op.vci;
      d.kind = op.kind;
      while (ai < anchors.size() && anchors[ai].op_index < idx) ++ai;
      if (ai < anchors.size() && anchors[ai].op_index == idx) {
        d.t0_ns = anchors[ai].t0_ns;
        d.dur_ns = anchors[ai].dur_ns;
        d.gap_ns = anchors[ai].gap_ns;
        if (h.base_ns == 0) h.base_ns = anchors[ai].t0_ns;
        ++ai;
      }
    }

    const std::string path = prefix + ".rank" + std::to_string(r) + ".lwtrace";
    std::ofstream f(path, std::ios::binary | std::ios::trunc);
    if (!f) {
      ok = false;
      continue;
    }
    f.write(reinterpret_cast<const char*>(&h), sizeof(h));
    if (!disk.empty()) {
      f.write(reinterpret_cast<const char*>(disk.data()),
              static_cast<std::streamsize>(disk.size() * sizeof(DiskRec)));
    }
    f.flush();
    const std::uint64_t wrote = sizeof(h) + disk.size() * sizeof(DiskRec);
    rr.note_flush(wrote, rt::now_ns() - t_flush0);

    char buf[512];
    std::snprintf(buf, sizeof(buf),
                  "%s{\"rank\":%d,\"total_ops\":%llu,\"records\":%llu,\"anchors\":%llu,"
                  "\"sends_eager\":%llu,\"sends_rdv\":%llu,\"recvs_posted\":%llu,"
                  "\"matches\":%llu,\"misses\":%llu,\"injected\":%llu,"
                  "\"injected_bytes\":%llu}",
                  r == 0 ? "" : ",", r, static_cast<unsigned long long>(h.total_ops),
                  static_cast<unsigned long long>(h.nrecords),
                  static_cast<unsigned long long>(anchors.size()),
                  static_cast<unsigned long long>(t.sends_eager),
                  static_cast<unsigned long long>(t.sends_rdv),
                  static_cast<unsigned long long>(t.recvs_posted),
                  static_cast<unsigned long long>(t.matches),
                  static_cast<unsigned long long>(t.misses),
                  static_cast<unsigned long long>(t.injected),
                  static_cast<unsigned long long>(t.injected_bytes));
    sidecar_ranks += buf;
  }

  // The JSON sidecar: provenance plus the per-rank totals duplicated from the
  // binary headers for external tooling (the replay itself reads the binary).
  std::ofstream side(prefix + ".json", std::ios::trunc);
  if (!side) return false;
  side << "{\"lwmpi_trace\":" << kLwtraceVersion << ",\"nranks\":" << nranks_
       << ",\"nvcis\":" << nvcis_ << "," << provenance_json
       << ",\"ranks\":[" << sidecar_ranks << "]}\n";
  return ok && static_cast<bool>(side);
}

}  // namespace lwmpi::obs
