// MPICH/Original (CH3-style) baseline device.
//
// The original device funnels every operation through layered machinery: an
// abstract-device vtable dispatch, a mandatory request object, and a software
// send queue that the progress engine drains. The extra layering is both
// modeled (instruction charges) and real (allocation + queue transit), which
// is what gives the baseline its higher latency in the rate benchmarks and
// application studies.
#include "core/engine.hpp"
#include "cost/meter.hpp"
#include "cost/model.hpp"

namespace lwmpi {

Err Engine::orig_isend(const SendParams& p, Request* req) {
  // ADI3-style layered dispatch: MPI layer -> device vtable -> channel.
  cost::charge(cost::Category::OrigLayering, cost::kOrigAdiDispatch);
  cost::charge(cost::Category::OrigLayering, cost::kOrigExtraBranches);
  // CH3 always allocates and enqueues a full request state machine.
  cost::charge(cost::Category::OrigLayering, cost::kOrigSendQueueing);
  // The remainder of the path is the common stack walk; inject_or_queue
  // routes the built packet through the software send queue for this device.
  return ch4_isend(p, req);
}

// Drain one channel's software send queue onto the fabric. Caller holds the
// VCI's lock (the progress sweep, or an entry point that queued the packet).
void Engine::drain_send_queue(Vci& v) {
  while (!v.send_queue.empty()) {
    QueuedSend q = v.send_queue.front();
    v.send_queue.pop_front();
    v.send_q_depth.fetch_sub(1, std::memory_order_release);
    // Queue-residency latency: how long the packet sat staged before the
    // progress engine pushed it onto the wire -- the time cost of the CH3
    // layering that the instruction model charges as kOrigSendQueueing.
    if (q.enq_ts != 0) {
      v.lat.record(obs::LatPath::SendQueueWait, obs::lat_now_ns() - q.enq_ts);
    }
    traced_inject(v, q.dst_world, q.pkt, q.pkt->hdr.total_bytes);
  }
}

}  // namespace lwmpi
