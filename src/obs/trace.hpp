#pragma once
// neuro::obs::TraceContext — the per-request span record
// (docs/ARCHITECTURE.md §14).
//
// A traced request is stamped with the serving Clock (serve/clock.hpp —
// so ManualClock tests drive spans deterministically) at every phase
// boundary of the request path:
//
//   t_intake ──► t_dequeue ──► t_dispatch ──► t_compute_done ──► t_complete
//     submit      admission      its turn in      session           resolve /
//     accepted    dequeued       the batch,       predict            flush
//                                slot acquired    returned
//
// A worker takes what is queued (serve::collect_admitted) and never waits
// for a batch to fill, then runs the batch one predict per request in
// order — so the batch span is the wait behind earlier requests of the
// same batch.
//
// The derived spans telescope: queue + batch + compute + resolve ==
// t_complete - t_intake, which is exactly the wall latency the router
// measures — so the span sum always reconciles with latency_us (the
// end-to-end acceptance criterion pins them within 5%; by construction
// they match to clock resolution).
//
// kernel_sweep_ns / kernel_accum_ns attribute the compute span further:
// they are the loihi::Chip phase-timer deltas (obs/timer.hpp) consumed by
// this request's predict call — how much of "compute" was membrane sweep
// vs synaptic accumulation. They are nanoseconds from the steady clock
// (not the serving Clock) and are zero unless timing is enabled and the
// backend exposes phase counters.

#include <cstdint>

namespace neuro::obs {

struct TraceContext {
    bool enabled = false;       ///< untraced requests skip every stamp
    std::uint64_t t_intake_us = 0;        ///< accepted into the queue
    std::uint64_t t_dequeue_us = 0;       ///< left admission (dequeued)
    std::uint64_t t_dispatch_us = 0;      ///< its turn in batch, slot acquired
    std::uint64_t t_compute_done_us = 0;  ///< session predict returned
    std::uint64_t t_complete_us = 0;      ///< result resolved / flushed
    std::uint64_t kernel_sweep_ns = 0;    ///< chip integrate/spike sweep
    std::uint64_t kernel_accum_ns = 0;    ///< chip synaptic accumulation

    // Derived spans (all saturate at 0 so a coarse clock never underflows).
    static std::uint64_t delta(std::uint64_t a, std::uint64_t b) {
        return b >= a ? b - a : 0;
    }
    std::uint64_t queue_us() const { return delta(t_intake_us, t_dequeue_us); }
    std::uint64_t batch_us() const {
        return delta(t_dequeue_us, t_dispatch_us);
    }
    std::uint64_t compute_us() const {
        return delta(t_dispatch_us, t_compute_done_us);
    }
    std::uint64_t resolve_us() const {
        return delta(t_compute_done_us, t_complete_us);
    }
    /// Sum of the four phase spans == wall time intake→complete.
    std::uint64_t total_us() const { return delta(t_intake_us, t_complete_us); }
};

/// Wire/JSON span identifiers — stable ids shared by the netd v3 trace
/// echo, the slow-request flight-recorder events, and ARCHITECTURE §14.
enum class SpanId : std::uint8_t {
    QueueUs = 1,      ///< intake → admission dequeue
    BatchUs = 2,      ///< dequeue → its turn in the batch (slot acquired)
    ComputeUs = 3,    ///< dispatch → predict returned
    ResolveUs = 4,    ///< predict returned → resolved/flushed
    KernelSweepNs = 5,///< chip sweep share of compute (nanoseconds)
    KernelAccumNs = 6,///< chip accumulation share of compute (nanoseconds)
    TotalUs = 7,      ///< intake → complete (== sum of spans 1..4)
};

const char* to_string(SpanId id);

}  // namespace neuro::obs
