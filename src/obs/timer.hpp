#pragma once
// neuro::obs — compile-time-cheap phase timing (docs/ARCHITECTURE.md §14).
//
// The kernel hot paths (loihi::Chip's integrate/spike sweeps and synaptic
// accumulation) must not pay for observability when nobody is looking.
// obs::Timer is an RAII scope timer whose entire disabled cost is ONE
// relaxed atomic load and a predictable branch per scope — no clock read,
// no store. When enabled (obs::set_timing(true)) it reads the steady
// clock twice and accumulates the elapsed nanoseconds into a caller-owned
// std::uint64_t sink.
//
// The sink is a plain (non-atomic) integer: a Timer is only ever used
// around single-threaded sections (a Chip is stepped by exactly one
// thread; a worker Session runs on one worker). Cross-thread publication
// of the accumulated values goes through the owner's existing
// synchronization (the router reads phase deltas on the same worker
// thread that stepped the chip).
//
// Timers nest naturally: two scopes accumulating into different sinks
// simply both run; the same sink may also be shared by sibling scopes
// (totals add). That property is pinned by tests/obs_test.cpp.

#include <atomic>
#include <chrono>
#include <cstdint>

namespace neuro::obs {

namespace detail {
inline std::atomic<bool>& timing_flag() {
    static std::atomic<bool> enabled{false};
    return enabled;
}
}  // namespace detail

/// Global switch for every obs::Timer in the process. Relaxed: a flip is
/// not a synchronization point — scopes already running finish under the
/// policy they started with.
inline void set_timing(bool on) {
    detail::timing_flag().store(on, std::memory_order_relaxed);
}

inline bool timing_enabled() {
    return detail::timing_flag().load(std::memory_order_relaxed);
}

/// Monotonic nanoseconds; only called on the enabled path.
inline std::uint64_t now_ns() {
    return static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now().time_since_epoch())
            .count());
}

class Timer {
public:
    /// Starts timing iff the global switch is on; otherwise costs one
    /// relaxed load. `sink` must outlive the scope.
    explicit Timer(std::uint64_t& sink)
        : sink_(timing_enabled() ? &sink : nullptr),
          t0_(sink_ ? now_ns() : 0) {}

    Timer(const Timer&) = delete;
    Timer& operator=(const Timer&) = delete;

    /// Flushes and disarms early — for scopes that end before the block
    /// does (a second Timer may then cover the rest). Idempotent.
    void stop() {
        if (sink_) *sink_ += now_ns() - t0_;
        sink_ = nullptr;
    }

    ~Timer() { stop(); }

private:
    std::uint64_t* sink_;
    std::uint64_t t0_;
};

}  // namespace neuro::obs
