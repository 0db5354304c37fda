#pragma once
// The clock seam of neuro::serve. Every time-dependent admission decision
// (CoDel sojourn tracking, drop-state scheduling, SLO deadlines, latency
// accounting) reads time through this interface instead of calling
// std::chrono directly, so the whole admission state machine is
// deterministically unit-testable: production injects nothing and gets a
// monotonic steady clock; tests inject a ManualClock and advance virtual
// time explicitly — no sleeps, no wall-time flakiness (tests/admission_test).
//
// The clock is only read at discrete decision points (enqueue, dequeue,
// completion). The one blocking wait, a consumer parked on an empty queue,
// is a condvar: it is about thread parking, not about admission semantics,
// and tests drive the queue event-style (items present, or the
// non-blocking try_pop) so they never actually wait.

#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>

namespace neuro::serve {

/// Monotonic microsecond clock. now_us() must never decrease; the epoch is
/// arbitrary (only differences are meaningful). Implementations must be
/// safe to call from any thread.
class Clock {
public:
    virtual ~Clock() = default;
    virtual std::uint64_t now_us() const = 0;
};

/// Production clock: std::chrono::steady_clock, epoch = construction.
class SteadyClock final : public Clock {
public:
    std::uint64_t now_us() const override {
        return static_cast<std::uint64_t>(
            std::chrono::duration_cast<std::chrono::microseconds>(
                std::chrono::steady_clock::now() - epoch_)
                .count());
    }

private:
    std::chrono::steady_clock::time_point epoch_ =
        std::chrono::steady_clock::now();
};

/// Test clock: virtual time that moves only when the test says so.
class ManualClock final : public Clock {
public:
    std::uint64_t now_us() const override {
        return now_.load(std::memory_order_acquire);
    }
    void advance_us(std::uint64_t delta) {
        now_.fetch_add(delta, std::memory_order_acq_rel);
    }
    void set_us(std::uint64_t t) { now_.store(t, std::memory_order_release); }

private:
    std::atomic<std::uint64_t> now_{0};
};

/// The shared production clock used when no clock is injected.
inline const std::shared_ptr<Clock>& default_clock() {
    static const std::shared_ptr<Clock> clock = std::make_shared<SteadyClock>();
    return clock;
}

}  // namespace neuro::serve
