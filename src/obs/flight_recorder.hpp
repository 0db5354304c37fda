#pragma once
// neuro::obs::FlightRecorder — a fixed-size lock-free ring of structured
// control-plane events (docs/ARCHITECTURE.md §14).
//
// The serving stack emits an Event at every moment an operator will later
// ask "what happened?": CoDel/deadline head drops, LRU evictions, model
// loads, weight publishes and rollbacks, canary arm changes, connection
// errors, and slow requests (full span breakdown attached). The recorder
// keeps the most recent `capacity` of them in a ring of seqlock-style
// slots; the control socket dumps them as JSON (`events [n]`).
//
// Concurrency contract:
//   * record() is safe from any thread — serving workers, the epoll loop,
//     the learner. A fetch_add takes ticket t; a compare-exchange claims
//     the slot by moving its sequence word from an older complete value
//     (even, < 2t) to 2t+1; the words follow, then 2t+2. A writer lapped
//     by a newer sequence drops its event (older than the ring's window);
//     one that meets an older writer mid-write (odd) yields until it ends.
//   * snapshot() never blocks writers and never waits. It copies a slot's
//     words and discards them when the sequence changed underneath — a
//     slot overwritten mid-read yields a dropped event, never a torn read
//     (every word is an atomic, so the scheme is TSan-clean).
//   * Events are best-effort diagnostics: under writer bursts faster than
//     capacity, the oldest events are overwritten or dropped silently — the
//     ring records the RECENT past, total_recorded() the all-time count.
//
// The payload is a fixed Event struct packed into kWords u64 slots: no
// allocation, no pointers, so an Event is valid forever once copied out.

#include <array>
#include <atomic>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

namespace neuro::obs {

enum class EventKind : std::uint8_t {
    CoDelDrop = 0,     ///< admission shed stale head work (a=sojourn_us, b=class)
    DeadlineDrop = 1,  ///< SLO deadline passed in queue (a=sojourn_us, b=class)
    Eviction = 2,      ///< LRU evicted a resident model (a=weight_bytes)
    ModelLoad = 3,     ///< fleet entry became resident (a=weight_bytes)
    WeightPublish = 4, ///< online learner published (a=version, b=acc_ppm)
    Rollback = 5,      ///< candidate failed shadow eval (a=0, b=acc_ppm)
    CanaryChange = 6,  ///< canary split changed (a=percent, b=version; pin=100/0)
    ConnError = 7,     ///< netd closed a misbehaving connection (a=fd)
    SlowRequest = 8,   ///< latency above threshold (a=request_id, b=latency_us,
                       ///< spans[] = SpanId 1..7 values)
};
const char* to_string(EventKind k);

/// Accuracy as integer parts-per-million, the b word of WeightPublish and
/// Rollback events (events pack into u64 slots; 1e6 keeps 4 significant
/// digits).
inline std::uint64_t accuracy_ppm(double acc) {
    return acc <= 0.0 ? 0 : static_cast<std::uint64_t>(std::llround(acc * 1e6));
}

struct Event {
    std::uint64_t t_us = 0;   ///< serving-Clock time of the event
    EventKind kind = EventKind::CoDelDrop;
    std::uint64_t a = 0;      ///< kind-specific (see EventKind comments)
    std::uint64_t b = 0;
    std::array<std::uint64_t, 7> spans{};  ///< SlowRequest: SpanId 1..7
    char detail[40] = {};     ///< model name / error tag, NUL-terminated

    void set_detail(std::string_view s);
    std::string detail_str() const { return std::string(detail); }
};

class FlightRecorder {
public:
    /// Capacity is rounded up to a power of two (min 8).
    explicit FlightRecorder(std::size_t capacity = 4096);

    FlightRecorder(const FlightRecorder&) = delete;
    FlightRecorder& operator=(const FlightRecorder&) = delete;

    void record(const Event& e);

    /// Convenience for the common shape (no spans).
    void record(EventKind kind, std::uint64_t t_us, std::string_view detail,
                std::uint64_t a = 0, std::uint64_t b = 0);

    /// The most recent events, oldest first; at most `max_n` when nonzero.
    /// Slots being overwritten during the read are skipped.
    std::vector<Event> snapshot(std::size_t max_n = 0) const;

    /// All-time record() count (>= what the ring still holds).
    std::uint64_t total_recorded() const {
        return head_.load(std::memory_order_acquire);
    }
    std::size_t capacity() const { return capacity_; }

private:
    // t_us, kind, a, b, spans[7], detail (40 bytes = 5 words).
    static constexpr std::size_t kWords = 16;

    struct alignas(64) Slot {
        std::atomic<std::uint64_t> seq{0};  ///< 0 = never written
        std::array<std::atomic<std::uint64_t>, kWords> words{};
    };

    static std::array<std::uint64_t, kWords> pack(const Event& e);
    static Event unpack(const std::array<std::uint64_t, kWords>& w);

    std::size_t capacity_ = 0;   ///< power of two
    std::size_t mask_ = 0;
    std::unique_ptr<Slot[]> slots_;
    std::atomic<std::uint64_t> head_{0};  ///< next ticket
};

/// JSON array rendering for the control-socket `events` command.
std::string events_to_json(const std::vector<Event>& events);

/// Process-wide recorder: what neurod dumps. Tests build their own
/// FlightRecorder instances for isolation.
FlightRecorder& default_recorder();

}  // namespace neuro::obs
