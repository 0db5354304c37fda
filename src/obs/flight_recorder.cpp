#include "obs/flight_recorder.hpp"

#include <cstring>
#include <thread>

#include "common/json.hpp"
#include "obs/trace.hpp"

namespace neuro::obs {

const char* to_string(EventKind k) {
    switch (k) {
        case EventKind::CoDelDrop: return "codel_drop";
        case EventKind::DeadlineDrop: return "deadline_drop";
        case EventKind::Eviction: return "eviction";
        case EventKind::ModelLoad: return "model_load";
        case EventKind::WeightPublish: return "weight_publish";
        case EventKind::Rollback: return "rollback";
        case EventKind::CanaryChange: return "canary_change";
        case EventKind::ConnError: return "conn_error";
        case EventKind::SlowRequest: return "slow_request";
    }
    return "unknown";
}

const char* to_string(SpanId id) {
    switch (id) {
        case SpanId::QueueUs: return "queue_us";
        case SpanId::BatchUs: return "batch_us";
        case SpanId::ComputeUs: return "compute_us";
        case SpanId::ResolveUs: return "resolve_us";
        case SpanId::KernelSweepNs: return "kernel_sweep_ns";
        case SpanId::KernelAccumNs: return "kernel_accum_ns";
        case SpanId::TotalUs: return "total_us";
    }
    return "unknown";
}

void Event::set_detail(std::string_view s) {
    const std::size_t n = s.size() < sizeof detail - 1 ? s.size()
                                                       : sizeof detail - 1;
    std::memcpy(detail, s.data(), n);
    detail[n] = '\0';
}

namespace {
std::size_t round_up_pow2(std::size_t v) {
    std::size_t p = 8;
    while (p < v) p <<= 1;
    return p;
}
}  // namespace

FlightRecorder::FlightRecorder(std::size_t capacity)
    : capacity_(round_up_pow2(capacity)),
      mask_(capacity_ - 1),
      slots_(std::make_unique<Slot[]>(capacity_)) {}

std::array<std::uint64_t, FlightRecorder::kWords> FlightRecorder::pack(
    const Event& e) {
    std::array<std::uint64_t, kWords> w{};
    w[0] = e.t_us;
    w[1] = static_cast<std::uint64_t>(e.kind);
    w[2] = e.a;
    w[3] = e.b;
    for (std::size_t i = 0; i < e.spans.size(); ++i) w[4 + i] = e.spans[i];
    static_assert(sizeof e.detail == 5 * sizeof(std::uint64_t));
    std::memcpy(&w[11], e.detail, sizeof e.detail);
    return w;
}

Event FlightRecorder::unpack(const std::array<std::uint64_t, kWords>& w) {
    Event e;
    e.t_us = w[0];
    e.kind = static_cast<EventKind>(w[1] & 0xff);
    e.a = w[2];
    e.b = w[3];
    for (std::size_t i = 0; i < e.spans.size(); ++i) e.spans[i] = w[4 + i];
    std::memcpy(e.detail, &w[11], sizeof e.detail);
    e.detail[sizeof e.detail - 1] = '\0';
    return e;
}

void FlightRecorder::record(const Event& e) {
    const std::array<std::uint64_t, kWords> w = pack(e);
    const std::uint64_t t = head_.fetch_add(1, std::memory_order_acq_rel);
    Slot& s = slots_[t & mask_];
    // Claim the slot from an older, complete event (see the header): one
    // writer at a time writes a slot, and never an older event over a newer.
    std::uint64_t seq = s.seq.load(std::memory_order_acquire);
    for (;;) {
        if (seq > 2 * t) return;
        if (seq % 2 == 1) {
            std::this_thread::yield();
            seq = s.seq.load(std::memory_order_acquire);
        } else if (s.seq.compare_exchange_weak(seq, 2 * t + 1,
                                               std::memory_order_acquire)) {
            break;
        }
    }
    // Orders the claim before the word stores for a concurrent reader.
    std::atomic_thread_fence(std::memory_order_release);
    for (std::size_t i = 0; i < kWords; ++i)
        s.words[i].store(w[i], std::memory_order_relaxed);
    s.seq.store(2 * t + 2, std::memory_order_release);
}

void FlightRecorder::record(EventKind kind, std::uint64_t t_us,
                            std::string_view detail, std::uint64_t a,
                            std::uint64_t b) {
    Event e;
    e.kind = kind;
    e.t_us = t_us;
    e.a = a;
    e.b = b;
    e.set_detail(detail);
    record(e);
}

std::vector<Event> FlightRecorder::snapshot(std::size_t max_n) const {
    const std::uint64_t h = head_.load(std::memory_order_acquire);
    std::uint64_t begin = h > capacity_ ? h - capacity_ : 0;
    if (max_n != 0 && h - begin > max_n) begin = h - max_n;
    std::vector<Event> out;
    out.reserve(static_cast<std::size_t>(h - begin));
    for (std::uint64_t t = begin; t < h; ++t) {
        const Slot& s = slots_[t & mask_];
        if (s.seq.load(std::memory_order_acquire) != 2 * t + 2) continue;
        std::array<std::uint64_t, kWords> w;
        for (std::size_t i = 0; i < kWords; ++i)
            w[i] = s.words[i].load(std::memory_order_relaxed);
        std::atomic_thread_fence(std::memory_order_acquire);
        if (s.seq.load(std::memory_order_relaxed) != 2 * t + 2) continue;
        out.push_back(unpack(w));
    }
    return out;
}

std::string events_to_json(const std::vector<Event>& events) {
    std::string out = "[";
    bool first = true;
    for (const Event& e : events) {
        if (!first) out += ",";
        first = false;
        common::JsonObject obj;
        obj.add("t_us", e.t_us)
            .add("kind", to_string(e.kind))
            .add("detail", e.detail_str())
            .add("a", e.a)
            .add("b", e.b);
        if (e.kind == EventKind::SlowRequest) {
            std::string spans = "{";
            for (std::size_t i = 0; i < e.spans.size(); ++i) {
                if (i) spans += ",";
                spans += common::json_quote(
                    to_string(static_cast<SpanId>(i + 1)));
                spans += ":";
                spans += std::to_string(e.spans[i]);
            }
            spans += "}";
            obj.add_raw("spans", spans);
        }
        out += obj.str();
    }
    out += "]";
    return out;
}

FlightRecorder& default_recorder() {
    static FlightRecorder recorder;
    return recorder;
}

}  // namespace neuro::obs
