// Contract tests for neuro::obs (docs/ARCHITECTURE.md §14):
//   * Timer — zero accumulation while disabled, stop() flush + disarm,
//     nesting and shared-sink addition,
//   * TraceContext — span telescoping (queue+batch+compute+resolve ==
//     total) and saturating deltas,
//   * exposition — the Prometheus text format of family headers and
//     samples (labels, integer and float values),
//   * FlightRecorder — ordering, wraparound, detail truncation, the
//     events JSON, and concurrent writers against a snapshotting reader.

#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include "obs/exposition.hpp"
#include "obs/flight_recorder.hpp"
#include "obs/timer.hpp"
#include "obs/trace.hpp"

using namespace neuro;

namespace {

/// set_timing is process-global; every test that flips it restores the
/// disabled default so suites stay order-independent.
struct TimingGuard {
    explicit TimingGuard(bool on) { obs::set_timing(on); }
    ~TimingGuard() { obs::set_timing(false); }
};

}  // namespace

// ---- Timer ------------------------------------------------------------------

TEST(Timer, DisabledTimerNeverTouchesTheSink) {
    TimingGuard g(false);
    std::uint64_t sink = 0;
    {
        obs::Timer t(sink);
        volatile int spin = 0;
        for (int i = 0; i < 1000; ++i) spin = spin + i;
    }
    EXPECT_EQ(sink, 0u);
}

TEST(Timer, EnabledTimerAccumulatesElapsedNanoseconds) {
    TimingGuard g(true);
    std::uint64_t sink = 0;
    {
        obs::Timer t(sink);
        std::this_thread::sleep_for(std::chrono::milliseconds(2));
    }
    // Slept ~2ms; any positive accumulation proves the clock was read.
    EXPECT_GT(sink, 0u);
}

TEST(Timer, StopFlushesOnceAndDisarms) {
    TimingGuard g(true);
    std::uint64_t sink = 0;
    obs::Timer t(sink);
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
    t.stop();
    const std::uint64_t after_stop = sink;
    EXPECT_GT(after_stop, 0u);
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
    t.stop();  // idempotent: no second flush
    EXPECT_EQ(sink, after_stop);
}

TEST(Timer, SiblingScopesSharingASinkAdd) {
    TimingGuard g(true);
    std::uint64_t sink = 0;
    {
        obs::Timer a(sink);
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    const std::uint64_t first = sink;
    {
        obs::Timer b(sink);
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    EXPECT_GT(sink, first);
}

TEST(Timer, NestedScopesAccumulateIntoTheirOwnSinks) {
    TimingGuard g(true);
    std::uint64_t outer = 0;
    std::uint64_t inner = 0;
    {
        obs::Timer a(outer);
        {
            obs::Timer b(inner);
            std::this_thread::sleep_for(std::chrono::milliseconds(1));
        }
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    EXPECT_GT(inner, 0u);
    // The outer scope covers the inner one plus its own tail.
    EXPECT_GE(outer, inner);
}

TEST(Timer, FlipMidScopeKeepsTheStartingPolicy) {
    // A scope opened while timing is off stays off even if the switch
    // flips before it closes (the constructor decided).
    std::uint64_t sink = 0;
    obs::set_timing(false);
    {
        obs::Timer t(sink);
        obs::set_timing(true);
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    obs::set_timing(false);
    EXPECT_EQ(sink, 0u);
}

// ---- TraceContext -----------------------------------------------------------

TEST(TraceContext, SpansTelescopeToTotal) {
    obs::TraceContext t;
    t.enabled = true;
    t.t_intake_us = 100;
    t.t_dequeue_us = 180;
    t.t_dispatch_us = 250;
    t.t_compute_done_us = 1300;
    t.t_complete_us = 1320;
    EXPECT_EQ(t.queue_us(), 80u);
    EXPECT_EQ(t.batch_us(), 70u);
    EXPECT_EQ(t.compute_us(), 1050u);
    EXPECT_EQ(t.resolve_us(), 20u);
    EXPECT_EQ(t.queue_us() + t.batch_us() + t.compute_us() + t.resolve_us(),
              t.total_us());
}

TEST(TraceContext, DeltasSaturateAtZeroOnClockCoarseness) {
    // A coarse clock can stamp equal (or, through saturation math, even
    // out-of-order-looking) values; spans must never underflow.
    EXPECT_EQ(obs::TraceContext::delta(50, 50), 0u);
    EXPECT_EQ(obs::TraceContext::delta(60, 50), 0u);
    obs::TraceContext t;
    EXPECT_EQ(t.total_us(), 0u);
}

TEST(TraceContext, SpanIdNamesAreStable) {
    EXPECT_STREQ(obs::to_string(obs::SpanId::QueueUs), "queue_us");
    EXPECT_STREQ(obs::to_string(obs::SpanId::ComputeUs), "compute_us");
    EXPECT_STREQ(obs::to_string(obs::SpanId::KernelSweepNs),
                 "kernel_sweep_ns");
    EXPECT_STREQ(obs::to_string(obs::SpanId::TotalUs), "total_us");
}

// ---- exposition ---------------------------------------------------------------

TEST(Exposition, HelpAndTypeHeadTheFamily) {
    std::string out;
    obs::append_help_type(out, "neuro_alpha_ops_total", "counter",
                          "first family");
    EXPECT_EQ(out,
              "# HELP neuro_alpha_ops_total first family\n"
              "# TYPE neuro_alpha_ops_total counter\n");
}

TEST(Exposition, SamplesCarryLabelsAndExactValues) {
    std::string out;
    obs::append_sample(out, "neuro_alpha_ops_total", "", std::uint64_t{7});
    obs::append_sample(out, "neuro_model_hits_total", "{model=\"a\"}",
                       std::uint64_t{18446744073709551615ull});
    obs::append_sample(out, "neuro_lat_us", "{quantile=\"0.99\"}", 0.25);
    obs::append_sample(out, "neuro_depth", "", -4.0);
    // Doubles print with 17 significant digits: a scrape parses back to
    // the exact value.
    obs::append_sample(out, "neuro_rate", "", 0.1 + 0.2);
    EXPECT_EQ(out,
              "neuro_alpha_ops_total 7\n"
              "neuro_model_hits_total{model=\"a\"} 18446744073709551615\n"
              "neuro_lat_us{quantile=\"0.99\"} 0.25\n"
              "neuro_depth -4\n"
              "neuro_rate 0.30000000000000004\n");
}

// ---- FlightRecorder ---------------------------------------------------------

TEST(FlightRecorder, RecordsInOrderOldestFirst) {
    obs::FlightRecorder rec(16);
    for (std::uint64_t i = 0; i < 5; ++i)
        rec.record(obs::EventKind::ModelLoad, 100 + i, "m" + std::to_string(i),
                   i, 0);
    const auto events = rec.snapshot();
    ASSERT_EQ(events.size(), 5u);
    for (std::uint64_t i = 0; i < 5; ++i) {
        EXPECT_EQ(events[i].t_us, 100 + i);
        EXPECT_EQ(events[i].a, i);
        EXPECT_EQ(events[i].detail_str(), "m" + std::to_string(i));
        EXPECT_EQ(events[i].kind, obs::EventKind::ModelLoad);
    }
    EXPECT_EQ(rec.total_recorded(), 5u);
}

TEST(FlightRecorder, WraparoundKeepsTheMostRecentCapacityEvents) {
    obs::FlightRecorder rec(8);  // power of two already
    ASSERT_EQ(rec.capacity(), 8u);
    for (std::uint64_t i = 0; i < 20; ++i)
        rec.record(obs::EventKind::CoDelDrop, i, "d", i, 0);
    const auto events = rec.snapshot();
    ASSERT_EQ(events.size(), 8u);
    for (std::size_t i = 0; i < events.size(); ++i)
        EXPECT_EQ(events[i].a, 12 + i);  // tickets 12..19 survive
    EXPECT_EQ(rec.total_recorded(), 20u);
}

TEST(FlightRecorder, SnapshotMaxNReturnsTheNewestSuffix) {
    obs::FlightRecorder rec(32);
    for (std::uint64_t i = 0; i < 10; ++i)
        rec.record(obs::EventKind::Eviction, i, "e", i, 0);
    const auto events = rec.snapshot(3);
    ASSERT_EQ(events.size(), 3u);
    EXPECT_EQ(events[0].a, 7u);
    EXPECT_EQ(events[2].a, 9u);
}

TEST(FlightRecorder, CapacityRoundsUpToAPowerOfTwo) {
    obs::FlightRecorder rec(100);
    EXPECT_EQ(rec.capacity(), 128u);
    obs::FlightRecorder tiny(1);
    EXPECT_EQ(tiny.capacity(), 8u);  // floor
}

TEST(FlightRecorder, DetailTruncatesToThirtyNineBytesPlusNul) {
    obs::Event e;
    const std::string long_name(64, 'x');
    e.set_detail(long_name);
    EXPECT_EQ(std::strlen(e.detail), sizeof e.detail - 1);
    EXPECT_EQ(e.detail_str(), std::string(sizeof e.detail - 1, 'x'));
    e.set_detail("short");
    EXPECT_EQ(e.detail_str(), "short");
}

TEST(FlightRecorder, SlowRequestSpansSurviveTheRing) {
    obs::FlightRecorder rec(8);
    obs::Event e;
    e.kind = obs::EventKind::SlowRequest;
    e.t_us = 777;
    e.a = 42;       // request_id
    e.b = 125'000;  // latency_us
    for (std::size_t i = 0; i < e.spans.size(); ++i)
        e.spans[i] = 10 * (i + 1);
    e.set_detail("modelA");
    rec.record(e);
    const auto events = rec.snapshot();
    ASSERT_EQ(events.size(), 1u);
    EXPECT_EQ(events[0].spans, e.spans);
    EXPECT_EQ(events[0].detail_str(), "modelA");
}

TEST(FlightRecorder, EventsJsonCarriesKindsDetailsAndSpans) {
    obs::FlightRecorder rec(8);
    rec.record(obs::EventKind::Eviction, 5, "victim", 4096, 2);
    obs::Event slow;
    slow.kind = obs::EventKind::SlowRequest;
    slow.t_us = 9;
    slow.a = 1;
    slow.b = 200'000;
    slow.spans[0] = 11;  // queue_us
    slow.spans[6] = 77;  // total_us
    slow.set_detail("m0");
    rec.record(slow);
    const std::string json = obs::events_to_json(rec.snapshot());
    EXPECT_EQ(json.front(), '[');
    EXPECT_EQ(json.back(), ']');
    EXPECT_NE(json.find("\"kind\":\"eviction\""), std::string::npos) << json;
    EXPECT_NE(json.find("\"detail\":\"victim\""), std::string::npos);
    EXPECT_NE(json.find("\"kind\":\"slow_request\""), std::string::npos);
    EXPECT_NE(json.find("\"queue_us\":11"), std::string::npos);
    EXPECT_NE(json.find("\"total_us\":77"), std::string::npos);
    // Non-slow events carry no spans object.
    const auto eviction = json.find("\"kind\":\"eviction\"");
    const auto spans = json.find("\"spans\"");
    ASSERT_NE(spans, std::string::npos);
    EXPECT_GT(spans, eviction);
    EXPECT_EQ(obs::events_to_json({}), "[]");
}

TEST(FlightRecorder, ConcurrentWritersNeverBlockOrTearTheReader) {
    struct Input {
        std::size_t capacity;
        int writers;
        int rounds;
    };
    // The second input laps the ring every few events, so writers of
    // different laps race for one slot: an unclaimed write there could tear
    // an event or bury a newer one under an older one. Each round is a few
    // milliseconds; the rounds give the race many chances.
    for (const Input in : {Input{64, 4, 1}, Input{8, 16, 200}}) {
        SCOPED_TRACE("capacity " + std::to_string(in.capacity) + ", " +
                     std::to_string(in.writers) + " writers");
        for (int round = 0; round < in.rounds; ++round) {
            obs::FlightRecorder rec(in.capacity);
            constexpr std::uint64_t kPerWriter = 5'000;
            std::atomic<bool> stop{false};
            std::thread reader([&] {
                while (!stop.load(std::memory_order_acquire)) {
                    // Every surviving event must be internally consistent:
                    // the a-word always equals the t_us stamp in this
                    // workload, so a torn slot would be visible immediately.
                    for (const auto& e : rec.snapshot())
                        ASSERT_EQ(e.a, e.t_us);
                }
            });
            std::vector<std::thread> writers;
            for (int w = 0; w < in.writers; ++w)
                writers.emplace_back([&rec, w] {
                    for (std::uint64_t i = 0; i < kPerWriter; ++i) {
                        const std::uint64_t stamp = w * kPerWriter + i;
                        rec.record(obs::EventKind::ConnError, stamp, "fd",
                                   stamp, 0);
                    }
                });
            for (auto& t : writers) t.join();
            stop.store(true, std::memory_order_release);
            reader.join();
            ASSERT_EQ(rec.total_recorded(), in.writers * kPerWriter);
            // Quiescent: every slot holds one of the last capacity() tickets.
            ASSERT_EQ(rec.snapshot().size(), rec.capacity());
            for (const auto& e : rec.snapshot()) ASSERT_EQ(e.a, e.t_us);
        }
    }
}
