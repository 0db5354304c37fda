// Deterministic virtual-clock tests for the neuro::serve admission layer
// (serve/admission.hpp): every CoDel state transition, the sqrt-decreasing
// drop schedule, weighted round-robin interleaving, and deadline-aware
// drops are driven by a ManualClock — no sleeps, no wall-time flakiness.
// The Server-level tests at the bottom pin the end-to-end contracts: an
// expired deadline resolves Rejected{DeadlineExceeded} without costing a
// session slot, and with no drops the admission-enabled server is
// bit-identical to the default one and to sequential Session inference.

#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <vector>

#include "common/tensor.hpp"
#include "data/dataset.hpp"
#include "runtime/compiled_model.hpp"
#include "serve/admission.hpp"
#include "serve/clock.hpp"
#include "serve/server.hpp"

using namespace neuro;
using serve::Admitted;
using serve::AdmissionConfig;
using serve::AdmissionCounters;
using serve::AdmissionQueue;
using serve::DropCause;
using serve::Dropped;
using serve::ManualClock;
using serve::Priority;

namespace {

using IntQueue = AdmissionQueue<int>;

constexpr auto kI = static_cast<std::size_t>(Priority::Interactive);
constexpr auto kB = static_cast<std::size_t>(Priority::Batch);
constexpr auto kF = static_cast<std::size_t>(Priority::Feedback);

struct PopResult {
    bool admitted = false;
    Admitted<int> out;
    std::vector<Dropped<int>> drops;
};

/// One dequeue attempt that never parks the thread: try_pop decides
/// purely on queue state.
PopResult pop_now(IntQueue& q) {
    PopResult r;
    r.admitted = q.try_pop(r.out, r.drops);
    return r;
}

void push_ok(IntQueue& q, int v, Priority cls = Priority::Interactive,
             std::uint64_t deadline_us = 0) {
    ASSERT_EQ(q.try_push(v, cls, deadline_us), IntQueue::Push::Ok);
}

}  // namespace

// ---- construction / config validation --------------------------------------

TEST(AdmissionConfigValidation, RejectsDegenerateParameters) {
    EXPECT_THROW(IntQueue(0), std::invalid_argument);
    AdmissionConfig zero_weight;
    zero_weight.weights = {1, 0, 1};
    EXPECT_THROW(IntQueue(4, zero_weight), std::invalid_argument);
    AdmissionConfig bad_codel;
    bad_codel.codel.enabled = true;
    bad_codel.codel.target_us = 0;
    EXPECT_THROW(IntQueue(4, bad_codel), std::invalid_argument);
    bad_codel.codel.target_us = 1000;
    bad_codel.codel.interval_us = 0;
    EXPECT_THROW(IntQueue(4, bad_codel), std::invalid_argument);
}

// ---- CoDel state machine ----------------------------------------------------

TEST(CoDel, DisabledTracksSojournButNeverDrops) {
    auto clk = std::make_shared<ManualClock>();
    IntQueue q(16, AdmissionConfig{}, clk);  // codel.enabled == false
    for (int i = 0; i < 4; ++i) push_ok(q, i);
    clk->set_us(10'000'000);  // ten full seconds of standing delay
    for (int i = 0; i < 4; ++i) {
        const PopResult r = pop_now(q);
        ASSERT_TRUE(r.admitted);
        EXPECT_EQ(r.out.value, i);  // FIFO preserved
        EXPECT_EQ(r.out.sojourn_us, 10'000'000u);
        EXPECT_TRUE(r.drops.empty());
    }
    const AdmissionCounters c = q.counters();
    EXPECT_EQ(c.codel_dropped[kI], 0u);
    EXPECT_EQ(c.drop_state_entries, 0u);
    EXPECT_FALSE(q.codel_state().dropping);
}

TEST(CoDel, EntersDropStateOnlyAfterAFullIntervalAboveTarget) {
    auto clk = std::make_shared<ManualClock>();
    AdmissionConfig cfg;
    cfg.codel.enabled = true;
    cfg.codel.target_us = 1'000;
    cfg.codel.interval_us = 10'000;
    IntQueue q(16, cfg, clk);
    for (int i = 0; i < 4; ++i) push_ok(q, i);

    // Above target, but the interval clock only starts at the first
    // above-target dequeue — no drop yet.
    clk->set_us(2'000);
    PopResult r = pop_now(q);
    ASSERT_TRUE(r.admitted);
    EXPECT_EQ(r.out.value, 0);
    EXPECT_TRUE(r.drops.empty());
    EXPECT_FALSE(q.codel_state().dropping);
    EXPECT_EQ(q.codel_state().first_above_us, 12'000u);  // 2000 + interval

    // Still inside the grace interval: admitted.
    r = pop_now(q);
    ASSERT_TRUE(r.admitted);
    EXPECT_EQ(r.out.value, 1);
    EXPECT_TRUE(r.drops.empty());

    // Interval elapsed while above target: the head entry is shed and the
    // queue enters the drop state (count = 1, next drop one interval out).
    clk->set_us(12'000);
    r = pop_now(q);
    ASSERT_TRUE(r.admitted);
    EXPECT_EQ(r.out.value, 3);  // 2 was dropped from the head
    ASSERT_EQ(r.drops.size(), 1u);
    EXPECT_EQ(r.drops[0].value, 2);
    EXPECT_EQ(r.drops[0].cause, DropCause::Overload);
    EXPECT_EQ(r.drops[0].sojourn_us, 12'000u);

    const AdmissionCounters c = q.counters();
    EXPECT_EQ(c.accepted[kI], 4u);
    EXPECT_EQ(c.dispatched[kI], 3u);
    EXPECT_EQ(c.codel_dropped[kI], 1u);
    EXPECT_EQ(c.drop_state_entries, 1u);
}

// The full scripted lifecycle on one timeline: sqrt-decreasing drop
// schedule while in the drop state, exit when sojourn falls back under
// target, hysteresis on quick re-entry (count resumes at count - 2), and
// fresh restart (count = 1) when the previous drop state is ancient.
TEST(CoDel, DropScheduleExitHysteresisAndRestart) {
    auto clk = std::make_shared<ManualClock>();
    AdmissionConfig cfg;
    cfg.codel.enabled = true;
    cfg.codel.target_us = 1'000;
    cfg.codel.interval_us = 10'000;
    IntQueue q(32, cfg, clk);
    for (int i = 0; i < 12; ++i) push_ok(q, i);

    clk->set_us(2'000);
    EXPECT_EQ(pop_now(q).out.value, 0);  // arms first_above = 12000
    EXPECT_EQ(pop_now(q).out.value, 1);

    // Entering the drop state sheds one entry; each later pop at the
    // scheduled time sheds exactly one more. The schedule is
    //   drop_next += interval / sqrt(count)
    // i.e. 10000/sqrt(1..4) = 10000, 7071, 5773, 5000 microseconds apart.
    struct Step {
        std::uint64_t at_us;
        int dropped, admitted;
        std::uint32_t count;
        std::uint64_t drop_next_us;
    };
    const Step steps[] = {
        {12'000, 2, 3, 1, 22'000},
        {22'000, 4, 5, 2, 29'071},
        {29'071, 6, 7, 3, 34'844},
        {34'844, 8, 9, 4, 39'844},
    };
    for (const Step& s : steps) {
        clk->set_us(s.at_us);
        const PopResult r = pop_now(q);
        ASSERT_TRUE(r.admitted);
        ASSERT_EQ(r.drops.size(), 1u);
        EXPECT_EQ(r.drops[0].value, s.dropped);
        EXPECT_EQ(r.drops[0].cause, DropCause::Overload);
        EXPECT_EQ(r.out.value, s.admitted);
        const serve::CoDelState st = q.codel_state();
        EXPECT_TRUE(st.dropping);
        EXPECT_EQ(st.count, s.count);
        EXPECT_EQ(st.drop_next_us, s.drop_next_us);
    }

    // Two stale entries (10, 11) remain; fresh traffic arrives. The stale
    // heads dispatch (next scheduled drop is at 39844, still ahead) …
    clk->set_us(34'900);
    push_ok(q, 100);
    push_ok(q, 101);
    EXPECT_EQ(pop_now(q).out.value, 10);
    EXPECT_EQ(pop_now(q).out.value, 11);

    // … and the first under-target sojourn exits the drop state.
    clk->set_us(35'200);
    const PopResult exit_pop = pop_now(q);
    ASSERT_TRUE(exit_pop.admitted);
    EXPECT_EQ(exit_pop.out.value, 100);
    EXPECT_EQ(exit_pop.out.sojourn_us, 300u);
    EXPECT_FALSE(q.codel_state().dropping);
    EXPECT_EQ(q.codel_state().count, 4u);  // remembered for hysteresis

    // Standing delay builds again within 16 intervals of the last drop
    // state: re-entry resumes near the previous drop rate (count = 4 - 2),
    // not from scratch.
    push_ok(q, 102);
    push_ok(q, 103);
    clk->set_us(40'000);
    EXPECT_EQ(pop_now(q).out.value, 101);  // re-arms first_above = 50000
    clk->set_us(50'000);
    const PopResult reenter = pop_now(q);
    ASSERT_TRUE(reenter.admitted);
    ASSERT_EQ(reenter.drops.size(), 1u);
    EXPECT_EQ(reenter.drops[0].value, 102);
    EXPECT_EQ(reenter.out.value, 103);
    EXPECT_EQ(q.codel_state().count, 2u);          // 4 - 2, hysteresis
    EXPECT_EQ(q.codel_state().drop_next_us, 57'071u);  // 50000 + 10000/sqrt(2)
    EXPECT_EQ(q.counters().drop_state_entries, 2u);

    // Ancient drop state (>16 intervals ago) + low count: restart at 1.
    clk->set_us(250'000);
    push_ok(q, 200);
    push_ok(q, 201);
    push_ok(q, 202);
    clk->set_us(261'000);
    EXPECT_EQ(pop_now(q).out.value, 200);  // re-arms first_above = 271000
    clk->set_us(271'000);
    const PopResult restart = pop_now(q);
    ASSERT_TRUE(restart.admitted);
    ASSERT_EQ(restart.drops.size(), 1u);
    EXPECT_EQ(restart.drops[0].value, 201);
    EXPECT_EQ(q.codel_state().count, 1u);
    EXPECT_EQ(q.counters().drop_state_entries, 3u);

    // Disposition bookkeeping balances: everything accepted was either
    // dispatched or explicitly dropped.
    const AdmissionCounters c = q.counters();
    EXPECT_EQ(c.accepted[kI], c.dispatched[kI] + c.codel_dropped[kI] +
                                  c.deadline_dropped[kI] + q.size());
}

TEST(CoDel, EmptyQueueResetsAboveTargetTracking) {
    auto clk = std::make_shared<ManualClock>();
    AdmissionConfig cfg;
    cfg.codel.enabled = true;
    cfg.codel.target_us = 1'000;
    cfg.codel.interval_us = 10'000;
    IntQueue q(16, cfg, clk);

    // Two entries with huge sojourn — but the queue empties before the
    // interval elapses, so nothing drops and first_above resets: a queue
    // that drains to empty holds no STANDING delay.
    push_ok(q, 0);
    push_ok(q, 1);
    clk->set_us(500'000);
    PopResult r = pop_now(q);
    ASSERT_TRUE(r.admitted);
    EXPECT_TRUE(r.drops.empty());
    EXPECT_EQ(q.codel_state().first_above_us, 510'000u);
    r = pop_now(q);  // last entry: total drops to 0 → tracking resets
    ASSERT_TRUE(r.admitted);
    EXPECT_TRUE(r.drops.empty());
    EXPECT_EQ(q.codel_state().first_above_us, 0u);
    EXPECT_EQ(q.counters().codel_dropped[kI], 0u);
}

// ---- weighted round robin ---------------------------------------------------

TEST(Wrr, WeightedInterleavingAcrossClasses) {
    auto clk = std::make_shared<ManualClock>();
    AdmissionConfig cfg;
    cfg.weights = {2, 1, 1};
    IntQueue q(16, cfg, clk);
    for (int v : {0, 1, 2, 3}) push_ok(q, v, Priority::Interactive);
    for (int v : {10, 11}) push_ok(q, v, Priority::Batch);
    for (int v : {20, 21}) push_ok(q, v, Priority::Feedback);

    std::vector<int> order;
    for (int i = 0; i < 8; ++i) {
        const PopResult r = pop_now(q);
        ASSERT_TRUE(r.admitted);
        ASSERT_TRUE(r.drops.empty());
        order.push_back(r.out.value);
    }
    // Weights {2,1,1}: two Interactive per Batch per Feedback, FIFO within
    // each class.
    EXPECT_EQ(order, (std::vector<int>{0, 1, 10, 20, 2, 3, 11, 21}));
}

TEST(Wrr, WorkConservingWhenOtherClassesAreEmpty) {
    auto clk = std::make_shared<ManualClock>();
    AdmissionConfig cfg;
    cfg.weights = {8, 1, 1};
    IntQueue q(16, cfg, clk);
    for (int v : {10, 11, 12, 13, 14}) push_ok(q, v, Priority::Batch);
    for (int i = 0; i < 5; ++i) {
        const PopResult r = pop_now(q);
        ASSERT_TRUE(r.admitted);
        EXPECT_EQ(r.out.value, 10 + i);  // sole class drains back-to-back
        EXPECT_EQ(r.out.cls, Priority::Batch);
    }
}

TEST(Wrr, DropsDoNotConsumeAClassQuantum) {
    auto clk = std::make_shared<ManualClock>();
    clk->set_us(1'000);
    AdmissionConfig cfg;
    cfg.weights = {2, 1, 1};
    IntQueue q(16, cfg, clk);
    push_ok(q, 90, Priority::Interactive, 500);  // deadline already passed
    push_ok(q, 0, Priority::Interactive);
    push_ok(q, 1, Priority::Interactive);
    push_ok(q, 10, Priority::Batch);
    push_ok(q, 20, Priority::Feedback);

    // The expired head is shed, yet Interactive still gets its full two
    // dispatches before the rotation moves on.
    PopResult r = pop_now(q);
    ASSERT_TRUE(r.admitted);
    ASSERT_EQ(r.drops.size(), 1u);
    EXPECT_EQ(r.drops[0].value, 90);
    EXPECT_EQ(r.drops[0].cause, DropCause::DeadlineExceeded);
    EXPECT_EQ(r.out.value, 0);
    EXPECT_EQ(pop_now(q).out.value, 1);
    EXPECT_EQ(pop_now(q).out.value, 10);
    EXPECT_EQ(pop_now(q).out.value, 20);
}

// ---- deadline-aware drop ----------------------------------------------------

TEST(Deadline, ExpiredEntryIsNeverDispatchedAndSkipsTheCoDelEstimator) {
    auto clk = std::make_shared<ManualClock>();
    clk->set_us(1'000);
    AdmissionConfig cfg;
    cfg.codel.enabled = true;
    cfg.codel.target_us = 100;  // sojourn will be far above target
    cfg.codel.interval_us = 10'000;
    IntQueue q(16, cfg, clk);
    push_ok(q, 7, Priority::Batch, 1'500);
    clk->set_us(2'000);

    PopResult r = pop_now(q);
    EXPECT_FALSE(r.admitted);  // nothing admitted — but the drop is handed back
    ASSERT_EQ(r.drops.size(), 1u);
    EXPECT_EQ(r.drops[0].value, 7);
    EXPECT_EQ(r.drops[0].cls, Priority::Batch);
    EXPECT_EQ(r.drops[0].cause, DropCause::DeadlineExceeded);
    EXPECT_EQ(r.drops[0].sojourn_us, 1'000u);

    const AdmissionCounters c = q.counters();
    EXPECT_EQ(c.deadline_dropped[kB], 1u);
    EXPECT_EQ(c.dispatched[kB], 0u);
    EXPECT_EQ(c.codel_dropped[kB], 0u);
    // A deadline miss is not served traffic: it must not arm the CoDel
    // above-target tracking even though its sojourn exceeded target.
    EXPECT_EQ(q.codel_state().first_above_us, 0u);
}

TEST(Deadline, BoundaryIsInclusive) {
    auto clk = std::make_shared<ManualClock>();
    clk->set_us(1'000);
    IntQueue q(16, AdmissionConfig{}, clk);
    push_ok(q, 1, Priority::Interactive, 2'000);
    clk->set_us(2'000);  // now == deadline: still within the SLO
    const PopResult r = pop_now(q);
    ASSERT_TRUE(r.admitted);
    EXPECT_EQ(r.out.value, 1);
    EXPECT_TRUE(r.drops.empty());
}

TEST(Deadline, MixedHeadDrainsExpiredThenAdmitsLive) {
    auto clk = std::make_shared<ManualClock>();
    clk->set_us(1'000);
    IntQueue q(16, AdmissionConfig{}, clk);
    push_ok(q, 90, Priority::Interactive, 1'200);
    push_ok(q, 91, Priority::Interactive, 1'300);
    push_ok(q, 1, Priority::Interactive);  // no deadline
    clk->set_us(5'000);
    const PopResult r = pop_now(q);
    ASSERT_TRUE(r.admitted);
    EXPECT_EQ(r.out.value, 1);
    ASSERT_EQ(r.drops.size(), 2u);
    EXPECT_EQ(r.drops[0].value, 90);
    EXPECT_EQ(r.drops[1].value, 91);
}

// ---- queue lifecycle --------------------------------------------------------

TEST(AdmissionLifecycle, CloseDrainsAcceptedThenReportsTerminalFalse) {
    auto clk = std::make_shared<ManualClock>();
    IntQueue q(8, AdmissionConfig{}, clk);
    for (int i = 0; i < 3; ++i) push_ok(q, i);
    q.close();
    int rejected = 99;
    EXPECT_EQ(q.try_push(rejected, Priority::Interactive), IntQueue::Push::Closed);
    EXPECT_FALSE(q.push(rejected, Priority::Interactive));
    for (int i = 0; i < 3; ++i) {
        const PopResult r = pop_now(q);
        ASSERT_TRUE(r.admitted);
        EXPECT_EQ(r.out.value, i);
    }
    PopResult done = pop_now(q);
    EXPECT_FALSE(done.admitted);
    EXPECT_TRUE(done.drops.empty());  // terminal: closed and drained
    Admitted<int> out;
    std::vector<Dropped<int>> drops;
    EXPECT_FALSE(q.pop(out, drops));  // blocking pop agrees, without blocking
}

// ---- collect_admitted -------------------------------------------------------

TEST(CollectAdmitted, DeliversTrailingDropsOnDrain) {
    auto clk = std::make_shared<ManualClock>();
    clk->set_us(1'000);
    IntQueue q(8, AdmissionConfig{}, clk);
    push_ok(q, 90, Priority::Interactive, 1'100);
    push_ok(q, 91, Priority::Interactive, 1'100);
    clk->set_us(2'000);
    q.close();

    std::vector<int> dropped;
    std::vector<Admitted<int>> out;
    const serve::BatchPolicy policy{4};
    const bool alive = serve::collect_admitted(
        q, policy, out, [&](Dropped<int>&& d) { dropped.push_back(d.value); });
    // The collect ends the drain (false) — but both expired entries were
    // still surfaced through the drop sink, never silently discarded.
    EXPECT_FALSE(alive);
    EXPECT_TRUE(out.empty());
    EXPECT_EQ(dropped, (std::vector<int>{90, 91}));
}

TEST(CollectAdmitted, CoalescesPastDropsWithinOneBatch) {
    auto clk = std::make_shared<ManualClock>();
    clk->set_us(1'000);
    IntQueue q(8, AdmissionConfig{}, clk);
    push_ok(q, 1, Priority::Interactive);
    push_ok(q, 90, Priority::Interactive, 1'100);  // will expire
    push_ok(q, 2, Priority::Interactive);
    clk->set_us(2'000);

    std::vector<int> dropped;
    std::vector<Admitted<int>> out;
    const serve::BatchPolicy policy{3};
    ASSERT_TRUE(serve::collect_admitted(
        q, policy, out, [&](Dropped<int>&& d) { dropped.push_back(d.value); }));
    ASSERT_EQ(out.size(), 2u);
    EXPECT_EQ(out[0].value, 1);
    EXPECT_EQ(out[1].value, 2);
    EXPECT_EQ(dropped, (std::vector<int>{90}));
}

// ---- Server integration (ManualClock end-to-end) ----------------------------

namespace {

std::shared_ptr<const runtime::CompiledModel> make_model() {
    runtime::ModelSpec spec;
    spec.input(1, 12, 12).hidden_layers({40}).output_classes(10);
    return runtime::CompiledModel::compile(spec,
                                           runtime::BackendKind::LoihiSim);
}

data::Dataset make_images(std::size_t n) {
    data::GenOptions gen;
    gen.count = n;
    gen.seed = 21;
    gen.height = 12;
    gen.width = 12;
    return data::make_digits(gen);
}

}  // namespace

TEST(ServerAdmission, ExpiredDeadlineResolvesRejectedWithoutASessionSlot) {
    auto clk = std::make_shared<ManualClock>();
    clk->set_us(1'000);
    serve::ServerOptions opt;
    opt.workers = 1;
    opt.clock = clk;
    serve::Server server(make_model(), opt);  // not started: queue absorbs

    const auto images = make_images(4);
    std::vector<serve::InferenceHandle> doomed;
    serve::SubmitOptions sub;
    sub.deadline_us = 500;  // absolute deadline 1500 on the manual clock
    for (int i = 0; i < 3; ++i)
        doomed.push_back(server.submit(images.samples[0].image, sub));
    clk->set_us(10'000);  // all three SLOs are now long gone
    server.start();

    for (auto& h : doomed) {
        serve::InferenceResult r = h.get();
        EXPECT_EQ(r.status, serve::Status::Rejected);
        EXPECT_EQ(r.reject, serve::RejectReason::DeadlineExceeded);
        EXPECT_EQ(r.sojourn_us, 9'000.0);
    }
    // The pool is still healthy: live traffic flows normally.
    serve::InferenceResult ok = server.submit(images.samples[1].image).get();
    EXPECT_EQ(ok.status, serve::Status::Ok);
    server.shutdown();

    const serve::ServerStats s = server.stats();
    EXPECT_EQ(s.accepted, 4u);
    EXPECT_EQ(s.completed, 1u);
    EXPECT_EQ(s.deadline_dropped, 3u);
    EXPECT_EQ(s.class_deadline_dropped[kI], 3u);
    EXPECT_EQ(s.codel_dropped, 0u);
    EXPECT_EQ(s.errors, 0u);
}

TEST(ServerAdmission, PriorityClassRoundTripsIntoResultAndStats) {
    serve::ServerOptions opt;
    opt.workers = 1;
    opt.admission.feedback_capacity = 8;
    serve::Server server(make_model(), opt);
    server.start();
    const auto images = make_images(2);

    serve::SubmitOptions batch_cls;
    batch_cls.priority = Priority::Batch;
    serve::InferenceResult r = server.submit(images.samples[0].image, batch_cls).get();
    EXPECT_EQ(r.status, serve::Status::Ok);
    EXPECT_EQ(r.priority, Priority::Batch);
    EXPECT_GE(r.latency_us, r.sojourn_us);

    ASSERT_TRUE(server.submit_feedback(images.samples[1].image, 3));
    server.shutdown();

    const serve::ServerStats s = server.stats();
    EXPECT_EQ(s.class_accepted[kB], 1u);
    EXPECT_EQ(s.class_accepted[kF], 1u);  // feedback rides the Feedback class
    EXPECT_EQ(s.class_codel_dropped[kB], 0u);
    EXPECT_EQ(s.drop_state_entries, 0u);
}

TEST(ServerAdmission, NoDropAdmissionIsBitIdenticalToDefaultServerAndSession) {
    const auto model = make_model();
    const auto data = make_images(24);

    // Ground truth: plain sequential Session inference.
    std::vector<std::size_t> expected;
    {
        auto session = model->open_session();
        for (const auto& s : data.samples)
            expected.push_back(session->predict(s.image));
    }

    // Admission fully enabled, but nothing ever crosses the (generous)
    // CoDel target and no deadlines are set — so no drops occur, and every
    // accepted result must be bit-identical to the admission-free path.
    serve::ServerOptions opt;
    opt.workers = 3;
    opt.admission.codel.enabled = true;
    opt.admission.codel.target_us = 10'000'000;
    opt.admission.codel.interval_us = 1'000'000;
    opt.admission.weights = {4, 2, 1};
    serve::Server server(model, opt);
    server.start();

    std::vector<serve::InferenceHandle> handles;
    for (std::size_t i = 0; i < data.samples.size(); ++i) {
        serve::SubmitOptions sub;
        sub.priority = (i % 2 == 0) ? Priority::Interactive : Priority::Batch;
        handles.push_back(server.submit(data.samples[i].image, sub));
    }
    for (std::size_t i = 0; i < handles.size(); ++i) {
        serve::InferenceResult r = handles[i].get();
        ASSERT_EQ(r.status, serve::Status::Ok);
        EXPECT_EQ(r.label, expected[i]) << "image " << i;
    }
    server.shutdown();

    const serve::ServerStats s = server.stats();
    EXPECT_EQ(s.codel_dropped, 0u);
    EXPECT_EQ(s.deadline_dropped, 0u);
    EXPECT_EQ(s.drop_state_entries, 0u);
    EXPECT_EQ(s.class_accepted[kI] + s.class_accepted[kB],
              data.samples.size());
}
