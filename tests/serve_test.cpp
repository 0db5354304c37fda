// Contract tests for neuro::serve (the async serving engine):
//   * micro-batch semantics (collect_admitted over the AdmissionQueue:
//     block for one entry, take what is queued, never wait for more),
//   * batched serving bit-identical to sequential Session inference,
//   * backpressure — Shed rejects deterministically, Block waits,
//   * drain-on-shutdown completes every accepted request,
//   * error isolation (a bad request doesn't take the worker down),
//   * concurrent submitters (run under TSan in CI).

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <memory>
#include <thread>
#include <vector>

#include "common/tensor.hpp"
#include "data/dataset.hpp"
#include "runtime/compiled_model.hpp"
#include "serve/admission.hpp"
#include "serve/request.hpp"
#include "serve/server.hpp"
#include "serve/stats.hpp"

using namespace neuro;
using serve::AdmissionQueue;

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

// ---- scheduler --------------------------------------------------------------

namespace {

/// collect_admitted with a no-op drop sink (nothing here is dropped),
/// returning the collected values.
bool collect_values(AdmissionQueue<int>& q, std::size_t max_batch,
                    std::vector<int>& out) {
    std::vector<serve::Admitted<int>> batch;
    const bool alive = serve::collect_admitted(
        q, serve::BatchPolicy{max_batch}, batch, [](serve::Dropped<int>&&) {});
    out.clear();
    for (const auto& a : batch) out.push_back(a.value);
    return alive;
}

}  // namespace

TEST(Scheduler, FullQueueDispatchesMaxBatchAtATime) {
    AdmissionQueue<int> q(16);
    for (int i = 0; i < 8; ++i) {
        int v = i;
        ASSERT_TRUE(q.push(v));
    }
    std::vector<int> out;
    ASSERT_TRUE(collect_values(q, 4, out));
    EXPECT_EQ(out, (std::vector<int>{0, 1, 2, 3}));
    ASSERT_TRUE(collect_values(q, 4, out));
    EXPECT_EQ(out, (std::vector<int>{4, 5, 6, 7}));
}

TEST(Scheduler, PartialBatchTakesWhatIsQueued) {
    AdmissionQueue<int> q(16);
    for (int i = 0; i < 2; ++i) {
        int v = i;
        ASSERT_TRUE(q.push(v));
    }
    std::vector<int> out;
    ASSERT_TRUE(collect_values(q, 8, out));
    EXPECT_EQ(out, (std::vector<int>{0, 1}));
    EXPECT_EQ(q.size(), 0u);
}

TEST(Scheduler, MaxBatchOneNeverCoalesces) {
    AdmissionQueue<int> q(4);
    int v = 7;
    ASSERT_TRUE(q.push(v));
    v = 8;
    ASSERT_TRUE(q.push(v));
    std::vector<int> out;
    ASSERT_TRUE(collect_values(q, 1, out));
    EXPECT_EQ(out, std::vector<int>{7});
}

TEST(Scheduler, ClosedAndDrainedQueueEndsTheLoop) {
    AdmissionQueue<int> q(4);
    int v = 1;
    ASSERT_TRUE(q.push(v));
    q.close();
    std::vector<int> out;
    ASSERT_TRUE(collect_values(q, 8, out));  // drains the leftover
    EXPECT_EQ(out, std::vector<int>{1});
    EXPECT_FALSE(collect_values(q, 8, out));  // worker exit signal
    EXPECT_TRUE(out.empty());
}

// ---- determinism ------------------------------------------------------------

TEST(Server, BatchedServingBitIdenticalToSequentialSessions) {
    const auto model = make_model();
    const auto images = make_images(24);

    auto ref = model->open_session();
    std::vector<std::size_t> want_label;
    std::vector<std::vector<std::int32_t>> want_counts;
    for (const auto& s : images.samples) {
        want_label.push_back(ref->predict(s.image));
        want_counts.push_back(ref->output_counts(s.image));
    }

    struct Config {
        std::size_t workers, batch;
    };
    for (const Config cfg : {Config{1, 1}, Config{3, 4}, Config{2, 16}}) {
        serve::ServerOptions opt;
        opt.workers = cfg.workers;
        opt.queue_capacity = 64;
        opt.batch.max_batch = cfg.batch;
        serve::Server server(model, opt);
        server.start();

        std::vector<serve::InferenceHandle> predicts, counts;
        for (const auto& s : images.samples) {
            predicts.push_back(server.submit(s.image));
            counts.push_back(server.submit_counts(s.image));
        }
        for (std::size_t i = 0; i < images.size(); ++i) {
            auto p = predicts[i].get();
            ASSERT_EQ(p.status, serve::Status::Ok);
            EXPECT_EQ(p.label, want_label[i])
                << "workers=" << cfg.workers << " batch=" << cfg.batch;
            EXPECT_GE(p.batch_size, 1u);
            EXPECT_LE(p.batch_size, cfg.batch);
            auto c = counts[i].get();
            ASSERT_EQ(c.status, serve::Status::Ok);
            EXPECT_EQ(c.counts, want_counts[i]);
        }
        server.shutdown();
        const auto stats = server.stats();
        EXPECT_EQ(stats.accepted, 2 * images.size());
        EXPECT_EQ(stats.completed, 2 * images.size());
        EXPECT_EQ(stats.rejected, 0u);
        EXPECT_EQ(stats.errors, 0u);
    }
}

// ---- backpressure -----------------------------------------------------------

TEST(Server, ShedPolicyRejectsExactlyTheOverflowBeforeStart) {
    const auto model = make_model();
    const auto images = make_images(1);
    serve::ServerOptions opt;
    opt.workers = 1;
    opt.queue_capacity = 2;
    opt.backpressure = serve::Backpressure::Shed;
    serve::Server server(model, opt);  // workers idle until start()

    std::vector<serve::InferenceHandle> handles;
    for (int i = 0; i < 5; ++i)
        handles.push_back(server.submit(images.samples[0].image));

    // Queue holds 2: requests 2..4 must already be complete as Rejected,
    // with the intake-specific reason (shed, not head-dropped).
    for (int i = 2; i < 5; ++i) {
        ASSERT_TRUE(handles[static_cast<std::size_t>(i)].ready());
        auto r = handles[static_cast<std::size_t>(i)].get();
        EXPECT_EQ(r.status, serve::Status::Rejected);
        EXPECT_EQ(r.reject, serve::RejectReason::QueueFull);
    }
    server.shutdown();  // auto-starts and drains the two accepted requests
    for (int i = 0; i < 2; ++i)
        EXPECT_EQ(handles[static_cast<std::size_t>(i)].get().status,
                  serve::Status::Ok);
    const auto stats = server.stats();
    EXPECT_EQ(stats.accepted, 2u);
    EXPECT_EQ(stats.rejected, 3u);
    EXPECT_EQ(stats.completed, 2u);
}

TEST(Server, BlockPolicyWaitsForSpaceInsteadOfShedding) {
    const auto model = make_model();
    const auto images = make_images(1);
    serve::ServerOptions opt;
    opt.workers = 1;
    opt.queue_capacity = 1;
    opt.backpressure = serve::Backpressure::Block;
    serve::Server server(model, opt);

    std::atomic<int> submitted{0};
    std::vector<serve::InferenceHandle> handles(3);
    std::thread producer([&] {
        for (int i = 0; i < 3; ++i) {
            handles[static_cast<std::size_t>(i)] =
                server.submit(images.samples[0].image);
            submitted.fetch_add(1);
        }
    });
    // With no workers running and capacity 1, the producer can complete at
    // most one submit; the second blocks inside the queue.
    std::this_thread::sleep_for(std::chrono::milliseconds(30));
    EXPECT_LE(submitted.load(), 1);

    server.start();
    producer.join();
    EXPECT_EQ(submitted.load(), 3);
    for (auto& h : handles) EXPECT_EQ(h.get().status, serve::Status::Ok);
    server.shutdown();
    EXPECT_EQ(server.stats().rejected, 0u);
    EXPECT_EQ(server.stats().completed, 3u);
}

// ---- shutdown ---------------------------------------------------------------

TEST(Server, ShutdownDrainsEveryAcceptedRequest) {
    const auto model = make_model();
    const auto images = make_images(4);
    serve::ServerOptions opt;
    opt.workers = 2;
    opt.queue_capacity = 64;
    opt.batch.max_batch = 8;
    serve::Server server(model, opt);

    std::vector<serve::InferenceHandle> handles;
    for (int i = 0; i < 20; ++i)
        handles.push_back(
            server.submit(images.samples[static_cast<std::size_t>(i) % 4].image));
    server.shutdown();
    for (auto& h : handles) EXPECT_EQ(h.get().status, serve::Status::Ok);

    // After shutdown the intake is closed: immediate rejection.
    auto late = server.submit(images.samples[0].image);
    ASSERT_TRUE(late.ready());
    auto late_result = late.get();
    EXPECT_EQ(late_result.status, serve::Status::Rejected);
    EXPECT_EQ(late_result.reject, serve::RejectReason::Shutdown);
    EXPECT_FALSE(server.running());
    const auto stats = server.stats();
    EXPECT_EQ(stats.completed, 20u);
    EXPECT_EQ(stats.rejected, 1u);
    // shutdown() twice is harmless.
    server.shutdown();
}

// ---- error isolation --------------------------------------------------------

TEST(Server, BadRequestCompletesWithErrorAndWorkerSurvives) {
    const auto model = make_model();
    const auto images = make_images(1);
    serve::ServerOptions opt;
    opt.workers = 1;
    serve::Server server(model, opt);
    server.start();

    common::Tensor wrong_size({3});  // backend throws invalid_argument
    auto bad = server.submit(wrong_size);
    auto good = server.submit(images.samples[0].image);
    const auto bad_result = bad.get();
    EXPECT_EQ(bad_result.status, serve::Status::Error);
    EXPECT_FALSE(bad_result.error.empty());
    EXPECT_EQ(good.get().status, serve::Status::Ok);
    server.shutdown();
    const auto stats = server.stats();
    EXPECT_EQ(stats.errors, 1u);
    EXPECT_EQ(stats.completed, 1u);
}

// ---- stats ------------------------------------------------------------------

TEST(Server, StatsInvariantsAfterLoad) {
    const auto model = make_model();
    const auto images = make_images(8);
    serve::ServerOptions opt;
    opt.workers = 2;
    opt.batch.max_batch = 4;
    serve::Server server(model, opt);
    server.start();
    std::vector<serve::InferenceHandle> handles;
    for (int i = 0; i < 32; ++i)
        handles.push_back(
            server.submit(images.samples[static_cast<std::size_t>(i) % 8].image));
    for (auto& h : handles) (void)h.get();
    server.shutdown();

    const auto s = server.stats();
    EXPECT_EQ(s.completed, 32u);
    EXPECT_GE(s.batches, 32u / opt.batch.max_batch);
    EXPECT_GE(s.mean_batch, 1.0);
    EXPECT_LE(s.max_batch, opt.batch.max_batch);
    EXPECT_LE(s.peak_queue_depth, opt.queue_capacity);
    EXPECT_GE(s.peak_queue_depth, 1u);
    EXPECT_LE(s.p50_us, s.p95_us);
    EXPECT_LE(s.p95_us, s.p99_us);
    EXPECT_LE(s.p99_us, s.max_us * 1.07);  // bucket upper-edge slack
    EXPECT_GT(s.elapsed_s, 0.0);
    EXPECT_GT(s.throughput_rps, 0.0);

    // Admission-layer stats under a no-overload run: everything rode the
    // default Interactive class, the sojourn histogram saw every dispatch,
    // and CoDel (disabled) never engaged.
    constexpr auto kInteractive =
        static_cast<std::size_t>(serve::Priority::Interactive);
    EXPECT_EQ(s.class_accepted[kInteractive], 32u);
    EXPECT_EQ(s.class_codel_dropped[kInteractive], 0u);
    EXPECT_EQ(s.class_deadline_dropped[kInteractive], 0u);
    EXPECT_EQ(s.codel_dropped, 0u);
    EXPECT_EQ(s.deadline_dropped, 0u);
    EXPECT_EQ(s.drop_state_entries, 0u);
    EXPECT_LE(s.sojourn_p50_us, s.sojourn_p95_us);
    EXPECT_LE(s.sojourn_p95_us, s.sojourn_p99_us);
    EXPECT_LE(s.sojourn_p99_us, s.sojourn_max_us * 1.07);
    // Queue wait is a component of end-to-end latency.
    EXPECT_LE(s.sojourn_p50_us, s.max_us);
}

// Per-class accounting: one request per class (feedback via its own
// intake), each attributed to the right AdmissionCounters slot.
TEST(Server, StatsAttributeAcceptsToTheSubmittedClass) {
    const auto model = make_model();
    const auto images = make_images(3);
    serve::ServerOptions opt;
    opt.workers = 1;
    opt.admission.feedback_capacity = 4;
    serve::Server server(model, opt);
    server.start();

    serve::SubmitOptions interactive;  // default class
    serve::SubmitOptions batch;
    batch.priority = serve::Priority::Batch;
    auto r0 = server.submit(images.samples[0].image, interactive).get();
    auto r1 = server.submit(images.samples[1].image, batch).get();
    ASSERT_TRUE(server.submit_feedback(images.samples[2].image, 1));
    EXPECT_EQ(r0.status, serve::Status::Ok);
    EXPECT_EQ(r0.priority, serve::Priority::Interactive);
    EXPECT_EQ(r1.status, serve::Status::Ok);
    EXPECT_EQ(r1.priority, serve::Priority::Batch);
    server.shutdown();

    const auto s = server.stats();
    constexpr auto kI = static_cast<std::size_t>(serve::Priority::Interactive);
    constexpr auto kB = static_cast<std::size_t>(serve::Priority::Batch);
    constexpr auto kF = static_cast<std::size_t>(serve::Priority::Feedback);
    EXPECT_EQ(s.class_accepted[kI], 1u);
    EXPECT_EQ(s.class_accepted[kB], 1u);
    EXPECT_EQ(s.class_accepted[kF], 1u);
    EXPECT_EQ(s.codel_dropped + s.deadline_dropped, 0u);
    EXPECT_EQ(s.feedback_dropped, 0u);
}

// ---- concurrency (run under TSan in CI) -------------------------------------

TEST(Server, ConcurrentSubmittersAllCompleteCorrectly) {
    const auto model = make_model();
    const auto images = make_images(6);
    auto ref = model->open_session();
    std::vector<std::size_t> want;
    for (const auto& s : images.samples) want.push_back(ref->predict(s.image));

    serve::ServerOptions opt;
    opt.workers = 2;
    opt.queue_capacity = 16;
    opt.batch.max_batch = 4;
    serve::Server server(model, opt);
    server.start();

    constexpr int kThreads = 4, kPerThread = 25;
    std::atomic<int> mismatches{0};
    std::vector<std::thread> submitters;
    for (int t = 0; t < kThreads; ++t)
        submitters.emplace_back([&, t] {
            for (int i = 0; i < kPerThread; ++i) {
                const auto idx =
                    static_cast<std::size_t>(t * kPerThread + i) % images.size();
                auto r = server.submit(images.samples[idx].image).get();
                if (r.status != serve::Status::Ok || r.label != want[idx])
                    mismatches.fetch_add(1);
            }
        });
    for (auto& t : submitters) t.join();
    server.shutdown();

    EXPECT_EQ(mismatches.load(), 0);
    const auto stats = server.stats();
    EXPECT_EQ(stats.accepted, static_cast<std::uint64_t>(kThreads * kPerThread));
    EXPECT_EQ(stats.completed,
              static_cast<std::uint64_t>(kThreads * kPerThread));
    EXPECT_EQ(stats.rejected, 0u);
}
