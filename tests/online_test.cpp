// Contract tests for learning-while-serving (neuro::online + the runtime's
// versioned weight publication):
//   * WeightChannel/publish_weights versioning and COW image pinning,
//   * Session::refresh adopts exactly the latest published image,
//   * with nothing published, serving next to a running learner is
//     bit-identical to sequential Session inference (frozen-server parity),
//   * a published version is adopted by every pool session within one
//     batch boundary,
//   * poisoned feedback trips the shadow-eval gate: the candidate is never
//     published, the learner rolls back, the registry's last good version
//     keeps serving,
//   * registry round-trip, corruption detection, and restart republication,
//   * replay-pool determinism (same seed => same draws) and reservoir
//     bounds; the learning trajectory depends only on feedback order,
//   * learner + server + clients running concurrently (TSan-clean in CI).

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <memory>
#include <thread>
#include <vector>

#include "common/rng.hpp"
#include "core/trainer.hpp"
#include "data/dataset.hpp"
#include "online/engine.hpp"
#include "online/registry.hpp"
#include "online/replay_pool.hpp"
#include "runtime/compiled_model.hpp"
#include "runtime/weight_channel.hpp"
#include "serve/server.hpp"

using namespace neuro;

namespace {

constexpr std::size_t kClasses = 6;
constexpr std::size_t kDims = 18;

/// Six well-separated rate prototypes over 18 inputs (the iol_test toy
/// task): EMSTDP learns it quickly, and label poison destroys it quickly —
/// both of which keep the gate tests deterministic and fast.
data::Dataset toy_set(std::size_t per_class, std::uint64_t seed) {
    common::Rng rng(seed);
    std::vector<std::vector<float>> protos;
    for (std::size_t c = 0; c < kClasses; ++c) {
        std::vector<float> p(kDims, 0.05f);
        for (std::size_t k = 0; k < 3; ++k) p[(c * 3 + k) % kDims] = 0.8f;
        protos.push_back(std::move(p));
    }
    data::Dataset d;
    d.name = "toy6";
    d.channels = 1;
    d.height = 1;
    d.width = kDims;
    d.num_classes = kClasses;
    for (std::size_t i = 0; i < per_class * kClasses; ++i) {
        const std::size_t c = i % kClasses;
        common::Tensor x({1, 1, kDims});
        for (std::size_t p = 0; p < kDims; ++p) {
            const float v =
                protos[c][p] + static_cast<float>(rng.normal(0.0, 0.06));
            x[p] = std::clamp(v, 0.0f, 1.0f);
        }
        d.samples.push_back({std::move(x), c});
    }
    return d;
}

std::shared_ptr<const runtime::CompiledModel> make_model() {
    runtime::ModelSpec spec;
    spec.input(1, 1, kDims).hidden_layers({30}).output_classes(kClasses);
    spec.options.seed = 11;
    return runtime::CompiledModel::compile(spec,
                                           runtime::BackendKind::LoihiSim);
}

/// A weight image whose output layer strongly prefers `winner` — predictions
/// become constant, which makes pool-wide adoption observable.
runtime::WeightSnapshot forced_snapshot(const runtime::CompiledModel& model,
                                        std::size_t winner) {
    runtime::WeightSnapshot snap = model.initial_weights();
    auto& out = snap.layers.back();
    const std::size_t fan_in = out.size() / kClasses;
    for (std::size_t c = 0; c < kClasses; ++c)
        for (std::size_t i = 0; i < fan_in; ++i)
            out[c * fan_in + i] = c == winner ? 60 : -60;
    return snap;
}

std::string fresh_dir(const std::string& name) {
    const auto dir =
        std::filesystem::temp_directory_path() / ("neuro_online_" + name);
    std::filesystem::remove_all(dir);
    return dir.string();
}

/// Polls `cond` generously (sized for TSan's ~15x slowdown on a loaded
/// single-core runner; real waits are milliseconds).
template <typename F>
bool eventually(F cond) {
    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(90);
    while (std::chrono::steady_clock::now() < deadline) {
        if (cond()) return true;
        std::this_thread::sleep_for(std::chrono::milliseconds(2));
    }
    return cond();
}

}  // namespace

// ---- versioned publication (runtime layer) ---------------------------------

TEST(WeightPublication, VersionsAreMonotonicAndImagesArePinned) {
    const auto model = make_model();
    EXPECT_EQ(model->published_version(), 0u);
    EXPECT_TRUE(model->published_weights()->snapshot.empty());

    const auto v1_snap = forced_snapshot(*model, 1);
    EXPECT_EQ(model->publish_weights(v1_snap), 1u);
    const auto pinned = model->published_weights();
    EXPECT_EQ(pinned->version, 1u);

    EXPECT_EQ(model->publish_weights(forced_snapshot(*model, 2)), 2u);
    EXPECT_EQ(model->published_version(), 2u);
    // The pinned v1 image is untouched by the later publish (COW).
    EXPECT_EQ(pinned->version, 1u);
    EXPECT_EQ(pinned->snapshot.layers, v1_snap.layers);
}

TEST(WeightPublication, RefreshAdoptsLatestImageExactlyOnce) {
    const auto model = make_model();
    auto session = model->open_session();
    EXPECT_FALSE(session->refresh());  // nothing published
    EXPECT_EQ(session->weights_version(), 0u);

    model->publish_weights(forced_snapshot(*model, 3));
    model->publish_weights(forced_snapshot(*model, 4));
    ASSERT_TRUE(session->refresh());  // jumps straight to the latest
    EXPECT_EQ(session->weights_version(), 2u);
    EXPECT_FALSE(session->refresh());  // nothing newer

    const auto images = toy_set(2, 3);
    for (const auto& s : images.samples)
        EXPECT_EQ(session->predict(s.image), 4u);
}

TEST(WeightPublication, SessionsOpenOnInitialWeightsUntilTheyRefresh) {
    const auto model = make_model();
    model->publish_weights(forced_snapshot(*model, 2));
    auto fresh = model->open_session();
    auto reference = model->open_session();
    // Both stay on initial weights (documented contract) until refresh().
    const auto images = toy_set(2, 7);
    for (const auto& s : images.samples)
        EXPECT_EQ(fresh->predict(s.image), reference->predict(s.image));
    ASSERT_TRUE(fresh->refresh());
    for (const auto& s : images.samples)
        EXPECT_EQ(fresh->predict(s.image), 2u);
}

// ---- serving parity with publishing disabled --------------------------------

TEST(OnlineServing, NoPublishMeansBitIdenticalServing) {
    const auto model = make_model();
    const auto images = toy_set(6, 5);

    // Expected: plain sequential Session inference on the same model.
    auto session = model->open_session();
    std::vector<std::size_t> expected;
    for (const auto& s : images.samples)
        expected.push_back(session->predict(s.image));

    // Server under load with a *running learner* that trains on feedback
    // but never publishes (interval larger than the stream): serving must
    // not see any of it.
    serve::ServerOptions opt;
    opt.workers = 2;
    opt.batch.max_batch = 4;
    opt.admission.feedback_capacity = 64;
    serve::Server server(model, opt);
    online::OnlineOptions oopt;
    oopt.publish_interval = 1'000'000;  // never reached
    oopt.seed = 23;
    online::OnlineEngine engine(model, server.feedback_queue(), toy_set(2, 9),
                                oopt);
    server.start();
    engine.start();

    for (std::size_t round = 0; round < 2; ++round) {
        std::vector<serve::InferenceHandle> handles;
        for (const auto& s : images.samples) {
            handles.push_back(server.submit(s.image));
            server.submit_feedback(s.image, s.label);
        }
        for (std::size_t i = 0; i < handles.size(); ++i) {
            auto r = handles[i].get();
            ASSERT_EQ(r.status, serve::Status::Ok);
            EXPECT_EQ(r.label, expected[i]);
        }
    }
    ASSERT_TRUE(eventually([&] { return engine.stats().trained > 0; }));
    server.shutdown();
    engine.stop();
    EXPECT_EQ(server.stats().weight_refreshes, 0u);
    EXPECT_EQ(engine.stats().published, 0u);
}

// ---- pool-wide adoption ------------------------------------------------------

TEST(OnlineServing, PublishedVersionAdoptedByAllWorkersWithinOneBatch) {
    const auto model = make_model();
    const auto images = toy_set(4, 5);
    serve::ServerOptions opt;
    opt.workers = 2;
    opt.batch.max_batch = 2;
    serve::Server server(model, opt);
    server.start();

    // Warm the pool, then publish a forced image.
    for (const auto& s : images.samples) (void)server.submit(s.image).get();
    model->publish_weights(forced_snapshot(*model, 5));

    // Every worker adopts at its next batch boundary; keep offering batches
    // until both have. After that, every response must be the forced label.
    ASSERT_TRUE(eventually([&] {
        (void)server.submit(images.samples[0].image).get();
        return server.stats().weight_refreshes >= opt.workers;
    }));
    std::vector<serve::InferenceHandle> handles;
    for (const auto& s : images.samples) handles.push_back(server.submit(s.image));
    for (auto& h : handles) {
        auto r = h.get();
        ASSERT_EQ(r.status, serve::Status::Ok);
        EXPECT_EQ(r.label, 5u);
    }
    server.shutdown();
    EXPECT_EQ(server.stats().weight_refreshes, opt.workers);
}

// ---- shadow-eval gate + rollback + registry ---------------------------------

TEST(OnlineServing, PoisonedFeedbackTripsRollbackAndLastGoodKeepsServing) {
    const auto dir = fresh_dir("rollback");
    const auto model = make_model();
    const auto train = toy_set(24, 31);
    const auto holdout = toy_set(8, 32);

    auto feedback = std::make_shared<serve::FeedbackQueue>(1024);
    online::OnlineOptions oopt;
    oopt.publish_interval = 48;
    // Both halves of the gate: per-step regressions beyond 5 points fail,
    // and — the backstop against slow poisoning ratcheting the bar down —
    // nothing below 45% absolute is ever published.
    oopt.max_regression = 0.05;
    oopt.min_accuracy = 0.45;
    oopt.registry_dir = dir;
    oopt.seed = 7;
    online::OnlineEngine engine(model, feedback, holdout, oopt);
    engine.start();

    // Phase 1: truthful feedback — the model improves and publishes.
    std::size_t pushed = 0;
    for (std::size_t round = 0; round < 2; ++round)
        for (const auto& s : train.samples) {
            serve::FeedbackSample f{s.image, s.label, {}};
            ASSERT_TRUE(feedback->push(f));
            ++pushed;
        }
    ASSERT_TRUE(
        eventually([&] { return engine.stats().feedback_seen >= pushed; }));
    const auto mid = engine.stats();
    ASSERT_GE(mid.published, 1u) << "truthful feedback must publish";
    ASSERT_GT(mid.last_good_accuracy, 0.5)
        << "toy task should be learned well before the poison phase";

    // Phase 2: poisoned labels (cyclic shift — every label wrong).
    for (std::size_t round = 0; round < 4; ++round)
        for (const auto& s : train.samples) {
            serve::FeedbackSample f{s.image, (s.label + 1) % kClasses, {}};
            ASSERT_TRUE(feedback->push(f));
            ++pushed;
        }
    ASSERT_TRUE(
        eventually([&] { return engine.stats().feedback_seen >= pushed; }));
    engine.stop();

    const auto end = engine.stats();
    EXPECT_GE(end.rollbacks, 1u) << "poisoned candidates must be rejected";
    // The gate kept the poison away from traffic: whatever serves now still
    // clears the absolute floor, not the cratered poisoned accuracy.
    EXPECT_GE(end.last_good_accuracy, oopt.min_accuracy);
    EXPECT_LT(end.last_eval_accuracy, oopt.min_accuracy)
        << "the final (poisoned) candidate should score below the floor";
    const auto good_snapshot = model->published_weights()->snapshot;

    // The registry's last good version is exactly what keeps serving.
    ASSERT_NE(engine.registry(), nullptr);
    const auto good = engine.registry()->last_good();
    ASSERT_TRUE(good.has_value());
    EXPECT_DOUBLE_EQ(good->accuracy, end.last_good_accuracy);
    EXPECT_EQ(engine.registry()->load(good->version).layers,
              good_snapshot.layers);

    // A serving pool session picking the image up agrees with a session
    // loaded from the registry file.
    auto pool_session = model->open_session();
    ASSERT_TRUE(pool_session->refresh());
    auto registry_session = model->open_session();
    registry_session->load_weights(engine.registry()->load(good->version));
    for (const auto& s : holdout.samples)
        EXPECT_EQ(pool_session->predict(s.image),
                  registry_session->predict(s.image));
    std::filesystem::remove_all(dir);
}

TEST(OnlineServing, RestartRepublishesRegistryLastGood) {
    const auto dir = fresh_dir("restart");
    const auto train = toy_set(16, 41);
    const auto holdout = toy_set(6, 42);

    runtime::WeightSnapshot recorded;
    double recorded_acc = 0.0;
    {
        const auto model = make_model();
        auto feedback = std::make_shared<serve::FeedbackQueue>(512);
        online::OnlineOptions oopt;
        oopt.publish_interval = 32;
        oopt.max_regression = 1.0;  // always accept: we only need a record
        oopt.registry_dir = dir;
        online::OnlineEngine engine(model, feedback, holdout, oopt);
        engine.start();
        for (const auto& s : train.samples) {
            serve::FeedbackSample f{s.image, s.label, {}};
            ASSERT_TRUE(feedback->push(f));
        }
        ASSERT_TRUE(eventually(
            [&] { return engine.stats().feedback_seen >= train.size(); }));
        engine.stop();
        ASSERT_GE(engine.stats().published, 1u);
        const auto good = engine.registry()->last_good();
        ASSERT_TRUE(good.has_value());
        recorded = engine.registry()->load(good->version);
        recorded_acc = good->accuracy;
    }

    // New process, new model object (fresh channel): starting the engine
    // republishes the registry's last good before any feedback arrives.
    const auto model = make_model();
    EXPECT_EQ(model->published_version(), 0u);
    auto feedback = std::make_shared<serve::FeedbackQueue>(16);
    online::OnlineOptions oopt;
    oopt.registry_dir = dir;
    online::OnlineEngine engine(model, feedback, holdout, oopt);
    engine.start();
    EXPECT_EQ(model->published_version(), 1u);
    EXPECT_EQ(model->published_weights()->snapshot.layers, recorded.layers);
    EXPECT_DOUBLE_EQ(engine.stats().baseline_accuracy, recorded_acc);
    engine.stop();
    std::filesystem::remove_all(dir);
}

// ---- registry ---------------------------------------------------------------

TEST(Registry, RoundTripAndReload) {
    const auto dir = fresh_dir("roundtrip");
    runtime::WeightSnapshot a{{{1, -2, 3}, {4, 5}}};
    runtime::WeightSnapshot b{{{9, 9, 9}, {-7, 7}}};
    {
        online::ModelRegistry reg(dir);
        EXPECT_FALSE(reg.last_good().has_value());
        reg.record(1, 0.5, a);
        reg.record(2, 0.75, b);
    }
    online::ModelRegistry reg(dir);
    ASSERT_EQ(reg.entries().size(), 2u);
    EXPECT_EQ(reg.entries()[0].version, 1u);
    EXPECT_DOUBLE_EQ(reg.entries()[0].accuracy, 0.5);
    ASSERT_TRUE(reg.last_good().has_value());
    EXPECT_EQ(reg.last_good()->version, 2u);
    EXPECT_EQ(reg.load(1).layers, a.layers);
    EXPECT_EQ(reg.load(2).layers, b.layers);
    EXPECT_THROW(reg.load(3), std::invalid_argument);
    std::filesystem::remove_all(dir);
}

TEST(Registry, CorruptSnapshotFailsLoudly) {
    const auto dir = fresh_dir("corrupt");
    online::ModelRegistry reg(dir);
    reg.record(1, 0.5, {{{10, 20, 30, 40}}});
    // Flip one payload byte: the v2 checksum must catch it.
    {
        std::fstream f(reg.snapshot_path(1),
                       std::ios::in | std::ios::out | std::ios::binary);
        f.seekp(16);
        char byte = 0x5A;
        f.write(&byte, 1);
    }
    EXPECT_THROW(reg.load(1), std::runtime_error);
    std::filesystem::remove_all(dir);
}

// A record whose manifest write fails leaves no version behind: not in
// memory (so nothing lists or rolls back to it), and not in the manifest
// the next successful record writes.
TEST(Registry, FailedRecordLeavesNoTrace) {
    const auto dir = fresh_dir("failed_record");
    const runtime::WeightSnapshot snap{{{1, 2, 3}}};
    online::ModelRegistry reg(dir);
    reg.record(1, 0.5, snap);
    // A directory in the temp manifest's place makes the write fail.
    const auto blocker = std::filesystem::path(dir) / "MANIFEST.tmp";
    std::filesystem::create_directory(blocker);
    EXPECT_THROW(reg.record(2, 0.6, snap), std::runtime_error);
    EXPECT_FALSE(reg.has(2));
    ASSERT_EQ(reg.entries().size(), 1u);
    EXPECT_EQ(reg.last_good()->version, 1u);
    EXPECT_EQ(online::ModelRegistry(dir).entries().size(), 1u);

    std::filesystem::remove(blocker);
    reg.record(3, 0.7, snap);
    const online::ModelRegistry fresh(dir);
    ASSERT_EQ(fresh.entries().size(), 2u);
    EXPECT_EQ(fresh.entries()[0].version, 1u);
    EXPECT_EQ(fresh.entries()[1].version, 3u);
    std::filesystem::remove_all(dir);
}

// ---- replay pool ------------------------------------------------------------

TEST(ReplayPool, SameSeedSameDraws) {
    const auto samples = toy_set(10, 51);
    // Compare drawn *images*, not labels: the class cycle is fixed by
    // design, the seed picks the sample within the class.
    auto run = [&](std::uint64_t seed) {
        online::ReplayPool pool(kClasses, 8, seed);
        for (const auto& s : samples.samples) pool.add(s.image, s.label);
        std::vector<float> pixels;
        for (std::size_t i = 0; i < 5; ++i)
            for (const auto& d : pool.draw(3))
                pixels.insert(pixels.end(), d.image.data(),
                              d.image.data() + d.image.size());
        return pixels;
    };
    EXPECT_EQ(run(7), run(7));
    EXPECT_NE(run(7), run(8));
}

TEST(ReplayPool, ReservoirBoundsAndBalancedDraws) {
    const auto samples = toy_set(40, 52);
    online::ReplayPool pool(kClasses, 4, 3);
    for (const auto& s : samples.samples) pool.add(s.image, s.label);
    for (std::size_t c = 0; c < kClasses; ++c) EXPECT_EQ(pool.stored_in(c), 4u);
    EXPECT_EQ(pool.stored(), 4u * kClasses);
    // Round-robin cycling: 2 * kClasses draws touch every class exactly twice.
    std::vector<std::size_t> per_class(kClasses, 0);
    for (const auto& d : pool.draw(2 * kClasses)) ++per_class[d.label];
    for (std::size_t c = 0; c < kClasses; ++c) EXPECT_EQ(per_class[c], 2u);
}

TEST(ReplayPool, DrawsOnlyFromObservedClasses) {
    const auto samples = toy_set(10, 53);
    online::ReplayPool pool(kClasses, 8, 5);
    EXPECT_TRUE(pool.draw(4).empty());  // empty pool: no draws, no hang
    for (const auto& s : samples.samples)
        if (s.label < 2) pool.add(s.image, s.label);
    for (const auto& d : pool.draw(10)) EXPECT_LT(d.label, 2u);
}

// ---- engine validation ------------------------------------------------------

TEST(OnlineEngine, RejectsInvalidConstruction) {
    const auto model = make_model();
    auto queue = std::make_shared<serve::FeedbackQueue>(8);
    const auto holdout = toy_set(2, 61);
    EXPECT_THROW(online::OnlineEngine(nullptr, queue, holdout),
                 std::invalid_argument);
    EXPECT_THROW(online::OnlineEngine(model, nullptr, holdout),
                 std::invalid_argument);
    EXPECT_THROW(online::OnlineEngine(model, queue, data::Dataset{}),
                 std::invalid_argument);
    online::OnlineOptions bad;
    bad.publish_interval = 0;
    EXPECT_THROW(online::OnlineEngine(model, queue, holdout, bad),
                 std::invalid_argument);
}

TEST(OnlineServing, MalformedFeedbackNeverKillsTheLearner) {
    const auto model = make_model();
    const auto good = toy_set(2, 63);

    // Intake validation: an out-of-range label is dropped at submit time.
    serve::ServerOptions opt;
    opt.admission.feedback_capacity = 8;
    serve::Server server(model, opt);
    EXPECT_FALSE(server.submit_feedback(good.samples[0].image, kClasses + 3));
    EXPECT_GE(server.stats().feedback_dropped, 1u);
    server.shutdown();

    // Defense in depth: a bad sample pushed into the raw queue (bypassing
    // the intake) is counted and skipped — the learner thread survives and
    // keeps training on what follows.
    auto queue = std::make_shared<serve::FeedbackQueue>(16);
    online::OnlineEngine engine(model, queue, toy_set(2, 64));
    engine.start();
    serve::FeedbackSample bad{good.samples[0].image, kClasses + 7, {}};
    ASSERT_TRUE(queue->push(bad));
    for (const auto& s : good.samples) {
        serve::FeedbackSample f{s.image, s.label, {}};
        ASSERT_TRUE(queue->push(f));
    }
    ASSERT_TRUE(eventually([&] {
        return engine.stats().feedback_seen >= 1 + good.size();
    }));
    engine.stop();
    const auto stats = engine.stats();
    EXPECT_EQ(stats.errors, 1u);
    EXPECT_EQ(stats.trained, 2 * good.size());  // fresh + one replay each
}

// The learner pops one sample at a time, so how the feedback reaches the
// queue (all at once, or one by one) cannot move the trajectory: only its
// order can. Publishes and rollbacks both happen along the way.
TEST(OnlineEngine, TrajectoryDependsOnlyOnFeedbackOrder) {
    const auto train = toy_set(12, 81);
    const auto holdout = toy_set(6, 82);
    std::vector<serve::FeedbackSample> stream;
    for (std::size_t round = 0; round < 3; ++round)
        for (const auto& s : train.samples)  // the last round is poisoned
            stream.push_back(
                {s.image, round < 2 ? s.label : (s.label + 1) % kClasses, {}});
    online::OnlineOptions oopt;
    oopt.publish_interval = 24;
    oopt.max_regression = 0.05;
    oopt.seed = 5;
    const auto done = [&](const online::OnlineEngine& e, std::size_t n) {
        return eventually([&] { return e.stats().feedback_seen >= n; });
    };

    // All at once: the whole stream is queued before the learner starts.
    const auto model_a = make_model();
    auto queue_a = std::make_shared<serve::FeedbackQueue>(stream.size());
    for (serve::FeedbackSample f : stream) ASSERT_TRUE(queue_a->push(f));
    online::OnlineEngine a(model_a, queue_a, holdout, oopt);
    a.start();
    ASSERT_TRUE(done(a, stream.size()));
    a.stop();

    // One by one: each sample is pushed after the previous one was taken.
    const auto model_b = make_model();
    auto queue_b = std::make_shared<serve::FeedbackQueue>(stream.size());
    online::OnlineEngine b(model_b, queue_b, holdout, oopt);
    b.start();
    for (std::size_t i = 0; i < stream.size(); ++i) {
        serve::FeedbackSample f = stream[i];
        ASSERT_TRUE(queue_b->push(f));
        ASSERT_TRUE(done(b, i + 1));
    }
    b.stop();

    const online::OnlineStats sa = a.stats(), sb = b.stats();
    EXPECT_EQ(sa.feedback_seen, stream.size());
    EXPECT_GE(sa.published, 1u);
    EXPECT_GE(sa.rollbacks, 1u);
    EXPECT_EQ(sa.feedback_seen, sb.feedback_seen);
    EXPECT_EQ(sa.trained, sb.trained);
    EXPECT_EQ(sa.candidates, sb.candidates);
    EXPECT_EQ(sa.published, sb.published);
    EXPECT_EQ(sa.rollbacks, sb.rollbacks);
    EXPECT_EQ(sa.errors, sb.errors);
    EXPECT_EQ(sa.current_version, sb.current_version);
    EXPECT_EQ(sa.prequential_hits, sb.prequential_hits);
    EXPECT_EQ(sa.baseline_accuracy, sb.baseline_accuracy);
    EXPECT_EQ(sa.last_eval_accuracy, sb.last_eval_accuracy);
    EXPECT_EQ(sa.last_good_accuracy, sb.last_good_accuracy);
    EXPECT_EQ(model_a->published_version(), model_b->published_version());
    EXPECT_EQ(model_a->published_weights()->snapshot.layers,
              model_b->published_weights()->snapshot.layers);
}

// ---- concurrency (run under TSan in CI) -------------------------------------

TEST(OnlineServing, LearnerAndServerRunConcurrently) {
    const auto model = make_model();
    const auto images = toy_set(8, 71);
    serve::ServerOptions opt;
    opt.workers = 2;
    opt.batch.max_batch = 4;
    opt.admission.feedback_capacity = 128;
    serve::Server server(model, opt);
    online::OnlineOptions oopt;
    oopt.publish_interval = 16;
    oopt.max_regression = 1.0;  // publish every interval: exercise the swap
    online::OnlineEngine engine(model, server.feedback_queue(), toy_set(3, 72),
                                oopt);
    server.start();
    engine.start();

    std::atomic<std::size_t> served{0};
    std::vector<std::thread> clients;
    for (int c = 0; c < 2; ++c)
        clients.emplace_back([&] {
            for (std::size_t i = 0; i < 64; ++i) {
                auto r = server.submit(images.samples[i % images.size()].image)
                             .get();
                if (r.status == serve::Status::Ok) ++served;
            }
        });
    std::thread producer([&] {
        for (std::size_t round = 0; round < 8; ++round)
            for (const auto& s : images.samples)
                server.submit_feedback(s.image, s.label);
    });
    for (auto& t : clients) t.join();
    producer.join();
    ASSERT_TRUE(eventually([&] { return engine.stats().feedback_seen > 0; }));
    server.shutdown();
    engine.stop();

    EXPECT_EQ(served.load(), 128u);
    const auto stats = engine.stats();
    EXPECT_GT(stats.trained, 0u);
    // Published versions (if any interval completed) were adopted or will
    // be — either way the counters must be coherent.
    EXPECT_EQ(stats.candidates, stats.published + stats.rollbacks);
}
