// Tests for the data-parallel batched training engine and the chip kernels
// it leans on:
//   * a 1-thread / batch-1 ParallelTrainer is bit-identical to the serial
//     core::train_epoch,
//   * batched results are independent of the thread count given fixed
//     seeds (the determinism contract of docs/ARCHITECTURE.md §4),
//   * the lane kernels leave every ActivityTotals counter — and the
//     trained weights — exactly equal to the scalar reference kernels.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <vector>

#include "common/rng.hpp"
#include "common/threadpool.hpp"
#include "core/network.hpp"
#include "core/parallel_trainer.hpp"
#include "core/trainer.hpp"

using namespace neuro;
using namespace neuro::core;
using neuro::common::Rng;
using neuro::common::Tensor;

namespace {

constexpr std::size_t kDims = 25;
constexpr std::size_t kClasses = 3;

data::Dataset toy_stream(std::size_t n, std::uint64_t seed) {
    Rng rng(seed);
    std::vector<std::vector<float>> protos;
    for (std::size_t k = 0; k < kClasses; ++k) {
        std::vector<float> p(kDims);
        for (auto& v : p) v = rng.bernoulli(0.5) ? 0.8f : 0.05f;
        protos.push_back(std::move(p));
    }
    data::Dataset d;
    d.name = "toy";
    d.channels = 1;
    d.height = 1;
    d.width = kDims;
    d.num_classes = kClasses;
    for (std::size_t i = 0; i < n; ++i) {
        const auto c = static_cast<std::size_t>(
            rng.uniform_int(0, static_cast<std::int64_t>(kClasses) - 1));
        Tensor x({1, 1, kDims});
        for (std::size_t j = 0; j < kDims; ++j)
            x[j] = std::clamp(
                protos[c][j] + static_cast<float>(rng.normal(0.0, 0.1)), 0.0f,
                1.0f);
        d.samples.push_back({std::move(x), c});
    }
    return d;
}

EmstdpOptions small_options() {
    EmstdpOptions opt;
    opt.phase_length = 32;
    opt.theta_dense = 128;
    return opt;
}

EmstdpNetwork make_net(const EmstdpOptions& opt) {
    return EmstdpNetwork(opt, 1, 1, kDims, nullptr, {12}, kClasses);
}

std::vector<std::vector<std::int32_t>> run_parallel_epochs(
    const EmstdpOptions& netopt, ParallelOptions popt,
    const data::Dataset& stream, std::size_t epochs) {
    EmstdpNetwork net = make_net(netopt);
    ParallelTrainer trainer(net, popt);
    Rng rng(101);
    for (std::size_t e = 0; e < epochs; ++e)
        trainer.train_epoch(stream, rng, /*measure_prequential=*/true);
    return net.plastic_weights();
}

}  // namespace

// ---- thread pool ------------------------------------------------------------

TEST(ThreadPool, RunsEveryJobExactlyOnce) {
    common::ThreadPool pool(4);
    EXPECT_EQ(pool.size(), 4u);
    std::vector<std::atomic<int>> visits(257);
    for (auto& v : visits) v = 0;
    pool.run(visits.size(), [&](std::size_t j) { ++visits[j]; });
    for (const auto& v : visits) EXPECT_EQ(v.load(), 1);
}

TEST(ThreadPool, ReusableAcrossRuns) {
    common::ThreadPool pool(2);
    std::atomic<int> total{0};
    for (int round = 0; round < 10; ++round)
        pool.run(16, [&](std::size_t) { ++total; });
    EXPECT_EQ(total.load(), 160);
}

TEST(ThreadPool, PropagatesExceptions) {
    common::ThreadPool pool(3);
    EXPECT_THROW(
        pool.run(8,
                 [&](std::size_t j) {
                     if (j == 5) throw std::runtime_error("boom");
                 }),
        std::runtime_error);
    // The pool must still be usable after a failed run.
    std::atomic<int> total{0};
    pool.run(4, [&](std::size_t) { ++total; });
    EXPECT_EQ(total.load(), 4);
}

// ---- parallel trainer -------------------------------------------------------

TEST(ParallelTrainer, BatchOneMatchesSerialTrainerBitExact) {
    const auto stream = toy_stream(24, 5);
    const auto opt = small_options();

    EmstdpNetwork serial_net = make_net(opt);
    Rng serial_rng(101);
    const double serial_acc =
        core::train_epoch(serial_net, stream, serial_rng, true);

    EmstdpNetwork par_net = make_net(opt);
    ParallelOptions popt;
    popt.threads = 1;
    popt.batch = 1;
    ParallelTrainer trainer(par_net, popt);
    Rng par_rng(101);
    const double par_acc = trainer.train_epoch(stream, par_rng, true);

    EXPECT_EQ(serial_acc, par_acc);
    EXPECT_EQ(serial_net.plastic_weights(), par_net.plastic_weights());
    // And the serial path must consume the chip exactly alike: same step,
    // spike and I/O counters.
    const auto& a = serial_net.chip().activity();
    const auto& b = par_net.chip().activity();
    EXPECT_EQ(a.steps, b.steps);
    EXPECT_EQ(a.compartment_updates, b.compartment_updates);
    EXPECT_EQ(a.synaptic_ops, b.synaptic_ops);
    EXPECT_EQ(a.spikes, b.spikes);
    EXPECT_EQ(a.host_io_writes, b.host_io_writes);
}

TEST(ParallelTrainer, ResultIndependentOfThreadCount) {
    const auto stream = toy_stream(22, 6);
    const auto netopt = small_options();

    ParallelOptions base;
    base.batch = 5;  // deliberately not a divisor of the stream size

    ParallelOptions p1 = base;
    p1.threads = 1;
    const auto w1 = run_parallel_epochs(netopt, p1, stream, 2);

    ParallelOptions p3 = base;
    p3.threads = 3;
    const auto w3 = run_parallel_epochs(netopt, p3, stream, 2);

    ParallelOptions p8 = base;
    p8.threads = 8;  // more workers than samples in the tail batch
    const auto w8 = run_parallel_epochs(netopt, p8, stream, 2);

    EXPECT_EQ(w1, w3);
    EXPECT_EQ(w1, w8);
}

TEST(ParallelTrainer, MeanClipMergeAlsoThreadInvariant) {
    const auto stream = toy_stream(18, 7);
    const auto netopt = small_options();

    ParallelOptions base;
    base.batch = 6;
    base.merge = MergeMode::MeanClip;

    ParallelOptions p1 = base;
    p1.threads = 1;
    ParallelOptions p4 = base;
    p4.threads = 4;
    EXPECT_EQ(run_parallel_epochs(netopt, p1, stream, 1),
              run_parallel_epochs(netopt, p4, stream, 1));
}

TEST(ParallelTrainer, ParallelEvaluateMatchesSerial) {
    const auto stream = toy_stream(30, 8);
    const auto opt = small_options();
    EmstdpNetwork net = make_net(opt);

    ParallelOptions popt;
    popt.threads = 3;
    popt.batch = 4;
    ParallelTrainer trainer(net, popt);
    Rng rng(13);
    trainer.train_epoch(stream, rng);

    EXPECT_EQ(trainer.evaluate(stream), core::evaluate(net, stream));
}

TEST(ParallelTrainer, BatchedTrainingStillLearnsTheToyTask) {
    const auto stream = toy_stream(120, 9);
    const auto opt = small_options();
    EmstdpNetwork net = make_net(opt);

    ParallelOptions popt;
    popt.threads = 4;
    popt.batch = 4;
    ParallelTrainer trainer(net, popt);
    Rng rng(17);
    for (int e = 0; e < 3; ++e) trainer.train_epoch(stream, rng);
    EXPECT_GT(trainer.evaluate(stream), 0.7);
}

// ---- lane kernels vs scalar oracle -------------------------------------------

namespace {

void expect_activity_equal(const loihi::ActivityTotals& a,
                           const loihi::ActivityTotals& b) {
    EXPECT_EQ(a.steps, b.steps);
    EXPECT_EQ(a.compartment_updates, b.compartment_updates);
    EXPECT_EQ(a.synaptic_ops, b.synaptic_ops);
    EXPECT_EQ(a.spikes, b.spikes);
    EXPECT_EQ(a.learning_synapse_visits, b.learning_synapse_visits);
    EXPECT_EQ(a.host_io_writes, b.host_io_writes);
}

void run_kernel_parity(EmstdpOptions opt) {
    EmstdpNetwork lane_net = make_net(opt);
    EmstdpNetwork scalar_net = make_net(opt);
    ASSERT_TRUE(lane_net.chip().vector_sweep());
    scalar_net.chip().set_vector_sweep(false);

    const auto stream = toy_stream(10, 21);
    for (const auto& s : stream.samples) {
        lane_net.train_sample(s.image, s.label);
        scalar_net.train_sample(s.image, s.label);
    }
    // Interleave inference (exercises clear_bias / predict resets too).
    for (const auto& s : stream.samples)
        EXPECT_EQ(lane_net.predict(s.image), scalar_net.predict(s.image));

    expect_activity_equal(lane_net.chip().activity(),
                          scalar_net.chip().activity());
    EXPECT_EQ(lane_net.plastic_weights(), scalar_net.plastic_weights());
}

}  // namespace

TEST(KernelParity, ActivityCountersExactVsScalarKernels) {
    run_kernel_parity(small_options());
}

TEST(KernelParity, ExactWithDecayingTracesAndFA) {
    // hw_trace_approx adds per-step decaying traces (shared-RNG order
    // matters); FA adds AND-gated aux compartments and the error chain.
    auto opt = small_options();
    opt.hw_trace_approx = true;
    opt.feedback = FeedbackMode::FA;
    run_kernel_parity(opt);
}

TEST(KernelParity, ExactUnderFaultsAndThresholdVariation) {
    // A dead unit sends its whole population down the scalar path; the
    // threshold offsets land in the lanes' effective-threshold table.
    auto opt = small_options();
    EmstdpNetwork lane_net = make_net(opt);
    EmstdpNetwork scalar_net = make_net(opt);
    scalar_net.chip().set_vector_sweep(false);
    for (auto* net : {&lane_net, &scalar_net}) {
        net->chip().set_compartment_dead(net->input_pop(), 3, true);
        net->chip().set_threshold_offset(net->output_pop(), 1, -40);
        net->chip().set_threshold_offset(net->hidden_pops()[0], 2, 25);
    }
    const auto stream = toy_stream(6, 33);
    for (const auto& s : stream.samples) {
        lane_net.train_sample(s.image, s.label);
        scalar_net.train_sample(s.image, s.label);
    }
    expect_activity_equal(lane_net.chip().activity(),
                          scalar_net.chip().activity());
    EXPECT_EQ(lane_net.plastic_weights(), scalar_net.plastic_weights());
}

// ---- post-finalize weight programming --------------------------------------

TEST(ProgramWeights, ReprogramsAfterFinalizeAndRespectsStuckCells) {
    auto opt = small_options();
    EmstdpNetwork net = make_net(opt);
    const auto proj = net.plastic_projections()[0];
    auto w = net.chip().weights(proj);

    net.chip().set_synapse_stuck(proj, 2, 11);
    std::vector<std::int32_t> target(w.size(), 7);
    net.chip().program_weights(proj, target);

    const auto got = net.chip().weights(proj);
    for (std::size_t i = 0; i < got.size(); ++i)
        EXPECT_EQ(got[i], i == 2 ? 11 : 7);

    std::vector<std::int32_t> too_big(w.size(), 1000);
    EXPECT_THROW(net.chip().program_weights(proj, too_big),
                 std::invalid_argument);
    EXPECT_THROW(net.chip().program_weights(proj, {1, 2, 3}),
                 std::invalid_argument);
}
