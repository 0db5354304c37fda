// Tests for the paper's primary contribution: EMSTDP on the chip. Covers
// the derived learning shift, network structure (FA-vs-DFA resource claims
// of Sec. III-A), on-chip learning on toy tasks, the incremental-learning
// hooks, and the input-encoding equivalence (adaptation technique 4).

#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>

#include "common/rng.hpp"
#include "core/network.hpp"
#include "core/trainer.hpp"

using namespace neuro::core;
using neuro::common::Rng;
using neuro::common::Tensor;

namespace {

struct ToyTask {
    std::vector<std::vector<float>> protos;
    std::size_t dims, classes;

    ToyTask(std::size_t d, std::size_t c, Rng& rng) : dims(d), classes(c) {
        for (std::size_t k = 0; k < c; ++k) {
            std::vector<float> p(d);
            for (auto& v : p) v = rng.bernoulli(0.5) ? 0.75f : 0.05f;
            protos.push_back(std::move(p));
        }
    }

    std::pair<Tensor, std::size_t> sample(Rng& rng) const {
        const auto c = static_cast<std::size_t>(
            rng.uniform_int(0, static_cast<std::int64_t>(classes) - 1));
        Tensor x({1, 1, dims});
        for (std::size_t i = 0; i < dims; ++i) {
            const float v = protos[c][i] + static_cast<float>(rng.normal(0.0, 0.08));
            x[i] = std::clamp(v, 0.0f, 1.0f);
        }
        return {std::move(x), c};
    }

    neuro::data::Dataset as_dataset(std::size_t n, Rng& rng) const {
        neuro::data::Dataset d;
        d.name = "toy";
        d.channels = 1;
        d.height = 1;
        d.width = dims;
        d.num_classes = classes;
        for (std::size_t i = 0; i < n; ++i) {
            auto [x, y] = sample(rng);
            d.samples.push_back({std::move(x), y});
        }
        return d;
    }
};

double train_eval(EmstdpNetwork& net, const ToyTask& task, std::size_t train_n,
                  Rng& rng) {
    for (std::size_t i = 0; i < train_n; ++i) {
        auto [x, y] = task.sample(rng);
        net.train_sample(x, y);
    }
    std::size_t hit = 0;
    for (std::size_t i = 0; i < 150; ++i) {
        auto [x, y] = task.sample(rng);
        if (net.predict(x) == y) ++hit;
    }
    return static_cast<double>(hit) / 150.0;
}

}  // namespace

TEST(Options, LearningShiftDerivation) {
    EmstdpOptions opt;  // T=64, eta=1/8 (the paper's 2^-3), theta=256
    EXPECT_EQ(opt.learning_shift(), 7);
    opt.eta = 0.0625f;
    EXPECT_EQ(opt.learning_shift(), 8);
    opt.theta_dense = 512;
    EXPECT_EQ(opt.learning_shift(), 7);
}

TEST(Structure, DfaUsesFewerFeedbackResourcesThanFa) {
    // Paper Sec. III-A: "DFA does not only eliminate the neurons on the
    // feedback path, the number of connections on the feedback path is also
    // reduced" — structural assertion, two hidden layers to expose the chain.
    EmstdpOptions fa;
    fa.feedback = FeedbackMode::FA;
    EmstdpOptions dfa;
    dfa.feedback = FeedbackMode::DFA;
    EmstdpNetwork net_fa(fa, 1, 1, 50, nullptr, {40, 30}, 10);
    EmstdpNetwork net_dfa(dfa, 1, 1, 50, nullptr, {40, 30}, 10);

    const auto cf = net_fa.costs();
    const auto cd = net_dfa.costs();
    EXPECT_LT(cd.feedback_compartments, cf.feedback_compartments);
    EXPECT_LT(cd.feedback_synapses, cf.feedback_synapses);
    EXPECT_LE(cd.cores, cf.cores);
    EXPECT_LT(cd.compartments, cf.compartments);
}

TEST(Structure, InferenceOnlyDropsErrorPath) {
    EmstdpOptions train_opt;
    EmstdpOptions inf_opt;
    inf_opt.inference_only = true;
    EmstdpNetwork trainable(train_opt, 1, 1, 30, nullptr, {20}, 5);
    EmstdpNetwork inference(inf_opt, 1, 1, 30, nullptr, {20}, 5);
    EXPECT_LT(inference.costs().compartments, trainable.costs().compartments);
    EXPECT_EQ(inference.costs().feedback_synapses, 0u);
    Tensor x({1, 1, 30});
    EXPECT_THROW(inference.train_sample(x, 0), std::logic_error);
    EXPECT_NO_THROW(inference.predict(x));
}

TEST(Learning, SingleLayerLearnsOnChip) {
    Rng rng(11);
    ToyTask task(16, 4, rng);
    EmstdpOptions opt;
    EmstdpNetwork net(opt, 1, 1, 16, nullptr, {}, 4);
    EXPECT_GT(train_eval(net, task, 350, rng), 0.85);
}

TEST(Learning, TwoLayerDfaLearnsOnChip) {
    Rng rng(12);
    ToyTask task(20, 4, rng);
    EmstdpOptions opt;
    opt.feedback = FeedbackMode::DFA;
    EmstdpNetwork net(opt, 1, 1, 20, nullptr, {30}, 4);
    EXPECT_GT(train_eval(net, task, 500, rng), 0.8);
}

TEST(Learning, TwoLayerFaLearnsOnChip) {
    Rng rng(13);
    ToyTask task(20, 4, rng);
    EmstdpOptions opt;
    opt.feedback = FeedbackMode::FA;
    EmstdpNetwork net(opt, 1, 1, 20, nullptr, {30}, 4);
    EXPECT_GT(train_eval(net, task, 500, rng), 0.6);
}

TEST(Learning, QuantizationBitsChangeOutcome) {
    // 4-bit weights must underperform 8-bit weights on the same stream —
    // the degradation direction Table I attributes to quantization.
    Rng rng(14);
    ToyTask task(16, 4, rng);
    EmstdpOptions o8;
    o8.weight_bits = 8;
    EmstdpOptions o4;
    o4.weight_bits = 4;
    EmstdpNetwork n8(o8, 1, 1, 16, nullptr, {}, 4);
    EmstdpNetwork n4(o4, 1, 1, 16, nullptr, {}, 4);
    Rng s1(77), s2(77);
    const double a8 = train_eval(n8, task, 350, s1);
    const double a4 = train_eval(n4, task, 350, s2);
    EXPECT_GE(a8, a4 - 0.05) << "8-bit should not lose clearly to 4-bit";
    EXPECT_GT(a8, 0.8);
}

TEST(Hooks, ClassMaskDisablesOutputAndFreezesRows) {
    EmstdpOptions opt;
    EmstdpNetwork net(opt, 1, 1, 12, nullptr, {}, 4);
    net.set_class_mask({true, false, true, true});

    Tensor x({1, 1, 12});
    x.fill(0.6f);
    const auto w_before = net.chip().weights(net.plastic_projections()[0]);
    net.train_sample(x, 0);
    const auto w_after = net.chip().weights(net.plastic_projections()[0]);
    // Row of the disabled class (dst == 1) must be untouched.
    // dense_synapses layout: synapse (src=i, dst=o) at index o*in + i.
    for (std::size_t i = 0; i < 12; ++i)
        EXPECT_EQ(w_after[1 * 12 + i], w_before[1 * 12 + i]);

    // The disabled output must be silent even under strong drive.
    const auto counts = net.output_counts(x);
    EXPECT_EQ(counts[1], 0);
}

TEST(Hooks, LearningShiftOffsetShrinksUpdates) {
    Rng rng(15);
    ToyTask task(12, 3, rng);
    EmstdpOptions opt;
    EmstdpNetwork slow(opt, 1, 1, 12, nullptr, {}, 3);
    EmstdpNetwork fast(opt, 1, 1, 12, nullptr, {}, 3);
    slow.set_learning_shift_offset(4);  // eta / 16

    Rng s1(5), s2(5);
    long drift_slow = 0, drift_fast = 0;
    const auto w0s = slow.chip().weights(slow.plastic_projections()[0]);
    const auto w0f = fast.chip().weights(fast.plastic_projections()[0]);
    for (int i = 0; i < 30; ++i) {
        auto [x1, y1] = task.sample(s1);
        slow.train_sample(x1, y1);
        auto [x2, y2] = task.sample(s2);
        fast.train_sample(x2, y2);
    }
    const auto w1s = slow.chip().weights(slow.plastic_projections()[0]);
    const auto w1f = fast.chip().weights(fast.plastic_projections()[0]);
    for (std::size_t i = 0; i < w0s.size(); ++i) {
        drift_slow += std::abs(w1s[i] - w0s[i]);
        drift_fast += std::abs(w1f[i] - w0f[i]);
    }
    EXPECT_LT(drift_slow * 3, drift_fast)
        << "reduced learning rate must shrink weight drift";
    EXPECT_THROW(slow.set_learning_shift_offset(-1), std::invalid_argument);
}

TEST(InputEncoding, BiasAndInsertionProduceIdenticalActivity) {
    // Adaptation technique 4: the bias encoding generates on chip exactly
    // the spike train the host would insert; downstream counts must match
    // while host I/O differs enormously.
    EmstdpOptions bias_opt;
    bias_opt.input_mode = InputMode::BiasProgramming;
    EmstdpOptions spike_opt;
    spike_opt.input_mode = InputMode::SpikeInsertion;
    EmstdpNetwork bias_net(bias_opt, 1, 1, 16, nullptr, {}, 4);
    EmstdpNetwork spike_net(spike_opt, 1, 1, 16, nullptr, {}, 4);

    Tensor x({1, 1, 16});
    for (std::size_t i = 0; i < 16; ++i)
        x[i] = static_cast<float>(i) / 16.0f;

    const auto c_bias = bias_net.output_counts(x);
    const auto c_spike = spike_net.output_counts(x);
    EXPECT_EQ(c_bias, c_spike);

    const auto io_bias = bias_net.chip().activity().host_io_writes;
    const auto io_spike = spike_net.chip().activity().host_io_writes;
    EXPECT_GT(io_spike, io_bias)
        << "spike insertion must cost more host transactions (bright pixels)";
}

TEST(Trainer, EpochAndEvaluateRoundTrip) {
    Rng rng(16);
    ToyTask task(14, 3, rng);
    const auto train = task.as_dataset(200, rng);
    const auto test = task.as_dataset(80, rng);

    EmstdpOptions opt;
    EmstdpNetwork net(opt, 1, 1, 14, nullptr, {}, 3);
    const double before = evaluate(net, test);
    Rng train_rng(3);
    for (int e = 0; e < 2; ++e) train_epoch(net, train, train_rng);
    const double after = evaluate(net, test);
    EXPECT_GT(after, before + 0.2) << "training must improve accuracy";
    EXPECT_GT(after, 0.8);
}

TEST(Trainer, EnergyReportsDistinguishTrainAndTest) {
    Rng rng(17);
    ToyTask task(14, 3, rng);
    const auto ds = task.as_dataset(24, rng);
    EmstdpOptions opt;
    EmstdpNetwork net(opt, 1, 1, 14, nullptr, {}, 3);
    const neuro::loihi::EnergyModelParams params;
    const auto train_r = measure_energy(net, ds, 8, /*training=*/true, params);
    const auto test_r = measure_energy(net, ds, 8, /*training=*/false, params);
    EXPECT_EQ(train_r.steps_per_sample, 128u);
    EXPECT_EQ(test_r.steps_per_sample, 64u);
    EXPECT_GT(train_r.energy_per_sample_j, test_r.energy_per_sample_j);
    EXPECT_GT(train_r.power_w, 0.1);
    EXPECT_GT(test_r.fps, train_r.fps);
}

TEST(Deployment, CheckpointRestoresBehaviour) {
    Rng rng(19);
    ToyTask task(14, 3, rng);
    EmstdpOptions opt;
    EmstdpNetwork trained(opt, 1, 1, 14, nullptr, {10}, 3);
    for (int i = 0; i < 150; ++i) {
        auto [x, y] = task.sample(rng);
        trained.train_sample(x, y);
    }
    const std::string path = testing::TempDir() + "/neuro_net_ckpt.bin";
    trained.save(path);

    EmstdpOptions opt2 = opt;
    opt2.seed = 1234;  // different init — must be fully overwritten
    EmstdpNetwork restored(opt2, 1, 1, 14, nullptr, {10}, 3);
    restored.load(path);
    for (int i = 0; i < 30; ++i) {
        auto [x, y] = task.sample(rng);
        EXPECT_EQ(restored.predict(x), trained.predict(x));
        (void)y;
    }
    std::filesystem::remove(path);
}

TEST(Deployment, CheckpointOfAnotherConvStackIsRejected) {
    // A checkpoint restores weights by list position; one whose frozen conv
    // weights differ (another stack, or the channel-major conv order of
    // files written before the conv placement) must not load silently.
    auto stack = [](std::int32_t w0) {
        neuro::snn::ConvertedStack s;
        s.conv1.spec = {1, 8, 8, 2, 3, 1};
        s.conv1.weights.assign(2 * 9, 3);
        s.conv1.weights[0] = w0;
        s.conv1.bias.assign(s.conv1.spec.out_size(), 1);
        s.conv1.vth = 8;
        s.conv2.spec = {2, 6, 6, 2, 3, 1};
        s.conv2.weights.assign(2 * 2 * 9, 2);
        s.conv2.bias.assign(s.conv2.spec.out_size(), 1);
        s.conv2.vth = 8;
        return s;
    };
    const auto a = stack(3);
    const auto b = stack(-5);
    EmstdpOptions opt;
    EmstdpNetwork saved(opt, 1, 8, 8, &a, {6}, 2);
    const std::string path = testing::TempDir() + "/neuro_conv_ckpt.bin";
    saved.save(path);

    EmstdpNetwork same(opt, 1, 8, 8, &a, {6}, 2);
    EXPECT_NO_THROW(same.load(path));
    EmstdpNetwork other(opt, 1, 8, 8, &b, {6}, 2);
    const auto before = other.chip().weights(0);
    EXPECT_THROW(other.load(path), std::runtime_error);
    EXPECT_EQ(other.chip().weights(0), before);  // left as it was
    std::filesystem::remove(path);
}

TEST(Determinism, SameSeedsSameChipWeights) {
    Rng rng(21);
    ToyTask task(12, 3, rng);
    EmstdpOptions opt;
    opt.seed = 99;
    EmstdpNetwork a(opt, 1, 1, 12, nullptr, {8}, 3);
    EmstdpNetwork b(opt, 1, 1, 12, nullptr, {8}, 3);
    Rng s1(55), s2(55);
    for (int i = 0; i < 40; ++i) {
        auto [x1, y1] = task.sample(s1);
        a.train_sample(x1, y1);
        auto [x2, y2] = task.sample(s2);
        b.train_sample(x2, y2);
    }
    for (std::size_t p = 0; p < a.plastic_projections().size(); ++p)
        EXPECT_EQ(a.chip().weights(a.plastic_projections()[p]),
                  b.chip().weights(b.plastic_projections()[p]));
}
