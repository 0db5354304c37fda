// Unit tests for src/ann: numerical gradient checks on every op, training
// behaviour, checkpoint round-trips, and the paper-topology geometry.

#include <gtest/gtest.h>

#include <cmath>
#include <filesystem>

#include "ann/model.hpp"
#include "ann/ops.hpp"
#include "ann/trainer.hpp"
#include "data/dataset.hpp"

using namespace neuro::ann;
using neuro::common::Rng;
using neuro::common::Tensor;

namespace {

Tensor random_tensor(std::vector<std::size_t> shape, Rng& rng, float scale = 1.0f) {
    Tensor t(std::move(shape));
    for (auto& v : t) v = static_cast<float>(rng.uniform(-scale, scale));
    return t;
}

/// Central-difference derivative of a scalar function of one tensor entry.
template <typename F>
float numeric_grad(Tensor& x, std::size_t idx, F loss, float eps = 1e-3f) {
    const float keep = x[idx];
    x[idx] = keep + eps;
    const float up = loss();
    x[idx] = keep - eps;
    const float down = loss();
    x[idx] = keep;
    return (up - down) / (2.0f * eps);
}

float sum_all(const Tensor& t) {
    float s = 0.0f;
    for (float v : t) s += v;
    return s;
}

}  // namespace

TEST(ConvOutDim, FloorSemantics) {
    EXPECT_EQ(conv_out_dim(28, 5, 2), 12u);  // paper conv1
    EXPECT_EQ(conv_out_dim(12, 3, 2), 5u);   // paper conv2
    EXPECT_EQ(conv_out_dim(32, 5, 2), 14u);  // CIFAR geometry
    EXPECT_THROW(conv_out_dim(3, 5, 1), std::invalid_argument);
    // A zero stride is a typed error, not a division by zero.
    EXPECT_THROW(conv_out_dim(28, 5, 0), std::invalid_argument);
}

TEST(Conv2d, GradientMatchesNumeric) {
    Rng rng(2);
    Tensor x = random_tensor({2, 6, 6}, rng);
    Tensor w = random_tensor({3, 2, 3, 3}, rng, 0.5f);
    Tensor b = random_tensor({3}, rng, 0.1f);

    // Loss = sum(conv(x)) so dL/dy = 1 everywhere.
    auto loss = [&] { return sum_all(conv2d_forward(x, w, b, 1)); };
    const Tensor y = conv2d_forward(x, w, b, 1);
    Tensor dy(std::vector<std::size_t>(y.shape()));
    dy.fill(1.0f);
    Tensor dw(std::vector<std::size_t>(w.shape()));
    Tensor db({3});
    const Tensor dx = conv2d_backward(x, w, dy, 1, dw, db);

    for (std::size_t idx : {0u, 10u, 35u, 71u})
        EXPECT_NEAR(dx[idx], numeric_grad(x, idx, loss), 2e-2f) << "dx[" << idx << "]";
    for (std::size_t idx : {0u, 7u, 25u, 53u})
        EXPECT_NEAR(dw[idx], numeric_grad(w, idx, loss), 2e-2f) << "dw[" << idx << "]";
    for (std::size_t idx : {0u, 1u, 2u})
        EXPECT_NEAR(db[idx], numeric_grad(b, idx, loss), 2e-2f) << "db[" << idx << "]";
}

TEST(Conv2d, StridedGradientMatchesNumeric) {
    Rng rng(4);
    Tensor x = random_tensor({1, 7, 7}, rng);
    Tensor w = random_tensor({2, 1, 3, 3}, rng, 0.5f);
    Tensor b({2});

    auto loss = [&] { return sum_all(conv2d_forward(x, w, b, 2)); };
    const Tensor y = conv2d_forward(x, w, b, 2);
    EXPECT_EQ(y.dim(1), 3u);
    Tensor dy(std::vector<std::size_t>(y.shape()));
    dy.fill(1.0f);
    Tensor dw(std::vector<std::size_t>(w.shape()));
    Tensor db({2});
    const Tensor dx = conv2d_backward(x, w, dy, 2, dw, db);
    for (std::size_t idx : {0u, 8u, 24u, 48u})
        EXPECT_NEAR(dx[idx], numeric_grad(x, idx, loss), 2e-2f);
    for (std::size_t idx : {0u, 5u, 17u})
        EXPECT_NEAR(dw[idx], numeric_grad(w, idx, loss), 2e-2f);
}

TEST(Dense, GradientMatchesNumeric) {
    Rng rng(6);
    Tensor x = random_tensor({10}, rng);
    Tensor w = random_tensor({4, 10}, rng, 0.5f);
    Tensor b = random_tensor({4}, rng, 0.1f);

    auto loss = [&] { return sum_all(dense_forward(x, w, b)); };
    Tensor dy({4});
    dy.fill(1.0f);
    Tensor dw({4, 10});
    Tensor db({4});
    const Tensor dx = dense_backward(x, w, dy, dw, db);
    for (std::size_t idx : {0u, 5u, 9u})
        EXPECT_NEAR(dx[idx], numeric_grad(x, idx, loss), 1e-2f);
    for (std::size_t idx : {0u, 13u, 39u})
        EXPECT_NEAR(dw[idx], numeric_grad(w, idx, loss), 1e-2f);
}

TEST(SoftmaxCrossEntropy, GradientMatchesNumeric) {
    Rng rng(8);
    Tensor logits = random_tensor({5}, rng, 2.0f);
    const std::size_t label = 2;

    Tensor dlogits;
    softmax_cross_entropy(logits, label, dlogits);
    auto loss = [&] {
        Tensor d;
        return softmax_cross_entropy(logits, label, d);
    };
    for (std::size_t idx = 0; idx < 5; ++idx)
        EXPECT_NEAR(dlogits[idx], numeric_grad(logits, idx, loss), 1e-3f);
    // Gradient sums to zero (softmax minus one-hot).
    EXPECT_NEAR(sum_all(dlogits), 0.0f, 1e-5f);
}

TEST(SoftmaxCrossEntropy, StableForLargeLogits) {
    Tensor logits({3});
    logits[0] = 1000.0f;
    logits[1] = 0.0f;
    logits[2] = -1000.0f;
    Tensor d;
    const float loss = softmax_cross_entropy(logits, 0, d);
    EXPECT_TRUE(std::isfinite(loss));
    EXPECT_NEAR(loss, 0.0f, 1e-3f);
}

TEST(Relu, ForwardBackward) {
    Tensor x({4});
    x[0] = -1.0f;
    x[1] = 0.0f;
    x[2] = 2.0f;
    x[3] = -0.5f;
    const Tensor y = relu_forward(x);
    EXPECT_FLOAT_EQ(y[0], 0.0f);
    EXPECT_FLOAT_EQ(y[2], 2.0f);
    Tensor dy({4});
    dy.fill(1.0f);
    const Tensor dx = relu_backward(x, dy);
    EXPECT_FLOAT_EQ(dx[0], 0.0f);
    EXPECT_FLOAT_EQ(dx[2], 1.0f);
}

TEST(PaperTopology, GeometryFor28x28) {
    PaperTopology topo;
    topo.in_c = 1;
    topo.in_h = 28;
    topo.in_w = 28;
    EXPECT_EQ(topo.conv1_h(), 12u);
    EXPECT_EQ(topo.conv2_h(), 5u);
    EXPECT_EQ(topo.feature_size(), 8u * 5u * 5u);
}

TEST(Model, OverfitsTinySet) {
    // Ten samples, two classes; the full paper model must drive training
    // accuracy to 100% — a standard sanity check of the whole backward pass.
    neuro::data::GenOptions gen;
    gen.count = 10;
    gen.seed = 2;
    gen.height = 12;
    gen.width = 12;
    auto ds = neuro::data::make_digits(gen).filter_classes({0, 1});

    PaperTopology topo;
    topo.in_c = 1;
    topo.in_h = 12;
    topo.in_w = 12;
    topo.hidden = 24;
    topo.classes = 2;
    Rng rng(3);
    Model m = build_paper_model(topo, rng);
    // Re-map labels {0,1} directly.
    TrainOptions opt;
    opt.epochs = 60;
    opt.batch = 2;
    opt.lr = 0.05f;
    const auto result = train(m, ds, opt, rng);
    EXPECT_GE(result.final_train_accuracy, 0.99);
    EXPECT_LT(result.final_train_loss, 0.2);
}

TEST(Model, CheckpointRoundTrip) {
    PaperTopology topo;
    topo.in_c = 1;
    topo.in_h = 12;
    topo.in_w = 12;
    topo.hidden = 16;
    topo.classes = 4;
    Rng rng(5);
    Model a = build_paper_model(topo, rng);
    Model b = build_paper_model(topo, rng);  // different init

    Tensor x({1, 12, 12});
    for (std::size_t i = 0; i < x.size(); ++i)
        x[i] = static_cast<float>(i % 7) / 7.0f;
    const Tensor ya = a.forward(x);
    const Tensor yb0 = b.forward(x);
    bool differ = false;
    for (std::size_t i = 0; i < ya.size(); ++i)
        if (ya[i] != yb0[i]) differ = true;
    ASSERT_TRUE(differ);

    const std::string path = testing::TempDir() + "/neuro_ann_ckpt.bin";
    a.save(path);
    b.load(path);
    const Tensor yb = b.forward(x);
    for (std::size_t i = 0; i < ya.size(); ++i) ASSERT_FLOAT_EQ(ya[i], yb[i]);
    std::filesystem::remove(path);
}

TEST(Model, DescribeMentionsLayers) {
    PaperTopology topo;
    topo.in_c = 1;
    topo.in_h = 28;
    topo.in_w = 28;
    Rng rng(1);
    const Model m = build_paper_model(topo, rng);
    const std::string d = m.describe();
    EXPECT_NE(d.find("conv 5x5k-16c-2s"), std::string::npos);
    EXPECT_NE(d.find("conv 3x3k-8c-2s"), std::string::npos);
    EXPECT_NE(d.find("dense 200->100"), std::string::npos);
    EXPECT_NE(d.find("dense 100->10"), std::string::npos);
}
