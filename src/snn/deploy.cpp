#include "snn/deploy.hpp"

#include <cmath>
#include <stdexcept>

#include "ann/ops.hpp"
#include "common/fixed.hpp"
#include "data/encode.hpp"
#include "snn/topology.hpp"

namespace neuro::snn {

namespace {

/// Quantizes a normalized weight bank onto the signed grid; returns the
/// scale S (= IF threshold) that maps 1.0 to the top of the grid. Mirrors
/// convert.cpp's conv quantization so every layer shares the convention.
std::int32_t quantize_bank(const std::vector<float>& w_norm,
                           std::vector<std::int32_t>& out, int weight_bits) {
    float wmax = 0.0f;
    for (float v : w_norm) wmax = std::max(wmax, std::abs(v));
    if (wmax <= 0.0f) throw std::invalid_argument("quantize_bank: all-zero weights");
    const float hi = static_cast<float>((std::int64_t{1} << (weight_bits - 1)) - 1);
    const float scale = hi / wmax;
    out.resize(w_norm.size());
    for (std::size_t i = 0; i < w_norm.size(); ++i)
        out[i] = common::saturate_signed(
            static_cast<std::int64_t>(std::lround(w_norm[i] * scale)), weight_bits);
    return std::max<std::int32_t>(1, static_cast<std::int32_t>(std::lround(scale)));
}

QuantizedDenseLayer quantize_dense(const common::Tensor& w, const common::Tensor& b,
                                   float lambda_prev, float lambda,
                                   int weight_bits) {
    QuantizedDenseLayer q;
    q.out = w.dim(0);
    q.in = w.dim(1);
    q.lambda = lambda;
    std::vector<float> w_norm(w.size());
    for (std::size_t i = 0; i < w.size(); ++i)
        w_norm[i] = w[i] * lambda_prev / lambda;
    q.vth = quantize_bank(w_norm, q.weights, weight_bits);
    q.bias.resize(q.out);
    for (std::size_t o = 0; o < q.out; ++o)
        q.bias[o] = static_cast<std::int32_t>(
            std::lround(b[o] / lambda * static_cast<float>(q.vth)));
    return q;
}

}  // namespace

ConvertedModel convert_full_model(const ann::Model& model,
                                  const ann::PaperTopology& topo,
                                  const data::Dataset& calibration,
                                  float activation_percentile, int weight_bits) {
    const auto& layers = model.layers();
    if (layers.size() < 7)
        throw std::invalid_argument("convert_full_model: not a paper-topology model");
    const auto* fc1 = dynamic_cast<const ann::Dense*>(layers[4].get());
    const auto* fc2 = dynamic_cast<const ann::Dense*>(layers[6].get());
    if (fc1 == nullptr || fc2 == nullptr)
        throw std::invalid_argument("convert_full_model: layers 4/6 are not Dense");

    ConvertedModel out;
    out.stack = convert_conv_stack(model, topo, calibration,
                                   activation_percentile, weight_bits);

    // Continue the lambda chain through the dense head: collect pre-ReLU
    // fc1 activations and positive fc2 logits on the calibration set.
    const auto* conv1 = dynamic_cast<const ann::Conv2d*>(layers[0].get());
    const auto* conv2 = dynamic_cast<const ann::Conv2d*>(layers[2].get());
    std::vector<float> act3;
    std::vector<float> act4;
    for (const auto& s : calibration.samples) {
        auto a = ann::relu_forward(ann::conv2d_forward(
            s.image, conv1->weights(), conv1->bias(), conv1->stride()));
        a = ann::relu_forward(ann::conv2d_forward(a, conv2->weights(),
                                                  conv2->bias(), conv2->stride()));
        const auto z3 = ann::dense_forward(a, fc1->weights(), fc1->bias());
        for (float v : z3)
            if (v > 0.0f) act3.push_back(v);
        const auto z4 =
            ann::dense_forward(ann::relu_forward(z3), fc2->weights(), fc2->bias());
        for (float v : z4)
            if (v > 0.0f) act4.push_back(v);
    }
    const float lambda3 =
        act3.empty() ? 1.0f : percentile(act3, activation_percentile);
    const float lambda4 =
        act4.empty() ? 1.0f : percentile(act4, activation_percentile);

    out.fc1 = quantize_dense(fc1->weights(), fc1->bias(), out.stack.conv2.lambda,
                             lambda3, weight_bits);
    out.fc2 = quantize_dense(fc2->weights(), fc2->bias(), lambda3, lambda4,
                             weight_bits);
    return out;
}

ConvertedNetwork::ConvertedNetwork(const ConvertedModel& model,
                                   const ann::PaperTopology& topo,
                                   std::int32_t phase_length,
                                   loihi::ChipLimits limits)
    : chip_(limits),
      phase_length_(phase_length),
      input_size_(topo.in_c * topo.in_h * topo.in_w) {
    if (model.fc1.in != topo.feature_size() || model.fc2.in != model.fc1.out)
        throw std::invalid_argument("ConvertedNetwork: model/topology mismatch");
    if (phase_length_ < 1)
        throw std::invalid_argument("ConvertedNetwork: phase_length < 1");

    // All populations use the paper IF configuration: perfect integrator
    // with instant current decay, soft reset, floored at zero (ReLU).
    auto if_cfg = [](std::int32_t vth) {
        loihi::CompartmentConfig c;
        c.decay_u = 4096;
        c.decay_v = 0;
        c.vth = vth;
        c.soft_reset = true;
        c.floor_at_zero = true;
        return c;
    };

    loihi::PopulationConfig pc;
    pc.name = "input";
    pc.size = input_size_;
    pc.compartment = if_cfg(phase_length_);
    input_ = chip_.add_population(pc);

    pc.name = "conv1";
    pc.size = model.stack.conv1.spec.out_size();
    pc.compartment = if_cfg(model.stack.conv1.vth);
    conv1_ = chip_.add_population(pc);

    pc.name = "conv2";
    pc.size = model.stack.conv2.spec.out_size();
    pc.compartment = if_cfg(model.stack.conv2.vth);
    conv2_ = chip_.add_population(pc);

    pc.name = "fc1";
    pc.size = model.fc1.out;
    pc.compartment = if_cfg(model.fc1.vth);
    fc1_ = chip_.add_population(pc);

    pc.name = "fc2";
    pc.size = model.fc2.out;
    pc.compartment = if_cfg(model.fc2.vth);
    fc2_ = chip_.add_population(pc);

    auto connect = [&](loihi::PopulationId src, loihi::PopulationId dst,
                       std::vector<loihi::Synapse> syns, const char* name) {
        loihi::ProjectionConfig cfg;
        cfg.name = name;
        cfg.src = src;
        cfg.dst = dst;
        chip_.add_projection(cfg, std::move(syns));
    };
    // Conv neurons sit channel-minor (conv_placement); fc1 keeps its logical
    // synapse order and reads conv2 at the placed sources.
    const ConvSpec& spec1 = model.stack.conv1.spec;
    const ConvSpec& spec2 = model.stack.conv2.spec;
    connect(input_, conv1_,
            placed_conv_synapses(spec1, model.stack.conv1.weights, nullptr),
            "conv1");
    connect(conv1_, conv2_,
            placed_conv_synapses(spec2, model.stack.conv2.weights, &spec1), "conv2");
    auto fc1 = dense_synapses(model.fc1.in, model.fc1.out, model.fc1.weights);
    for (auto& s : fc1)
        s.src = static_cast<std::uint32_t>(conv_placement(spec2, s.src));
    connect(conv2_, fc1_, std::move(fc1), "fc1");
    connect(fc1_, fc2_,
            dense_synapses(model.fc2.in, model.fc2.out, model.fc2.weights), "fc2");

    chip_.set_bias(conv1_, place_conv_values(spec1, model.stack.conv1.bias));
    chip_.set_bias(conv2_, place_conv_values(spec2, model.stack.conv2.bias));
    chip_.set_bias(fc1_, model.fc1.bias);
    chip_.set_bias(fc2_, model.fc2.bias);

    chip_.finalize();
    chip_.reset_activity();
}

std::vector<std::int32_t> ConvertedNetwork::output_counts(
    const common::Tensor& image) {
    if (image.size() != input_size_)
        throw std::invalid_argument("ConvertedNetwork: image size mismatch");
    // Per-sample reset clears membranes and counters; the programmed layer
    // biases are not dynamic state and persist.
    chip_.reset_dynamic_state();
    chip_.set_bias(input_, data::quantize_to_bias(image, phase_length_));
    chip_.run(static_cast<std::size_t>(phase_length_));
    return chip_.spike_counts(fc2_, loihi::Phase::One);
}

std::size_t ConvertedNetwork::predict(const common::Tensor& image) {
    const auto counts = output_counts(image);
    std::size_t best = 0;
    std::int64_t best_v = chip_.membrane(fc2_, 0);
    for (std::size_t j = 1; j < counts.size(); ++j) {
        const std::int64_t vj = chip_.membrane(fc2_, j);
        if (counts[j] > counts[best] || (counts[j] == counts[best] && vj > best_v)) {
            best = j;
            best_v = vj;
        }
    }
    return best;
}

}  // namespace neuro::snn
