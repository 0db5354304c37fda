#pragma once
// Full ANN -> SNN conversion and inference-only chip deployment — the
// baseline family the paper's introduction contrasts in-hardware learning
// against: "A common approach is to train an ANN and convert it into SNN
// [4], [5], however, this requires the training to be performed offline."
//
// convert_full_model() extends the Diehl-style weight/threshold balancing of
// snn/convert.hpp through the dense head (conv1 -> conv2 -> fc1 -> fc2), and
// ConvertedNetwork lays the result onto the simulated chip as a pure
// feed-forward IF network: no error path, no plasticity, input by bias
// programming. The conversion baseline is strong at matched precision — its
// weakness, demonstrated in bench/baseline_ann_conversion, is that it cannot
// adapt after deployment: any device variation or data drift is permanent.

#include <cstdint>
#include <vector>

#include "common/tensor.hpp"
#include "loihi/chip.hpp"
#include "snn/convert.hpp"

namespace neuro::snn {

/// A dense layer balanced and quantized for the chip.
struct QuantizedDenseLayer {
    std::size_t in = 0;
    std::size_t out = 0;
    /// Row-major {out, in} integer weights.
    std::vector<std::int32_t> weights;
    /// Per-output-neuron integrated bias.
    std::vector<std::int32_t> bias;
    std::int32_t vth = 1;
    float lambda = 1.0f;  ///< activation scale this layer was normalized to
};

/// The whole paper-topology model, ready for inference-only deployment.
struct ConvertedModel {
    ConvertedStack stack;
    QuantizedDenseLayer fc1;
    QuantizedDenseLayer fc2;
};

/// Balances and quantizes all four parameter layers of a paper-topology
/// model (see convert_conv_stack for the method; the dense layers continue
/// the same lambda chain, the logit layer is normalized by the percentile of
/// its positive pre-activations).
ConvertedModel convert_full_model(const ann::Model& model,
                                  const ann::PaperTopology& topo,
                                  const data::Dataset& calibration,
                                  float activation_percentile, int weight_bits);

/// Inference-only deployment of a converted model on the simulated chip.
class ConvertedNetwork {
public:
    /// `phase_length` is the rate-code window T; larger T = finer rates.
    ConvertedNetwork(const ConvertedModel& model, const ann::PaperTopology& topo,
                     std::int32_t phase_length,
                     loihi::ChipLimits limits = {});

    /// Argmax class over output spike counts (membranes break ties).
    std::size_t predict(const common::Tensor& image);

    /// Output spike counts for one image (phase-1-style single window).
    std::vector<std::int32_t> output_counts(const common::Tensor& image);

    loihi::Chip& chip() { return chip_; }
    const loihi::Chip& chip() const { return chip_; }
    std::int32_t phase_length() const { return phase_length_; }

    /// The dense-head populations {fc1, fc2} — the populations the EMSTDP
    /// network trains; exposed so fault-injection comparisons can degrade
    /// both deployments identically.
    std::vector<loihi::PopulationId> head_populations() const {
        return {fc1_, fc2_};
    }
    /// All forward populations in order {input, conv1, conv2, fc1, fc2}.
    /// Conv neurons sit at their conv_placement compartments.
    std::vector<loihi::PopulationId> layer_populations() const {
        return {input_, conv1_, conv2_, fc1_, fc2_};
    }

private:
    loihi::Chip chip_;
    std::int32_t phase_length_;
    std::size_t input_size_;
    loihi::PopulationId input_ = 0, conv1_ = 0, conv2_ = 0, fc1_ = 0, fc2_ = 0;
};

}  // namespace neuro::snn
