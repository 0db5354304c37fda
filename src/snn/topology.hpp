#pragma once
// Adjacency generation for dense and convolutional layers (paper Sec. III-C:
// "we first generate the adjacency matrices for the connectivity between
// adjacent layers (convolution and dense)").
//
// Loihi has no weight sharing: a convolution is laid down as an explicit
// synapse list, one entry per (output neuron, kernel tap), each carrying its
// own integer weight copied from the kernel.
//
// Two numberings of a conv layer's neurons exist. The *logical* index is
// CHW-major, matching the flattening used by common::Tensor images; it is
// what for_each_conv_connection, conv_synapses, the ANN, the reference
// backend and nx speak. The *compartment* a network builder places a conv
// neuron in is channel-minor (HWC, see conv_placement), so the out_c
// channels of one output pixel sit side by side and a source's fan-out forms
// the long consecutive-destination runs the chip's vector accumulate path
// takes (docs/ARCHITECTURE.md §13).

#include <cstdint>
#include <functional>
#include <vector>

#include "loihi/chip.hpp"

namespace neuro::snn {

/// Geometry of one valid convolution layer (floor semantics, as ann::ops).
struct ConvSpec {
    std::size_t in_c = 1, in_h = 0, in_w = 0;
    std::size_t out_c = 1, kernel = 1, stride = 1;

    std::size_t out_h() const;
    std::size_t out_w() const;
    std::size_t in_size() const { return in_c * in_h * in_w; }
    std::size_t out_size() const { return out_c * out_h() * out_w(); }
    /// Fan-in of every output neuron (= synapses per neuron).
    std::size_t fan_in() const { return in_c * kernel * kernel; }
};

/// Visits every connection of the convolution: src and dst are CHW-flat
/// neuron indices, widx is the flat index into the {out_c, in_c, k, k}
/// kernel bank.
void for_each_conv_connection(
    const ConvSpec& spec,
    const std::function<void(std::size_t src, std::size_t dst, std::size_t widx)>& fn);

/// Expands the convolution into chip synapses using per-tap integer weights
/// (length out_c * in_c * k * k, kernel-bank order), with logical CHW
/// source and destination indices.
std::vector<loihi::Synapse> conv_synapses(const ConvSpec& spec,
                                          const std::vector<std::int32_t>& weights);

/// The conv placement: the compartment (population-local) that holds the
/// layer's logical CHW output neuron `idx` — (oy * out_w + ox) * out_c + oc
/// for idx = (oc * out_h + oy) * out_w + ox. The one permutation between
/// the two numberings; everything a builder places goes through it.
std::size_t conv_placement(const ConvSpec& spec, std::size_t idx);

/// conv_synapses as a builder lays them onto the chip: destinations at
/// conv_placement(spec, dst), and sources at conv_placement(*src_layer, src)
/// when the input is itself a placed conv layer (null: the CHW input
/// image). Emitted output pixel by output pixel, so every source's fan-out
/// is already in ascending destination order. Throws if `src_layer`'s
/// output geometry differs from `spec`'s input.
std::vector<loihi::Synapse> placed_conv_synapses(
    const ConvSpec& spec, const std::vector<std::int32_t>& weights,
    const ConvSpec* src_layer);

/// A per-neuron vector of a conv layer in logical CHW order (the expanded
/// bias) reordered into compartment order.
std::vector<std::int32_t> place_conv_values(const ConvSpec& spec,
                                            const std::vector<std::int32_t>& logical);

/// All-to-all synapses for a dense layer from a row-major {out, in} integer
/// weight matrix.
std::vector<loihi::Synapse> dense_synapses(std::size_t in, std::size_t out,
                                           const std::vector<std::int32_t>& weights);

/// One-to-one synapses (idx -> idx) with a constant weight; used to wire a
/// forward neuron to the aux compartment of its error twin (the h' gate).
std::vector<loihi::Synapse> identity_synapses(std::size_t n, std::int32_t weight);

}  // namespace neuro::snn
