#include "snn/topology.hpp"

#include <stdexcept>

#include "ann/ops.hpp"

namespace neuro::snn {

std::size_t ConvSpec::out_h() const { return ann::conv_out_dim(in_h, kernel, stride); }
std::size_t ConvSpec::out_w() const { return ann::conv_out_dim(in_w, kernel, stride); }

void for_each_conv_connection(
    const ConvSpec& spec,
    const std::function<void(std::size_t, std::size_t, std::size_t)>& fn) {
    const std::size_t oh = spec.out_h();
    const std::size_t ow = spec.out_w();
    for (std::size_t oc = 0; oc < spec.out_c; ++oc) {
        for (std::size_t oy = 0; oy < oh; ++oy) {
            for (std::size_t ox = 0; ox < ow; ++ox) {
                const std::size_t dst = (oc * oh + oy) * ow + ox;
                for (std::size_t ic = 0; ic < spec.in_c; ++ic) {
                    for (std::size_t ky = 0; ky < spec.kernel; ++ky) {
                        const std::size_t iy = oy * spec.stride + ky;
                        for (std::size_t kx = 0; kx < spec.kernel; ++kx) {
                            const std::size_t ix = ox * spec.stride + kx;
                            const std::size_t src = (ic * spec.in_h + iy) * spec.in_w + ix;
                            const std::size_t widx =
                                ((oc * spec.in_c + ic) * spec.kernel + ky) * spec.kernel +
                                kx;
                            fn(src, dst, widx);
                        }
                    }
                }
            }
        }
    }
}

std::vector<loihi::Synapse> conv_synapses(const ConvSpec& spec,
                                          const std::vector<std::int32_t>& weights) {
    const std::size_t bank = spec.out_c * spec.in_c * spec.kernel * spec.kernel;
    if (weights.size() != bank)
        throw std::invalid_argument("conv_synapses: weight bank size mismatch");
    std::vector<loihi::Synapse> syns;
    syns.reserve(spec.out_size() * spec.fan_in());
    for_each_conv_connection(spec, [&](std::size_t src, std::size_t dst,
                                       std::size_t widx) {
        loihi::Synapse s;
        s.src = static_cast<std::uint32_t>(src);
        s.dst = static_cast<std::uint32_t>(dst);
        s.weight = weights[widx];
        syns.push_back(s);
    });
    return syns;
}

std::size_t conv_placement(const ConvSpec& spec, std::size_t idx) {
    const std::size_t pixels = spec.out_h() * spec.out_w();
    return (idx % pixels) * spec.out_c + idx / pixels;
}

std::vector<loihi::Synapse> placed_conv_synapses(
    const ConvSpec& spec, const std::vector<std::int32_t>& weights,
    const ConvSpec* src_layer) {
    const std::size_t bank = spec.out_c * spec.in_c * spec.kernel * spec.kernel;
    if (weights.size() != bank)
        throw std::invalid_argument("placed_conv_synapses: weight bank size mismatch");
    if (src_layer != nullptr &&
        (src_layer->out_c != spec.in_c || src_layer->out_h() != spec.in_h ||
         src_layer->out_w() != spec.in_w))
        throw std::invalid_argument(
            "placed_conv_synapses: input geometry differs from the source "
            "layer's output");
    const std::size_t oh = spec.out_h();
    const std::size_t ow = spec.out_w();
    std::vector<loihi::Synapse> syns;
    syns.reserve(spec.out_size() * spec.fan_in());
    // Pixel-major, channel-minor: the placed destination grows with every
    // (oy, ox, oc) step, so each source meets its destinations in order.
    for (std::size_t oy = 0; oy < oh; ++oy) {
        for (std::size_t ox = 0; ox < ow; ++ox) {
            for (std::size_t oc = 0; oc < spec.out_c; ++oc) {
                const auto dst = static_cast<std::uint32_t>(
                    conv_placement(spec, (oc * oh + oy) * ow + ox));
                for (std::size_t ic = 0; ic < spec.in_c; ++ic) {
                    for (std::size_t ky = 0; ky < spec.kernel; ++ky) {
                        const std::size_t iy = oy * spec.stride + ky;
                        for (std::size_t kx = 0; kx < spec.kernel; ++kx) {
                            const std::size_t ix = ox * spec.stride + kx;
                            const std::size_t src =
                                (ic * spec.in_h + iy) * spec.in_w + ix;
                            loihi::Synapse s;
                            s.src = static_cast<std::uint32_t>(
                                src_layer != nullptr ? conv_placement(*src_layer, src)
                                                     : src);
                            s.dst = dst;
                            s.weight = weights[((oc * spec.in_c + ic) * spec.kernel +
                                                ky) * spec.kernel + kx];
                            syns.push_back(s);
                        }
                    }
                }
            }
        }
    }
    return syns;
}

std::vector<std::int32_t> place_conv_values(const ConvSpec& spec,
                                            const std::vector<std::int32_t>& logical) {
    if (logical.size() != spec.out_size())
        throw std::invalid_argument("place_conv_values: size mismatch");
    std::vector<std::int32_t> placed(logical.size());
    for (std::size_t i = 0; i < logical.size(); ++i)
        placed[conv_placement(spec, i)] = logical[i];
    return placed;
}

std::vector<loihi::Synapse> dense_synapses(std::size_t in, std::size_t out,
                                           const std::vector<std::int32_t>& weights) {
    if (weights.size() != in * out)
        throw std::invalid_argument("dense_synapses: weight matrix size mismatch");
    std::vector<loihi::Synapse> syns;
    syns.reserve(in * out);
    for (std::size_t o = 0; o < out; ++o) {
        for (std::size_t i = 0; i < in; ++i) {
            loihi::Synapse s;
            s.src = static_cast<std::uint32_t>(i);
            s.dst = static_cast<std::uint32_t>(o);
            s.weight = weights[o * in + i];
            syns.push_back(s);
        }
    }
    return syns;
}

std::vector<loihi::Synapse> identity_synapses(std::size_t n, std::int32_t weight) {
    std::vector<loihi::Synapse> syns;
    syns.reserve(n);
    for (std::size_t i = 0; i < n; ++i) {
        loihi::Synapse s;
        s.src = static_cast<std::uint32_t>(i);
        s.dst = static_cast<std::uint32_t>(i);
        s.weight = weight;
        syns.push_back(s);
    }
    return syns;
}

}  // namespace neuro::snn
