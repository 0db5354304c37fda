// The channel-minor conv placement (snn::conv_placement): both network
// builders put conv neuron (oc, oy, ox) in compartment (oy * W + ox) * C + oc
// so a source's fan-out lands on the chip's vector accumulate path. These
// tests pin the two halves of that contract:
//   - placement only renames compartments: a placed network and a twin
//     built with logical CHW numbering (snn::conv_synapses) give the same
//     conv spikes and membranes (read through the placement), the same
//     dense output, the same per-population counts and the same learned
//     weights;
//   - every conv synapse of the placed paper stack lies in a run of
//     consecutive destinations long enough for Chip::finalize's contiguous
//     segments, so a silent revert to channel-major numbering fails here.

#include <gtest/gtest.h>

#include <algorithm>
#include <numeric>
#include <set>
#include <tuple>

#include "common/rng.hpp"
#include "core/network.hpp"
#include "data/encode.hpp"
#include "loihi/chip.hpp"
#include "snn/deploy.hpp"
#include "snn/topology.hpp"

using namespace neuro;
using loihi::Chip;
using loihi::Phase;
using loihi::PopulationId;

namespace {

/// Chip::finalize's kMinRun: shorter runs take per-entry delivery.
constexpr std::size_t kMinRun = 4;

std::vector<std::int32_t> random_ints(std::size_t n, int lo, int hi,
                                      common::Rng& rng) {
    std::vector<std::int32_t> v(n);
    for (auto& x : v) x = static_cast<std::int32_t>(rng.uniform_int(lo, hi));
    return v;
}

/// The paper's conv geometry (28x28 -> 16@12x12 -> 8@5x5) with random
/// weights and per-neuron random biases, tuned so both layers spike at
/// moderate rates.
snn::ConvertedStack random_paper_stack(std::uint64_t seed) {
    common::Rng rng(seed);
    snn::ConvertedStack s;
    s.conv1.spec = {1, 28, 28, 16, 5, 2};
    s.conv2.spec = {16, 12, 12, 8, 3, 2};
    s.conv1.weights = random_ints(16 * 25, -20, 40, rng);
    s.conv2.weights = random_ints(8 * 16 * 9, -20, 40, rng);
    s.conv1.bias = random_ints(s.conv1.spec.out_size(), -20, 20, rng);
    s.conv2.bias = random_ints(s.conv2.spec.out_size(), -20, 20, rng);
    s.conv1.vth = 400;
    s.conv2.vth = 1000;
    return s;
}

/// random_paper_stack plus a random dense head, as convert_full_model
/// would hand it to snn::ConvertedNetwork.
snn::ConvertedModel random_converted_model(std::uint64_t seed) {
    common::Rng rng(seed + 1);
    snn::ConvertedModel model;
    model.stack = random_paper_stack(seed);
    model.fc1.in = model.stack.conv2.spec.out_size();
    model.fc1.out = 100;
    model.fc1.weights = random_ints(model.fc1.in * model.fc1.out, -30, 40, rng);
    model.fc1.bias = random_ints(model.fc1.out, -10, 10, rng);
    model.fc1.vth = 600;
    model.fc2.in = 100;
    model.fc2.out = 10;
    model.fc2.weights = random_ints(model.fc2.in * model.fc2.out, -30, 40, rng);
    model.fc2.bias = random_ints(model.fc2.out, -10, 10, rng);
    model.fc2.vth = 300;
    return model;
}

ann::PaperTopology paper_topology() {
    ann::PaperTopology topo{};
    topo.in_c = 1;
    topo.in_h = 28;
    topo.in_w = 28;
    return topo;
}

common::Tensor random_image(common::Rng& rng) {
    common::Tensor img({1, 28, 28});
    for (auto& v : img) v = static_cast<float>(rng.uniform(0.0, 1.0));
    return img;
}

PopulationId population_named(const Chip& chip, const std::string& name) {
    for (PopulationId p = 0; p < chip.num_populations(); ++p)
        if (chip.population_config(p).name == name) return p;
    throw std::invalid_argument("no population " + name);
}

loihi::ProjectionId projection_named(const Chip& chip, const std::string& name) {
    for (loihi::ProjectionId q = 0; q < chip.num_projections(); ++q)
        if (chip.projection_config(q).name == name) return q;
    throw std::invalid_argument("no projection " + name);
}

/// Per-neuron vector of a placed conv population read back in logical
/// CHW order.
template <typename T>
std::vector<T> unplace(const snn::ConvSpec& spec, const std::vector<T>& placed) {
    std::vector<T> logical(placed.size());
    for (std::size_t i = 0; i < logical.size(); ++i)
        logical[i] = placed[snn::conv_placement(spec, i)];
    return logical;
}

std::vector<std::int64_t> membranes(const Chip& chip, PopulationId p) {
    std::vector<std::int64_t> v(chip.population_size(p));
    for (std::size_t i = 0; i < v.size(); ++i) v[i] = chip.membrane(p, i);
    return v;
}

/// Builds a placed network's twin with logical CHW conv numbering. What
/// the placement touches is rebuilt from logical data alone: the conv
/// projections from snn::conv_synapses, the conv biases from the stack, and
/// every dense projection out of conv2 from dense_synapses over its logical
/// weight vector. Everything else (populations, other projections, live
/// rules and weights, other biases) is copied.
Chip channel_major_twin(const Chip& placed, const snn::ConvertedStack& stack) {
    const PopulationId conv1 = population_named(placed, "conv1");
    const PopulationId conv2 = population_named(placed, "conv2");
    Chip twin(placed.limits());
    for (PopulationId p = 0; p < placed.num_populations(); ++p)
        twin.add_population(placed.population_config(p));
    for (loihi::ProjectionId q = 0; q < placed.num_projections(); ++q) {
        loihi::ProjectionConfig cfg = placed.projection_config(q);
        if (cfg.plastic) cfg.rule = placed.learning_rule(q);
        std::vector<loihi::Synapse> syns;
        if (cfg.dst == conv1) {
            syns = snn::conv_synapses(stack.conv1.spec, stack.conv1.weights);
        } else if (cfg.dst == conv2) {
            syns = snn::conv_synapses(stack.conv2.spec, stack.conv2.weights);
        } else if (cfg.src == conv2) {
            syns = snn::dense_synapses(placed.population_size(conv2),
                                       placed.population_size(cfg.dst),
                                       placed.weights(q));
        } else {
            syns = placed.projection_synapses(q);
            const auto w = placed.weights(q);
            for (std::size_t i = 0; i < syns.size(); ++i) syns[i].weight = w[i];
        }
        twin.add_projection(cfg, std::move(syns));
    }
    twin.finalize();
    for (PopulationId p = 0; p < placed.num_populations(); ++p) {
        if (p == conv1)
            twin.set_bias(p, stack.conv1.bias);
        else if (p == conv2)
            twin.set_bias(p, stack.conv2.bias);
        else
            twin.set_bias(p, placed.biases(p));
    }
    twin.reset_activity();
    return twin;
}

/// Asserts the placed chip and its CHW twin are in the same state, conv
/// populations read through the placement.
void expect_same_state(const Chip& placed, const Chip& twin,
                       const snn::ConvertedStack& stack, Phase phase) {
    const PopulationId conv1 = population_named(placed, "conv1");
    const PopulationId conv2 = population_named(placed, "conv2");
    for (PopulationId p = 0; p < placed.num_populations(); ++p) {
        const std::string& name = placed.population_config(p).name;
        auto counts = placed.spike_counts(p, phase);
        auto v = membranes(placed, p);
        if (p == conv1 || p == conv2) {
            const auto& spec = p == conv1 ? stack.conv1.spec : stack.conv2.spec;
            counts = unplace(spec, counts);
            v = unplace(spec, v);
        }
        EXPECT_EQ(counts, twin.spike_counts(p, phase)) << name;
        EXPECT_EQ(v, membranes(twin, p)) << name;
    }
    const auto& a = placed.population_activity();
    const auto& b = twin.population_activity();
    ASSERT_EQ(a.size(), b.size());
    for (std::size_t p = 0; p < a.size(); ++p) {
        EXPECT_EQ(a[p].compartment_updates, b[p].compartment_updates) << p;
        EXPECT_EQ(a[p].synaptic_ops, b[p].synaptic_ops) << p;
        EXPECT_EQ(a[p].spikes, b[p].spikes) << p;
    }
    EXPECT_EQ(placed.activity().synaptic_ops, twin.activity().synaptic_ops);
    EXPECT_EQ(placed.activity().spikes, twin.activity().spikes);
}

struct RunStats {
    double mean_run = 0.0;       ///< synapses per run of consecutive dsts
    std::size_t short_run_synapses = 0;  ///< in runs shorter than kMinRun
};

/// Splits each source's fan-out of `proj` into runs of consecutive
/// destinations (list order is fan-out order: each conv source feeds only
/// this projection).
RunStats run_stats(const Chip& chip, loihi::ProjectionId proj) {
    const auto& syns = chip.projection_synapses(proj);
    const auto src_n = chip.population_size(chip.projection_config(proj).src);
    std::vector<std::vector<std::uint32_t>> fanout(src_n);
    for (const auto& s : syns) fanout[s.src].push_back(s.dst);
    std::size_t runs = 0;
    RunStats st;
    for (const auto& dsts : fanout) {
        std::size_t k = 0;
        while (k < dsts.size()) {
            std::size_t j = k + 1;
            while (j < dsts.size() && dsts[j] == dsts[j - 1] + 1) ++j;
            if (j - k < kMinRun) st.short_run_synapses += j - k;
            ++runs;
            k = j;
        }
    }
    st.mean_run = runs == 0 ? 0.0
                            : static_cast<double>(syns.size()) / static_cast<double>(runs);
    return st;
}

}  // namespace

TEST(ConvPlacement, IsAChannelMinorPermutation) {
    const snn::ConvSpec spec{1, 28, 28, 16, 5, 2};
    std::set<std::size_t> seen;
    for (std::size_t oc = 0; oc < spec.out_c; ++oc)
        for (std::size_t oy = 0; oy < spec.out_h(); ++oy)
            for (std::size_t ox = 0; ox < spec.out_w(); ++ox) {
                const std::size_t logical = (oc * spec.out_h() + oy) * spec.out_w() + ox;
                const std::size_t placed = snn::conv_placement(spec, logical);
                EXPECT_EQ(placed, (oy * spec.out_w() + ox) * spec.out_c + oc);
                seen.insert(placed);
            }
    EXPECT_EQ(seen.size(), spec.out_size());
    EXPECT_EQ(*seen.rbegin(), spec.out_size() - 1);
}

TEST(ConvPlacement, PlacedSynapsesRenameConvSynapses) {
    // The placed expansion is conv_synapses with both ends renamed through
    // the placement — the same connections with the same weights.
    common::Rng rng(5);
    const snn::ConvSpec first{2, 9, 7, 3, 3, 2};
    const snn::ConvSpec second{3, first.out_h(), first.out_w(), 4, 2, 1};
    const auto w1 = random_ints(3 * 2 * 9, -50, 50, rng);
    const auto w2 = random_ints(4 * 3 * 4, -50, 50, rng);
    using Edge = std::tuple<std::uint32_t, std::uint32_t, std::int32_t>;
    auto edges = [](const std::vector<loihi::Synapse>& syns) {
        std::vector<Edge> e;
        for (const auto& s : syns) e.emplace_back(s.src, s.dst, s.weight);
        std::sort(e.begin(), e.end());
        return e;
    };
    auto renamed = [&](const snn::ConvSpec& spec, const std::vector<std::int32_t>& w,
                       const snn::ConvSpec* src_layer) {
        auto syns = snn::conv_synapses(spec, w);
        for (auto& s : syns) {
            s.dst = static_cast<std::uint32_t>(snn::conv_placement(spec, s.dst));
            if (src_layer != nullptr)
                s.src = static_cast<std::uint32_t>(snn::conv_placement(*src_layer, s.src));
        }
        return edges(syns);
    };
    EXPECT_EQ(edges(snn::placed_conv_synapses(first, w1, nullptr)),
              renamed(first, w1, nullptr));
    EXPECT_EQ(edges(snn::placed_conv_synapses(second, w2, &first)),
              renamed(second, w2, &first));

    // Each source meets its destinations in ascending order (no sort pass).
    for (const auto& syns : {snn::placed_conv_synapses(first, w1, nullptr),
                             snn::placed_conv_synapses(second, w2, &first)}) {
        std::vector<std::int64_t> last(first.in_size(), -1);
        for (const auto& s : syns) {
            EXPECT_LT(last[s.src], static_cast<std::int64_t>(s.dst));
            last[s.src] = s.dst;
        }
    }

    // conv2 must read exactly the source layer's output geometry.
    const snn::ConvSpec wrong{2, first.out_h(), first.out_w(), 4, 2, 1};
    EXPECT_THROW(snn::placed_conv_synapses(wrong, random_ints(4 * 2 * 4, 0, 1, rng),
                                           &first),
                 std::invalid_argument);
    EXPECT_THROW(snn::place_conv_values(first, {1, 2, 3}), std::invalid_argument);
}

TEST(ConvPlacement, EmstdpNetworkMatchesChannelMajorTwin) {
    const auto stack = random_paper_stack(11);
    core::EmstdpOptions opt;
    core::EmstdpNetwork net(opt, 1, 28, 28, &stack, {100}, 10);
    Chip& placed = net.chip();
    Chip twin = channel_major_twin(placed, stack);
    common::Rng noise(opt.seed);
    twin.seed_learning_noise(noise.next_u64() | 1);  // as the builder seeds

    const PopulationId input = population_named(placed, "input");
    const PopulationId label = population_named(placed, "label");
    const PopulationId conv2 = population_named(placed, "conv2");
    const auto T = static_cast<std::size_t>(opt.phase_length);
    common::Rng rng(3);
    std::uint64_t conv2_spikes = 0;
    for (std::size_t sample = 0; sample < 3; ++sample) {
        const auto image = random_image(rng);
        std::vector<std::int32_t> lb(10, 0);
        lb[sample % 10] = 48;
        for (Chip* chip : {&placed, &twin}) {
            chip->reset_dynamic_state();
            chip->set_bias(input, data::quantize_to_bias(image, opt.phase_length));
            chip->set_bias(label, lb);
            chip->set_phase(Phase::One);
            chip->run(T);
        }
        expect_same_state(placed, twin, stack, Phase::One);
        for (Chip* chip : {&placed, &twin}) {
            chip->reset_membranes();
            chip->set_phase(Phase::Two);
            chip->run(T);
            chip->apply_learning();
        }
        expect_same_state(placed, twin, stack, Phase::Two);
        const auto c2 = placed.spike_counts(conv2, Phase::One);
        conv2_spikes += static_cast<std::uint64_t>(std::accumulate(c2.begin(), c2.end(), 0));
    }
    // The comparison is only as good as the activity behind it.
    EXPECT_GT(conv2_spikes, 0u);
    EXPECT_GT(placed.population_activity()[conv2].synaptic_ops, 0u);
    const auto weights = net.plastic_weights();
    for (std::size_t l = 0; l < weights.size(); ++l)
        EXPECT_EQ(weights[l], twin.weights(projection_named(twin, "plastic" +
                                                                std::to_string(l + 1))))
            << "plastic" << l + 1;
}

TEST(ConvPlacement, ConvertedNetworkMatchesChannelMajorTwin) {
    common::Rng rng(21);
    const auto model = random_converted_model(13);
    const std::int32_t T = 48;
    snn::ConvertedNetwork net(model, paper_topology(), T);
    Chip twin = channel_major_twin(net.chip(), model.stack);

    const PopulationId input = population_named(twin, "input");
    const PopulationId fc1 = population_named(twin, "fc1");
    const PopulationId fc2 = population_named(twin, "fc2");
    std::uint64_t fc_spikes = 0;
    for (int sample = 0; sample < 3; ++sample) {
        const auto image = random_image(rng);
        const auto out = net.output_counts(image);
        twin.reset_dynamic_state();
        twin.set_bias(input, data::quantize_to_bias(image, T));
        twin.run(static_cast<std::size_t>(T));
        EXPECT_EQ(out, twin.spike_counts(fc2, Phase::One));
        expect_same_state(net.chip(), twin, model.stack, Phase::One);
        fc_spikes += twin.population_activity()[fc1].spikes;
    }
    EXPECT_GT(fc_spikes, 0u);
}

TEST(ConvPlacement, EveryPaperConvSynapseIsOnTheVectorPath) {
    const auto model = random_converted_model(17);
    const core::EmstdpNetwork emstdp(core::EmstdpOptions{}, 1, 28, 28, &model.stack,
                                     {100}, 10);
    const snn::ConvertedNetwork converted(model, paper_topology(), 48);
    for (const Chip* chip : {&emstdp.chip(), &converted.chip()}) {
        const Chip chw = channel_major_twin(*chip, model.stack);
        for (const char* name : {"conv1", "conv2"}) {
            const RunStats placed = run_stats(*chip, projection_named(*chip, name));
            EXPECT_EQ(placed.short_run_synapses, 0u) << name;
            // Whole pixels of 16 (conv1) and 8 (conv2) channels at least.
            EXPECT_GE(placed.mean_run, 8.0) << name;
            // The check discriminates: channel-major numbering, which a
            // silent revert would bring back, leaves conv synapses off the
            // vector path.
            const RunStats logical = run_stats(chw, projection_named(chw, name));
            EXPECT_GT(logical.short_run_synapses, 0u) << name;
            if (chip == &emstdp.chip()) {
                RecordProperty(std::string(name) + "_mean_run",
                               std::to_string(placed.mean_run));
                RecordProperty(std::string(name) + "_chw_mean_run",
                               std::to_string(logical.mean_run));
            }
        }
    }
}
