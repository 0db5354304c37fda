#include "runtime/loihi_backend.hpp"

#include <stdexcept>
#include <type_traits>

#include "core/sharded_network.hpp"

namespace neuro::runtime {

namespace {

/// A session over one replica of `Net` (core::EmstdpNetwork or
/// core::ShardedEmstdpNetwork); both run the same core::OperationFlow.
template <typename Net>
class ChipSession final : public Session {
public:
    explicit ChipSession(Net net) : net_(std::move(net)) {}

    BackendKind backend() const override { return BackendKind::LoihiSim; }

    void train(const common::Tensor& image, std::size_t label) override {
        net_.train_sample(image, label);
    }
    std::size_t predict(const common::Tensor& image) override {
        return net_.predict(image);
    }
    std::vector<std::int32_t> output_counts(const common::Tensor& image) override {
        return net_.output_counts(image);
    }

    WeightSnapshot weights() const override { return {net_.plastic_weights()}; }
    void load_weights(const WeightSnapshot& snap) override {
        net_.set_plastic_weights(snap.layers);
    }

    void set_class_mask(const std::vector<bool>& mask) override {
        net_.set_class_mask(mask);
    }
    void set_learning_shift_offset(int offset) override {
        net_.set_learning_shift_offset(offset);
    }
    void seed_noise(std::uint64_t seed) override {
        net_.chip().seed_learning_noise(seed);
    }

    const loihi::ActivityTotals* activity() const override {
        activity_ = net_.chip().activity();  // ShardedChip sums on read
        return &activity_;
    }
    const loihi::KernelPhaseTimes* kernel_phases() const override {
        if constexpr (kSingleChip) return &net_.chip().kernel_phase_times();
        else return nullptr;
    }
    core::EmstdpNetwork* native_network() override {
        if constexpr (kSingleChip) return &net_;
        else return nullptr;
    }
    core::ShardedEmstdpNetwork* native_sharded_network() override {
        if constexpr (kSingleChip) return nullptr;
        else return &net_;
    }

private:
    static constexpr bool kSingleChip = std::is_same_v<Net, core::EmstdpNetwork>;

    Net net_;
    mutable loihi::ActivityTotals activity_{};
};

/// Immutable artifact: a fully-built, finalized prototype network. Sessions
/// replicate it — which shares the chip structure and weight image — so the
/// expensive construction happens exactly once, at compile().
template <typename Net>
class ChipModel final : public CompiledModel {
public:
    ChipModel(ModelSpec spec, Net proto)
        : CompiledModel(std::move(spec)), proto_(std::move(proto)) {}

    BackendKind backend() const override { return BackendKind::LoihiSim; }

    std::unique_ptr<Session> do_open_session() const override {
        return std::make_unique<ChipSession<Net>>(proto_.replicate());
    }

    std::shared_ptr<const CompiledModel> with_weights(
        const WeightSnapshot& snap) const override {
        auto net = proto_.replicate();
        net.set_plastic_weights(snap.layers);
        return std::make_shared<ChipModel>(spec_, std::move(net));
    }

    WeightSnapshot initial_weights() const override {
        return {proto_.plastic_weights()};
    }

private:
    Net proto_;
};

}  // namespace

std::shared_ptr<const CompiledModel> LoihiSimBackend::compile(
    const ModelSpec& spec) const {
    spec.validate();
    core::EmstdpNetwork proto(spec.options, spec.in_c, spec.in_h, spec.in_w,
                              spec.conv.get(), spec.hidden, spec.classes);
    // ModelSpec::shards: >= 2 forces that many chips; 0 spills a model over
    // one chip's core budget onto the fewest chips that fit, when it can
    // shard at all; 1, or an unshardable spill, keeps one permissive chip.
    const bool forced = spec.shards >= 2;
    if (forced || (spec.shards == 0 && !proto.chip().mapping().feasible)) {
        try {
            auto plan = core::plan_network_shards(proto.chip(), spec.shards);
            if (!plan.single())
                return std::make_shared<ChipModel<core::ShardedEmstdpNetwork>>(
                    spec, core::ShardedEmstdpNetwork(proto, std::move(plan)));
        } catch (const std::invalid_argument&) {
            // e.g. one population alone exceeds the chip: not shardable.
            if (forced) throw;
        }
    }
    return std::make_shared<ChipModel<core::EmstdpNetwork>>(spec,
                                                            std::move(proto));
}

std::shared_ptr<const CompiledModel> adopt(const core::EmstdpNetwork& net) {
    ModelSpec spec;
    spec.options = net.options();
    const auto& chip = net.chip();
    spec.input(1, 1, chip.population_size(net.input_pop()));
    std::vector<std::size_t> hidden;
    hidden.reserve(net.hidden_pops().size());
    for (auto p : net.hidden_pops()) hidden.push_back(chip.population_size(p));
    spec.hidden_layers(std::move(hidden));
    spec.output_classes(chip.population_size(net.output_pop()));
    return std::make_shared<ChipModel<core::EmstdpNetwork>>(std::move(spec),
                                                            net.replicate());
}

}  // namespace neuro::runtime
