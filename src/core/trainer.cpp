#include "core/trainer.hpp"

#include <algorithm>
#include <numeric>
#include <stdexcept>

#include "core/sharded_network.hpp"

namespace neuro::core {

namespace {

// The one definition of the online-epoch and evaluation protocols, shared
// by the EmstdpNetwork and runtime::Session surfaces so seeded comparisons
// between them line up bit-for-bit.

template <typename PredictFn, typename TrainFn>
double train_epoch_protocol(const data::Dataset& stream, common::Rng& rng,
                            bool measure_prequential, PredictFn predict,
                            TrainFn train) {
    std::vector<std::size_t> order(stream.size());
    std::iota(order.begin(), order.end(), std::size_t{0});
    rng.shuffle(order);

    std::size_t hits = 0;
    for (std::size_t idx : order) {
        const auto& s = stream.samples[idx];
        if (measure_prequential && predict(s.image) == s.label) ++hits;
        train(s.image, s.label);
    }
    return stream.size() == 0 || !measure_prequential
               ? 0.0
               : static_cast<double>(hits) / static_cast<double>(stream.size());
}

template <typename PredictFn>
double evaluate_protocol(const data::Dataset& test, PredictFn predict) {
    if (test.size() == 0) return 0.0;
    std::size_t hits = 0;
    for (const auto& s : test.samples)
        if (predict(s.image) == s.label) ++hits;
    return static_cast<double>(hits) / static_cast<double>(test.size());
}

/// measure_energy's sample loop on either substrate: fresh activity
/// counters, then `samples` training steps or inferences cycling over `ds`.
template <typename Net>
void run_energy_samples(Net& net, const data::Dataset& ds, std::size_t samples,
                        bool training) {
    if (ds.size() == 0) throw std::invalid_argument("measure_energy: empty dataset");
    net.chip().reset_activity();
    for (std::size_t i = 0; i < samples; ++i) {
        const auto& s = ds.samples[i % ds.size()];
        if (training)
            net.train_sample(s.image, s.label);
        else
            (void)net.predict(s.image);
    }
}

}  // namespace

double train_epoch(EmstdpNetwork& net, const data::Dataset& stream,
                   common::Rng& rng, bool measure_prequential) {
    return train_epoch_protocol(
        stream, rng, measure_prequential,
        [&](const common::Tensor& x) { return net.predict(x); },
        [&](const common::Tensor& x, std::size_t y) { net.train_sample(x, y); });
}

double evaluate(EmstdpNetwork& net, const data::Dataset& test) {
    return evaluate_protocol(
        test, [&](const common::Tensor& x) { return net.predict(x); });
}

loihi::EnergyReport measure_energy(EmstdpNetwork& net, const data::Dataset& ds,
                                   std::size_t samples, bool training,
                                   const loihi::EnergyModelParams& params) {
    run_energy_samples(net, ds, samples, training);
    return loihi::estimate_energy(params, net.chip(), net.chip().activity(), samples);
}

double train_epoch(runtime::Session& session, const data::Dataset& stream,
                   common::Rng& rng, bool measure_prequential) {
    return train_epoch_protocol(
        stream, rng, measure_prequential,
        [&](const common::Tensor& x) { return session.predict(x); },
        [&](const common::Tensor& x, std::size_t y) { session.train(x, y); });
}

double evaluate(runtime::Session& session, const data::Dataset& test) {
    return evaluate_protocol(
        test, [&](const common::Tensor& x) { return session.predict(x); });
}

bool train_prequential(runtime::Session& session, const common::Tensor& image,
                       std::size_t label) {
    const bool hit = session.predict(image) == label;
    session.train(image, label);
    return hit;
}

loihi::EnergyReport measure_energy(runtime::Session& session,
                                   const data::Dataset& ds, std::size_t samples,
                                   bool training,
                                   const loihi::EnergyModelParams& params) {
    if (auto* net = session.native_network())
        return measure_energy(*net, ds, samples, training, params);
    auto* sharded = session.native_sharded_network();
    if (!sharded)
        throw std::invalid_argument(
            "measure_energy: this backend has no activity/energy model");
    run_energy_samples(*sharded, ds, samples, training);
    // Multi-chip operating point: every chip steps behind the same barrier,
    // so the system step time is the slowest shard's; power (incl. per-chip
    // base power) and cores add up across the package. Inter-chip link
    // energy is not modeled.
    loihi::EnergyReport total{};
    const auto& chips = sharded->chip();
    for (std::size_t sh = 0; sh < chips.num_shards(); ++sh) {
        // A cut projection's synaptic ops and learning visits count on its
        // destination shard, which holds its synapses.
        const auto r = loihi::estimate_energy(
            params, chips.shard(sh), chips.shard(sh).activity(), samples);
        total.step_seconds = std::max(total.step_seconds, r.step_seconds);
        total.power_w += r.power_w;
        total.cores += r.cores;
        total.steps_per_sample =
            std::max(total.steps_per_sample, r.steps_per_sample);
    }
    total.sample_seconds =
        total.step_seconds * static_cast<double>(total.steps_per_sample);
    total.fps = total.sample_seconds > 0 ? 1.0 / total.sample_seconds : 0.0;
    total.energy_per_sample_j = total.power_w * total.sample_seconds;
    return total;
}

}  // namespace neuro::core
