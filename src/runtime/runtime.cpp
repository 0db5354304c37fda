#include "runtime/backend.hpp"

#include <stdexcept>
#include <string>

#include "common/fixed.hpp"
#include "runtime/compiled_model.hpp"
#include "runtime/loihi_backend.hpp"
#include "runtime/reference_backend.hpp"
#include "runtime/session.hpp"
#include "runtime/weight_channel.hpp"

namespace neuro::runtime {

const Backend& backend_for(BackendKind kind) {
    static const LoihiSimBackend loihi_sim;
    static const ReferenceBackend reference;
    switch (kind) {
        case BackendKind::LoihiSim: return loihi_sim;
        case BackendKind::Reference: return reference;
    }
    throw std::invalid_argument("backend_for: unknown backend kind");
}

std::vector<const Backend*> backends() {
    return {&backend_for(BackendKind::LoihiSim),
            &backend_for(BackendKind::Reference)};
}

std::shared_ptr<const CompiledModel> CompiledModel::compile(
    const ModelSpec& spec, BackendKind kind) {
    return backend_for(kind).compile(spec);
}

std::uint64_t CompiledModel::publish_weights(WeightSnapshot snap) const {
    const WeightSnapshot loads = initial_weights();
    const auto reject = [](const std::string& why) {
        throw std::invalid_argument("publish_weights: " + why);
    };
    if (snap.layers.size() != loads.layers.size())
        reject(std::to_string(snap.layers.size()) + " layers, the model has " +
               std::to_string(loads.layers.size()));
    const int bits = spec_.options.weight_bits;
    for (std::size_t l = 0; l < loads.layers.size(); ++l) {
        if (snap.layers[l].size() != loads.layers[l].size())
            reject("layer " + std::to_string(l) + " has " +
                   std::to_string(snap.layers[l].size()) +
                   " weights, the model has " +
                   std::to_string(loads.layers[l].size()));
        for (const std::int32_t w : snap.layers[l])
            if (w != common::saturate_signed(w, bits))
                reject("layer " + std::to_string(l) + " weight " +
                       std::to_string(w) + " exceeds " + std::to_string(bits) +
                       " bits");
    }
    return channel_->publish(std::move(snap));
}

void Session::save(const std::string& path) const {
    save_snapshot(path, weights());
}

bool Session::refresh() {
    if (!channel_) return false;
    // Fast path: one locked 64-bit read when nothing new was published —
    // the per-batch cost on a serving pool that never sees a publish.
    if (channel_->version() == seen_version_) return false;
    const auto image = channel_->current();
    if (image->version == seen_version_) return false;
    load_weights(image->snapshot);
    seen_version_ = image->version;
    return true;
}

}  // namespace neuro::runtime
