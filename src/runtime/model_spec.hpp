#pragma once
// Declarative model description for the runtime API (docs/ARCHITECTURE.md §5).
//
// A ModelSpec says *what* to build — input geometry, optional frozen conv
// stack, dense hidden sizes, class count, EMSTDP options — without building
// anything. Backends turn a spec into an immutable CompiledModel:
//
//     auto model = runtime::CompiledModel::compile(
//         runtime::ModelSpec{}.input(1, 16, 16).hidden_layers({100})
//                             .output_classes(10),
//         runtime::BackendKind::LoihiSim);
//     auto session = model->open_session();   // one per thread
//
// The spec is a plain value: copy it, tweak a field, compile again.

#include <cstddef>
#include <memory>
#include <vector>

#include "core/options.hpp"
#include "snn/convert.hpp"

namespace neuro::runtime {

/// Which substrate executes the model. Every backend implements the same
/// Session contract; see backend.hpp for what conformance requires.
enum class BackendKind {
    /// Bit-faithful chip simulator (integer datapath): one loihi::Chip, or
    /// several with inter-chip spike routing (loihi/router.hpp) when
    /// ModelSpec::shards asks for them or the model needs them.
    LoihiSim,
    Reference,  ///< full-precision float EMSTDP (reference::RefEmstdp)
};

struct ModelSpec {
    /// Input geometry (CHW). Rate vectors are 1 x 1 x N.
    std::size_t in_c = 1, in_h = 1, in_w = 0;
    /// Dense hidden sizes (the paper uses {100}).
    std::vector<std::size_t> hidden = {100};
    std::size_t classes = 0;
    /// EMSTDP configuration. theta_dense doubles as the canonical weight
    /// scale: runtime weight snapshots are integers on the theta_dense grid,
    /// which is what lets one snapshot load into any backend.
    core::EmstdpOptions options{};
    /// Optional pretrained frozen conv stack (owned; captured by with_conv).
    std::shared_ptr<const snn::ConvertedStack> conv;
    /// Chip count on the LoihiSim backend, the only way to ask for chips.
    /// 0 plans automatically: 1 chip when the model fits, otherwise the
    /// fewest chips that fit (one permissive chip when a single population
    /// exceeds a chip). >= 2 forces exactly that many shards, an error when
    /// the network cannot spread that far. 1 pins one chip even for
    /// over-budget models (the historical permissive simulation). Ignored by
    /// the Reference backend.
    std::size_t shards = 0;

    // ---- builder-style setters (each returns *this for chaining) -----------
    ModelSpec& input(std::size_t c, std::size_t h, std::size_t w);
    ModelSpec& hidden_layers(std::vector<std::size_t> sizes);
    ModelSpec& output_classes(std::size_t n);
    ModelSpec& with_options(const core::EmstdpOptions& opt);
    /// Copies the stack; the spec (and every model compiled from it) owns it.
    ModelSpec& with_conv(const snn::ConvertedStack& stack);
    /// Sets the chip count (see `shards`).
    ModelSpec& with_shards(std::size_t n);

    std::size_t input_size() const { return in_c * in_h * in_w; }
    /// Size of the population feeding the first plastic layer.
    std::size_t feature_size() const {
        return conv ? conv->conv2.spec.out_size() : input_size();
    }

    /// Backend-independent sanity checks; throws std::invalid_argument.
    void validate() const;
};

}  // namespace neuro::runtime
