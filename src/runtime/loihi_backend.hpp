#pragma once
// LoihiSimBackend: the chip-simulator backend. Sessions wrap a replicated
// core::EmstdpNetwork, or a core::ShardedEmstdpNetwork when ModelSpec::shards
// asks for several chips or the model needs them, and are bit-identical to
// driving that network directly (weights, spike counts, ActivityTotals) —
// asserted by tests/runtime_test.cpp and tests/sharded_execution_test.cpp.
// Session opening shares the compiled chip structure and the copy-on-write
// weight image (see loihi::Chip), so no per-session chip deep-copy happens.

#include <memory>

#include "runtime/backend.hpp"

namespace neuro::core {
class EmstdpNetwork;
}

namespace neuro::runtime {

class LoihiSimBackend final : public Backend {
public:
    BackendKind kind() const override { return BackendKind::LoihiSim; }
    const char* name() const override { return "loihi-sim"; }
    std::shared_ptr<const CompiledModel> compile(
        const ModelSpec& spec) const override;
};

/// Wraps an already-built network (current weights, device faults, class
/// masks, RNG state as of this call) as an immutable CompiledModel on the
/// LoihiSim backend — the bridge for code that constructs EmstdpNetwork
/// directly (e.g. core::ParallelTrainer's master). The spec records the
/// observable topology; a conv stack inside `net` stays frozen in the
/// compiled chip but is not re-described in the spec.
std::shared_ptr<const CompiledModel> adopt(const core::EmstdpNetwork& net);

}  // namespace neuro::runtime
