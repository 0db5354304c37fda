#pragma once
// EMSTDP network on the chip (paper Sec. III, Fig. 1b).
//
// Layout built by this class:
//
//   input (bias-driven IF)                                [pixels]
//     -> conv1 -> conv2 (frozen, pretrained, quantized,   [optional]
//                        placed channel-minor, see snn/topology.hpp)
//       -> dense hidden ... -> output                     [plastic]
//
//   label (bias-driven, phase 2 only)
//   out_err+/- : two-channel output error neurons
//   FA:  hid_err+/- per hidden layer (soma+aux, AND-gated by forward
//        activity), chained with fixed random weights per eq. (10)
//   DFA: out_err broadcast to hidden somata's aux compartments through
//        fixed random weights; GatedAdd join implements the h' gate
//
// Per training sample (Operation Flow 1, paper Sec. IV-A): program input &
// label biases, run phase 1 (T steps), reset membranes, run phase 2 (T
// steps), apply the sum-of-products learning rule. OperationFlow holds that
// protocol once; EmstdpNetwork runs it on one chip, and
// core::ShardedEmstdpNetwork on several.

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "common/tensor.hpp"
#include "core/options.hpp"
#include "loihi/chip.hpp"
#include "loihi/energy.hpp"
#include "snn/convert.hpp"

namespace neuro::core {

/// Structural cost summary (ablation C / Fig. 3 inputs).
struct StructuralCosts {
    std::size_t compartments = 0;
    std::size_t synapses = 0;
    std::size_t cores = 0;
    std::size_t feedback_synapses = 0;   ///< error-path synapses only
    std::size_t feedback_compartments = 0;
};

/// Operation Flow 1 over a Chip-shaped `Substrate`: one loihi::Chip, or the
/// loihi::ShardedChip facade that steps several chips in lockstep. The
/// subclass builds (or splits) the network and sets the ids below; every
/// per-sample step happens here, so single-chip and sharded runs share one
/// protocol. Host spike insertion is the only substrate-specific step: the
/// single chip supports it, and ShardedEmstdpNetwork rejects
/// InputMode::SpikeInsertion. Instantiated for both substrates in
/// network.cpp.
template <typename Substrate>
class OperationFlow {
public:
    /// One online training step (phase 1 + phase 2 + weight update).
    void train_sample(const common::Tensor& image, std::size_t label);

    /// Phase-1 inference; argmax of output counts, membrane breaks ties.
    std::size_t predict(const common::Tensor& image);

    /// Phase-1 output spike counts.
    std::vector<std::int32_t> output_counts(const common::Tensor& image);

    // ---- incremental online learning hooks (paper Sec. IV-B) --------------
    /// Classes with mask=false are disabled: their label neurons stay silent
    /// and their output neurons are clamped off, which freezes their weight
    /// rows (the update needs postsynaptic activity).
    void set_class_mask(const std::vector<bool>& mask);
    /// Adds `offset` to the learning shift (halving eta per unit) — the
    /// reduced learning rate of IOL step 1. Negative offsets are rejected.
    void set_learning_shift_offset(int offset);

    // ---- weight sync (parallel trainer, runtime sessions) ------------------
    /// Current weights of every plastic projection, in plastic_projections()
    /// order (frozen conv weights are excluded — they never change).
    std::vector<std::vector<std::int32_t>> plastic_weights() const;

    /// Reprograms every plastic projection (sizes must match
    /// plastic_weights(); values must fit the weight precision). Works on a
    /// finalized chip — the host-side equivalent of rewriting synaptic
    /// memory — and leaves stuck-at faulted cells untouched. A call that
    /// throws writes no layer.
    void set_plastic_weights(const std::vector<std::vector<std::int32_t>>& w);

    // ---- probing ------------------------------------------------------------
    Substrate& chip() { return chip_; }
    const Substrate& chip() const { return chip_; }
    const EmstdpOptions& options() const { return opt_; }

    loihi::PopulationId input_pop() const { return input_; }
    loihi::PopulationId output_pop() const { return output_; }
    /// The label population (nullopt for inference-only builds). Exposed for
    /// drivers that replay Operation Flow 1 through public Chip calls, such
    /// as perfbench's traced train_paper run.
    std::optional<loihi::PopulationId> label_pop() const { return label_; }
    const std::vector<loihi::ProjectionId>& plastic_projections() const {
        return plastic_;
    }

protected:
    OperationFlow(const EmstdpOptions& opt, Substrate chip, std::size_t classes);
    /// Takes `proto`'s options, ids and class mask onto `chip`, a split of
    /// proto's chip that keeps its population and projection ids.
    OperationFlow(const OperationFlow<loihi::Chip>& proto, Substrate chip);

    OperationFlow(const OperationFlow&) = default;
    OperationFlow(OperationFlow&&) = default;
    OperationFlow& operator=(OperationFlow&&) = default;
    OperationFlow& operator=(const OperationFlow&) = delete;
    ~OperationFlow() = default;

    EmstdpOptions opt_;
    Substrate chip_;

    std::size_t classes_;
    std::size_t input_size_ = 0;
    std::int32_t label_bias_value_;

    loihi::PopulationId input_ = 0;
    loihi::PopulationId output_ = 0;
    std::optional<loihi::PopulationId> label_;
    std::vector<loihi::ProjectionId> plastic_;

    std::vector<bool> class_mask_;

private:
    template <typename>
    friend class OperationFlow;

    void program_input(const common::Tensor& image);
    void run_phase(loihi::Phase phase);

    /// Spike-insertion rasters for the current sample (SpikeInsertion mode).
    std::vector<std::vector<bool>> rasters_;
};

class EmstdpNetwork : public OperationFlow<loihi::Chip> {
public:
    /// Builds the network. `conv` may be null: the dense stack then trains
    /// directly on the (flattened) input — used by unit tests and toy tasks.
    /// `hidden` holds the dense hidden sizes (the paper uses {100}).
    EmstdpNetwork(const EmstdpOptions& opt, std::size_t in_c, std::size_t in_h,
                  std::size_t in_w, const snn::ConvertedStack* conv,
                  std::vector<std::size_t> hidden, std::size_t classes);

    // ---- replication --------------------------------------------------------
    /// Explicit replication: the replica behaves exactly like an independent
    /// deep copy (device faults, class masks, RNG streams and all dynamic
    /// state are captured as of this call), but the finalized chip structure
    /// is shared and the synaptic weight image is shared copy-on-write, so a
    /// replica costs only its dynamic state until it first trains. This is
    /// how ParallelTrainer and runtime::Session build per-thread instances.
    /// Implicit copying is deliberately inaccessible — a silent full-network
    /// copy can't happen by accident.
    EmstdpNetwork replicate() const { return EmstdpNetwork(*this); }

    EmstdpNetwork(EmstdpNetwork&&) = default;
    EmstdpNetwork& operator=(EmstdpNetwork&&) = default;
    EmstdpNetwork& operator=(const EmstdpNetwork&) = delete;

    // ---- deployment ---------------------------------------------------------
    /// Checkpoints every synaptic weight (trained dense + frozen conv) to a
    /// file; load() restores it into an identically-built network. This is
    /// the host-side equivalent of reading back / reprogramming the chip's
    /// synaptic memory. load() throws std::runtime_error, leaving the
    /// network as it was, when the file's frozen conv weights differ from
    /// this network's: the file was written for another conv stack or
    /// another conv synapse order (before the channel-minor placement,
    /// conv projections were listed channel-major).
    void save(const std::string& path) const;
    void load(const std::string& path);

    // ---- probing ------------------------------------------------------------
    StructuralCosts costs() const;
    const std::vector<loihi::PopulationId>& hidden_pops() const { return hidden_pops_; }

private:
    /// Reachable only through replicate().
    EmstdpNetwork(const EmstdpNetwork&) = default;

    std::vector<loihi::PopulationId> hidden_pops_;
    std::optional<loihi::PopulationId> out_err_pos_, out_err_neg_;
    std::vector<loihi::PopulationId> hid_err_pos_, hid_err_neg_;  // FA only

    std::vector<loihi::ProjectionId> feedback_projections_;
    std::vector<loihi::ProjectionId> conv_projections_;
};

}  // namespace neuro::core
