#pragma once
// CUBA leaky-integrate-and-fire compartment model (paper Sec. II-B, eq. 8).
//
// Two internal state variables per compartment: synaptic response current u
// (decaying weighted incoming spikes) and membrane potential v. Both decays
// are 12-bit fixed point exactly as on chip:
//     u[t] = u[t-1] * (4096 - du) / 4096 + sum(w * s)
//     v[t] = v[t-1] * (4096 - dv) / 4096 + u[t] + bias
// Spike when v >= vth.
//
// The paper's IF configuration (Sec. III-A): "we utilize the maximum time
// constant tau_v such that the membrane potential doesn't leak over time
// whereas the current decays immediately" — i.e. dv = 0 and du = 4096.

#include <algorithm>
#include <cstdint>
#include <vector>

#include "common/aligned.hpp"
#include "common/fixed.hpp"
#include "loihi/trace.hpp"
#include "loihi/types.hpp"

namespace neuro::loihi {

/// Static per-population compartment configuration.
struct CompartmentConfig {
    std::int32_t decay_u = 4096;  ///< current decay; 4096 = clears every step
    std::int32_t decay_v = 0;     ///< voltage decay; 0 = perfect integrator
    std::int32_t vth = 64;        ///< firing threshold
    /// Reset behaviour. Soft reset (v -= vth) preserves the sub-threshold
    /// residue, making the spike count exactly floor(u_acc / vth) — this is
    /// the activation approximation of paper eq. 2. Hard reset clears v to 0.
    bool soft_reset = true;
    /// Refractory period in steps after a spike (0 = none).
    std::int32_t refractory = 0;
    /// Clamp the membrane at zero from below. Forward-path neurons use this
    /// so inhibition cannot accumulate an unbounded negative reserve that
    /// would swallow phase-2 corrections (the *shifted* ReLU of paper
    /// eq. 2). Error-path neurons keep signed membranes — the two-channel
    /// (+/-) representation depends on them.
    bool floor_at_zero = false;

    JoinOp join = JoinOp::None;

    /// Pre-synaptic trace (x1), read when this compartment is the source of
    /// a learning-enabled projection.
    TraceConfig pre_trace{};
    /// Post-synaptic trace (y1), read when it is the destination.
    TraceConfig post_trace{1, 0, TraceWindow::Phase2Only, 7};
    /// Optional second trace pair (x2 / y2) with independent time constants
    /// — Loihi exposes several traces per synapse/compartment precisely so
    /// rules like triplet STDP can combine a fast and a slow view of the
    /// same spike train. Impulse 0 (the default) keeps them inert.
    TraceConfig pre_trace2{0, 0, TraceWindow::Both, 7};
    TraceConfig post_trace2{0, 0, TraceWindow::Both, 7};
    /// Tag counter (Z in paper eq. 12): accumulated via the microcode rule
    /// dt = y0 applied every step; counts spikes across both phases.
    TraceConfig tag_trace{1, 0, TraceWindow::Both, 8};

    /// When false the compartment is frozen outside phase 2 — neither
    /// integrating nor spiking. Used for error-path and label populations
    /// (phase gating, see DESIGN.md Sec. 5).
    bool active_in_phase1 = true;
};

/// Packed bitset lane for per-compartment boolean flags (spiked, aux gate).
/// One cache line covers 512 compartments, so the pass-2 spike scan touches
/// 64x less memory than a one-byte-per-flag layout, and whole quiet words
/// are skipped with a single load. Bits past size() are kept zero so word
/// scans need no tail masking.
class BitLane {
public:
    std::size_t size() const { return size_; }
    std::size_t word_count() const { return words_.size(); }
    const std::uint64_t* words() const { return words_.data(); }

    /// Grows to n bits; new bits are zero, existing bits are preserved.
    void resize(std::size_t n) {
        words_.resize((n + 63) / 64, 0);
        size_ = n;
    }

    bool get(std::size_t i) const {
        return (words_[i >> 6] >> (i & 63)) & 1u;
    }
    void set(std::size_t i) { words_[i >> 6] |= std::uint64_t{1} << (i & 63); }
    void clear(std::size_t i) {
        words_[i >> 6] &= ~(std::uint64_t{1} << (i & 63));
    }

    void clear_all() { std::fill(words_.begin(), words_.end(), 0); }

    /// Clears bits [b, e).
    void clear_range(std::size_t b, std::size_t e) {
        while (b < e) {
            const std::size_t wi = b >> 6;
            const std::size_t lo = b & 63;
            const std::size_t hi = std::min<std::size_t>(64, lo + (e - b));
            const std::uint64_t upper =
                hi == 64 ? ~std::uint64_t{0} : (std::uint64_t{1} << hi) - 1;
            words_[wi] &= ~(upper & ~((std::uint64_t{1} << lo) - 1));
            b = (wi << 6) + hi;
        }
    }

private:
    std::vector<std::uint64_t, common::AlignedAlloc<std::uint64_t>> words_;
    std::size_t size_ = 0;
};

/// Dynamic compartment state in struct-of-arrays form: one contiguous,
/// cache-line-aligned integer lane per variable, indexed by global
/// compartment id, plus packed bitsets for the boolean flags. The membrane
/// sweep and the CSR synaptic accumulation iterate single lanes
/// with unit stride, which is what lets them autovectorize (the loops
/// tagged NEURO_VEC_HOT in chip.cpp); the scalar oracle, join and learning
/// paths index the same lanes element-wise with unchanged semantics.
struct CompartmentBank {
    template <typename T>
    using Lane = std::vector<T, common::AlignedAlloc<T>>;

    Lane<std::int64_t> u;             ///< synaptic response current
    Lane<std::int64_t> v;             ///< membrane potential
    /// Accumulators for spikes that arrived this step (applied next step,
    /// matching the chip's one-step synaptic delay).
    Lane<std::int64_t> pending_soma;
    Lane<std::int64_t> pending_aux;
    /// Aux input accumulated for JoinOp::GatedAdd / JoinOp::Add.
    Lane<std::int64_t> aux_current;

    Lane<std::int32_t> bias;
    Lane<std::int32_t> refractory_left;
    // Spike bookkeeping for the current sample window.
    Lane<std::int32_t> spikes_phase1;
    Lane<std::int32_t> spikes_phase2;

    // Trace values (see loihi/trace.hpp for the shared tick/on-spike ops).
    Lane<std::int32_t> x1;   // pre trace
    Lane<std::int32_t> y1;   // post trace
    Lane<std::int32_t> x2;   // second pre trace
    Lane<std::int32_t> y2;   // second post trace
    Lane<std::int32_t> tag;  // tag counter

    BitLane spiked;      ///< fired in the current step
    /// Aux-compartment activity flag used by JoinOp::AndAuxActive — set if
    /// the aux compartment received any input in the current sample window.
    BitLane aux_active;

    std::size_t size() const { return u.size(); }

    /// Grows every lane to n compartments, zero-initialized.
    void resize(std::size_t n) {
        u.resize(n, 0);
        v.resize(n, 0);
        pending_soma.resize(n, 0);
        pending_aux.resize(n, 0);
        aux_current.resize(n, 0);
        bias.resize(n, 0);
        refractory_left.resize(n, 0);
        spikes_phase1.resize(n, 0);
        spikes_phase2.resize(n, 0);
        x1.resize(n, 0);
        y1.resize(n, 0);
        x2.resize(n, 0);
        y2.resize(n, 0);
        tag.resize(n, 0);
        spiked.resize(n);
        aux_active.resize(n);
    }

    std::int32_t spike_count(std::size_t c) const {
        return spikes_phase1[c] + spikes_phase2[c];
    }

    /// Per-sample reset: everything except bias (a host register).
    void reset_dynamic() {
        std::fill(u.begin(), u.end(), 0);
        std::fill(v.begin(), v.end(), 0);
        std::fill(pending_soma.begin(), pending_soma.end(), 0);
        std::fill(pending_aux.begin(), pending_aux.end(), 0);
        std::fill(aux_current.begin(), aux_current.end(), 0);
        std::fill(refractory_left.begin(), refractory_left.end(), 0);
        std::fill(spikes_phase1.begin(), spikes_phase1.end(), 0);
        std::fill(spikes_phase2.begin(), spikes_phase2.end(), 0);
        std::fill(x1.begin(), x1.end(), 0);
        std::fill(y1.begin(), y1.end(), 0);
        std::fill(x2.begin(), x2.end(), 0);
        std::fill(y2.begin(), y2.end(), 0);
        std::fill(tag.begin(), tag.end(), 0);
        spiked.clear_all();
        aux_active.clear_all();
    }

    /// Phase-boundary reset: clears the integrators but keeps spike
    /// counters, traces, tags and aux gates (see Chip::reset_membranes).
    void reset_membranes() {
        std::fill(u.begin(), u.end(), 0);
        std::fill(v.begin(), v.end(), 0);
        std::fill(pending_soma.begin(), pending_soma.end(), 0);
        std::fill(pending_aux.begin(), pending_aux.end(), 0);
        std::fill(aux_current.begin(), aux_current.end(), 0);
        std::fill(refractory_left.begin(), refractory_left.end(), 0);
    }
};

}  // namespace neuro::loihi
