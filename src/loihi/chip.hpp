#pragma once
// The chip: populations of CUBA compartments, projections of 8-bit synapses,
// a barrier-synchronised time stepper, and the microcode learning engine.
//
// Usage is NxSDK-shaped: declare populations and projections, finalize()
// (which also maps compartments onto cores), then per sample: program
// biases, run phase 1, run phase 2, apply_learning(), reset_dynamic_state().
//
// Everything on the datapath is integer; the only floats are in the energy
// model, which consumes the activity counters this class maintains.
//
// Copy semantics (the runtime Session substrate): once finalized, a chip's
// structure — populations, synapse topology, CSR fan-out, core mapping — is
// immutable and *shared* between copies through a shared_ptr, and the
// synaptic weight image is shared copy-on-write (detached on the first
// write: learning, reprogramming, checkpoint load, stuck-at injection).
// Copying a finalized chip therefore costs only the dynamic state
// (compartments, wheel, RNGs), not the synapse tables; N inference copies
// read one weight image. Behaviour is bit-identical to an independent deep
// copy. Pre-finalize copies still deep-copy everything.

#include <array>
#include <cstdint>
#include <iosfwd>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "common/rng.hpp"
#include "loihi/compartment.hpp"
#include "loihi/learning.hpp"
#include "loihi/mapping.hpp"
#include "loihi/types.hpp"

namespace neuro::loihi {

/// Static description of a population (a layer's worth of identical
/// compartments).
struct PopulationConfig {
    std::string name;
    std::size_t size = 0;
    CompartmentConfig compartment{};
    /// Logical neurons packed per core; 0 = pack to capacity (Operation
    /// Flow 1's "optimal number of neurons per core"). A logical neuron with
    /// an aux compartment occupies two compartment slots.
    std::size_t neurons_per_core = 0;
};

/// One synapse, population-local indices. Weights are `weight_bits`-wide
/// signed integers; the effective current is weight << weight_exp of the
/// owning projection. `delay` adds extra timesteps on top of the intrinsic
/// one-step latency (Loihi: 0..62). After finalize, `weight` holds the
/// *initial* (programmed-at-build) value; the live weight lives in the
/// chip's copy-on-write weight image.
struct Synapse {
    std::uint32_t src = 0;
    std::uint32_t dst = 0;
    std::int32_t weight = 0;
    std::uint8_t delay = 0;
};

/// Static description of a projection (synapse group).
struct ProjectionConfig {
    std::string name;
    PopulationId src = 0;
    PopulationId dst = 0;
    Port port = Port::Soma;
    int weight_exp = 0;   ///< effective weight = w * 2^weight_exp
    bool plastic = false; ///< subject to the learning rule at epochs
    LearningRule rule{};  ///< initial rule when plastic (see set_learning_rule)
    /// Apply the engine's stochastic-rounding mode to the rule's
    /// power-of-two scaling (see SumOfProducts::evaluate).
    bool stochastic_rounding = true;
};

/// Aggregate event counters used by the energy/time model. Counters
/// accumulate until reset_activity().
struct ActivityTotals {
    std::uint64_t steps = 0;
    std::uint64_t compartment_updates = 0;
    std::uint64_t synaptic_ops = 0;
    std::uint64_t spikes = 0;
    std::uint64_t learning_synapse_visits = 0;
    std::uint64_t host_io_writes = 0;  ///< bias writes + spike insertions
};

/// The per-population split of ActivityTotals' event counters: updates and
/// spikes of the population's own compartments, and the synaptic ops of
/// the spikes it emitted (charged at emission, as ActivityTotals charges
/// them). Summed over populations they equal the totals exactly.
struct PopulationActivity {
    std::uint64_t compartment_updates = 0;
    std::uint64_t synaptic_ops = 0;
    std::uint64_t spikes = 0;
};

/// Wall-clock attribution of step() time to its two passes: the
/// integrate/spike sweep (pass 1) and the synaptic accumulation/delivery
/// (pass 2). Nanoseconds from obs::Timer sinks — they only advance while
/// obs::set_timing(true), and cost one relaxed load per step otherwise.
/// Deliberately NOT part of ActivityTotals: totals are compared
/// bit-identically across kernel modes (bench/micro_chip), wall time is
/// not. Per-chip, deep-copied, reset independently of activity.
struct KernelPhaseTimes {
    std::uint64_t sweep_ns = 0;
    std::uint64_t accum_ns = 0;
};

class Chip {
public:
    explicit Chip(ChipLimits limits = {});

    /// Copies share the structure and (copy-on-write) the weight image;
    /// dynamic state, device faults, rules and RNG streams are deep. The
    /// defaulted memberwise copy is correct because both shared blocks are
    /// copy-on-write: the structure detaches on the next pre-finalize build
    /// mutation (and is immutable after finalize), the weight image on the
    /// next weight write.
    Chip(const Chip& other) = default;
    Chip& operator=(const Chip& other) = default;
    Chip(Chip&&) = default;
    Chip& operator=(Chip&&) = default;

    // ---- construction -----------------------------------------------------
    PopulationId add_population(PopulationConfig cfg);
    ProjectionId add_projection(ProjectionConfig cfg, std::vector<Synapse> synapses);

    /// Maps populations onto cores and builds the fan-out tables. Must be
    /// called exactly once, before any stepping. Throws if the network
    /// violates the chip limits (too many cores needed, bad indices...).
    void finalize();
    bool finalized() const { return finalized_; }

    // ---- host interface (Operation Flow 1) --------------------------------
    /// Programs per-neuron bias registers (the paper's input encoding: one
    /// host write per neuron per sample). Counted as host I/O.
    void set_bias(PopulationId pop, const std::vector<std::int32_t>& bias);
    /// Clears all biases of a population to zero (not counted as I/O).
    void clear_bias(PopulationId pop);
    /// Direct spike insertion from the host (the costly input path the bias
    /// encoding replaces; kept for bench/ablation_input_encoding). The spike
    /// is delivered to the population's fan-out at the next step.
    void insert_spike(PopulationId pop, std::size_t idx);

    void set_phase(Phase phase) { phase_ = phase; }
    Phase phase() const { return phase_; }

    /// Advances one barrier-synchronised timestep: drain the delay wheel,
    /// update every compartment (Loihi updates each one at every barrier,
    /// and the energy model charges each live, phase-active one), then
    /// deliver this step's spikes. Quiet compartments are not skipped; a
    /// workload that needs skipping must skip whole populations before the
    /// lane kernel runs, never keep per-compartment lists
    /// (docs/ARCHITECTURE.md §3).
    void step();
    void run(std::size_t steps);

    /// Selects the kernel implementation: the SIMD-friendly lane kernels
    /// (the default — per-population vectorized integrate/spike sweep plus
    /// batched contiguous-run synaptic accumulation) or the scalar reference
    /// kernels that visit one compartment / one fan-out entry at a time.
    /// The two are bit-identical (spikes, ActivityTotals, RNG streams,
    /// traces); the scalar path is kept for equivalence testing and as the
    /// normalization row of bench/micro_chip. May be toggled at any time.
    void set_vector_sweep(bool enabled) { vector_sweep_ = enabled; }
    bool vector_sweep() const { return vector_sweep_; }

    /// Applies the learning rule of every plastic projection (the end-of-2T
    /// weight update of Operation Flow 1). Detaches the shared weight image
    /// on the first call after a copy (copy-on-write).
    void apply_learning();

    /// Replaces the learning rule of a plastic projection. Allowed after
    /// finalize — reprogramming microcode does not change the network
    /// structure (the incremental-learning experiment uses this to reduce
    /// the learning rate during its step 1).
    void set_learning_rule(ProjectionId proj, LearningRule rule);

    /// Reseeds the learning engine's stochastic-rounding generator (the
    /// trace-decay generator derives from the same seed).
    void seed_learning_noise(std::uint64_t seed) {
        learn_rng_ = common::Rng(seed);
        trace_rng_ = common::Rng(seed ^ 0x7EAC0DEULL);
    }

    /// Clears membranes, currents, pending inputs, traces, tags, spike
    /// counters and aux flags — the paper's per-sample "Reset network state".
    void reset_dynamic_state();

    /// Clears membranes, currents and pending inputs but *keeps* spike
    /// counters, traces, tags and aux gates. Called at the phase-1/phase-2
    /// boundary so phase 2 replays phase 1 exactly when no correction is
    /// injected — otherwise sub-threshold residues give (h_hat - h) a
    /// systematic positive bias (see DESIGN.md).
    void reset_membranes();

    // ---- device variation & fault injection --------------------------------
    // Deployed-silicon properties (paper Sec. I: in-hardware learning
    // "provides the ability to compensate any device variation and/or
    // environment noise"). They persist across reset_dynamic_state() — a
    // sample reset does not heal a chip — and may be set before or after
    // finalize. Statistical injectors live in loihi/faults.hpp. Faults are
    // per-chip: replicas copied from a faulted chip inherit its faults, and
    // faults injected later never leak into other copies.

    /// Additive offset on the firing threshold of one compartment (device
    /// mismatch). The effective threshold is clamped at 1, and soft reset
    /// subtracts the *effective* threshold so eq. (2)'s floor(u/theta)
    /// activation holds per-device.
    void set_threshold_offset(PopulationId pop, std::size_t idx, std::int32_t offset);
    std::int32_t threshold_offset(PopulationId pop, std::size_t idx) const;

    /// Marks a compartment dead: it never integrates, spikes, or relays
    /// host-inserted events (a defective or permanently power-gated unit).
    void set_compartment_dead(PopulationId pop, std::size_t idx, bool dead);
    bool compartment_dead(PopulationId pop, std::size_t idx) const;

    /// Forces one synapse to a constant weight (stuck-at fault). The learning
    /// engine skips it and checkpoint loads leave it untouched, exactly as a
    /// defective synaptic memory cell would behave under reprogramming.
    void set_synapse_stuck(ProjectionId proj, std::size_t syn, std::int32_t value);
    bool synapse_stuck(ProjectionId proj, std::size_t syn) const;
    std::size_t stuck_synapse_count(ProjectionId proj) const;

    // ---- inter-chip mesh interface (multi-chip sharding) -------------------
    // These are the primitives loihi::ShardedChip builds on: a router owns
    // the synapses that cross chip boundaries and uses them to re-create the
    // exact effect of an on-chip delivery on the destination chip.

    /// Delivers one already-weighted synaptic event to a compartment, exactly
    /// as the local fan-out path would (pending accumulator). Visible
    /// at the next step. Not host I/O, and deliberately not a synaptic op on
    /// this chip either: on-chip accounting charges synops at spike
    /// *emission* (see deliver()), so the router tallies cross-chip events
    /// on the sending side to keep system totals identical to an unsharded
    /// chip.
    void deliver_external(PopulationId pop, std::size_t idx,
                          std::int32_t eff_weight, Port port);

    /// Appends the population-local indices of compartments that fired
    /// during the most recent step (the boundary-spike readout of the
    /// inter-chip router).
    void collect_spiked(PopulationId pop, std::vector<std::uint32_t>& out) const;

    // ---- structure introspection (used to split a chip into shards) --------
    std::size_t num_populations() const { return s_->pops.size(); }
    std::size_t num_projections() const { return s_->projs.size(); }
    const PopulationConfig& population_config(PopulationId pop) const;
    const ProjectionConfig& projection_config(ProjectionId proj) const;
    /// Synapse list as built (weights are the *initial* values; live weights
    /// come from weights()).
    const std::vector<Synapse>& projection_synapses(ProjectionId proj) const;
    /// The *live* learning rule: reflects post-finalize reprogramming via
    /// set_learning_rule (ProjectionConfig::rule keeps only the build-time
    /// value).
    const LearningRule& learning_rule(ProjectionId proj) const;
    /// Current bias registers of a population.
    std::vector<std::int32_t> biases(PopulationId pop) const;

    // ---- readout -----------------------------------------------------------
    std::size_t population_size(PopulationId pop) const;
    /// Configured (nominal) firing threshold of a population, before any
    /// per-compartment variation offsets.
    std::int32_t nominal_threshold(PopulationId pop) const;
    std::vector<std::int32_t> spike_counts(PopulationId pop, Phase phase) const;
    std::vector<std::int32_t> spike_counts_total(PopulationId pop) const;
    std::int64_t membrane(PopulationId pop, std::size_t idx) const;
    std::int64_t current(PopulationId pop, std::size_t idx) const;
    bool spiked(PopulationId pop, std::size_t idx) const;
    std::uint64_t now() const { return now_; }
    std::int32_t trace_x1(PopulationId pop, std::size_t idx) const;
    std::int32_t trace_y1(PopulationId pop, std::size_t idx) const;
    std::int32_t trace_x2(PopulationId pop, std::size_t idx) const;
    std::int32_t trace_y2(PopulationId pop, std::size_t idx) const;
    std::int32_t trace_tag(PopulationId pop, std::size_t idx) const;

    /// Synapse weights of a projection (for probing / checkpointing).
    std::vector<std::int32_t> weights(ProjectionId proj) const;
    void set_weights(ProjectionId proj, const std::vector<std::int32_t>& w);

    /// Reprograms the weights of one projection. Unlike set_weights() this
    /// is allowed after finalize — it models the host rewriting synaptic
    /// memory on a deployed chip (the weight-sync path of the parallel
    /// trainer): stuck-at faulted cells ignore the write and the delivery
    /// tables are refreshed immediately. Weights must fit `weight_bits`.
    void program_weights(ProjectionId proj, const std::vector<std::int32_t>& w);
    std::size_t synapse_count(ProjectionId proj) const;
    std::size_t total_synapses() const;
    std::size_t total_compartments() const;

    /// Serializes every projection's weights (versioned binary format).
    /// Usable after finalize — this is how a trained chip is checkpointed
    /// for redeployment; loading refreshes the delivery tables.
    void save_weights(std::ostream& out) const;
    void load_weights(std::istream& in);

    const ActivityTotals& activity() const { return activity_; }
    /// activity() split by population, indexed by PopulationId.
    const std::vector<PopulationActivity>& population_activity() const {
        return pop_activity_;
    }
    void reset_activity() {
        activity_ = {};
        pop_activity_.assign(pop_activity_.size(), PopulationActivity{});
    }

    /// Cumulative per-pass step() timing (see KernelPhaseTimes). Read on
    /// the thread that steps the chip; serving workers snapshot deltas
    /// around each request to attribute compute time (ARCHITECTURE §14).
    const KernelPhaseTimes& kernel_phase_times() const { return phase_times_; }
    void reset_kernel_phase_times() { phase_times_ = {}; }

    const MappingResult& mapping() const;
    const ChipLimits& limits() const { return limits_; }

    /// Optional spike raster capture (tests); records (step, global index).
    void enable_raster(PopulationId pop);
    const std::vector<std::pair<std::uint64_t, std::uint32_t>>& raster() const {
        return raster_;
    }

    // ---- sharing introspection ---------------------------------------------
    /// True when both chips read the same finalized structure tables
    /// (populations, synapse topology, fan-out, mapping).
    bool shares_structure_with(const Chip& other) const {
        return finalized_ && s_ == other.s_;
    }
    /// True while both chips still read the same copy-on-write weight image
    /// (no weight write has detached either side since the copy).
    bool shares_weights_with(const Chip& other) const {
        return img_ != nullptr && img_ == other.img_;
    }

private:
    struct Population {
        PopulationConfig cfg;
        CompartmentId first = 0;  ///< global index of compartment 0
    };

    /// Structural half of a fan-out entry; the effective weight lives in the
    /// copy-on-write image (Weights::eff), indexed by the same slot.
    struct FanoutEntry {
        std::uint32_t dst;       ///< global compartment index
        std::uint8_t port;       ///< Port
        std::uint8_t delay;      ///< extra steps on top of the intrinsic one
    };

    struct Projection {
        ProjectionConfig cfg;
        std::vector<Synapse> synapses;  // population-local; initial weights
        /// Fan-out table slot of each synapse, so weight updates (learning,
        /// checkpoint loads) propagate to the delivery path immediately.
        std::vector<std::size_t> fanout_slot;
    };

    /// One delivery segment of a source's CSR fan-out span. finalize()
    /// compresses each span into segments: a *contiguous* segment covers
    /// slots whose destinations are consecutive global ids with zero delay
    /// and one shared port — the hot case built by dense_synapses — and is
    /// applied as a single `pending[dst0+j] += eff[slot0+j]` vector loop; a
    /// *generic* segment falls back to per-entry delivery (delays, gaps,
    /// mixed ports). Segments keep slot order, so the accumulate/wheel-push
    /// sequence is a reordering-free partition of the original entry walk.
    struct FanoutRun {
        std::uint32_t dst0 = 0;   ///< first destination (contiguous only)
        std::uint32_t slot0 = 0;  ///< first fan-out slot (indexes eff/fanout)
        std::uint32_t len = 0;    ///< slots covered
        std::uint8_t port = 0;    ///< Port (contiguous only)
        std::uint8_t contiguous = 0;
    };

    /// Everything frozen at finalize() and shared between copies.
    struct Structure {
        std::vector<Population> pops;
        std::vector<Projection> projs;
        std::vector<std::uint16_t> pop_of;      // owning population per compartment
        std::vector<std::size_t> fanout_begin;  // CSR, size = compartments + 1
        std::vector<FanoutEntry> fanout;
        std::vector<std::size_t> run_begin;     // CSR over runs, compartments + 1
        std::vector<FanoutRun> runs;
        /// Per-population: eligible for the vectorized sweep? True for
        /// single-compartment populations (JoinOp::None) with pure-counter
        /// traces — no aux state, no per-step RNG draws. Populations with a
        /// dead compartment fall back at run time (see pop_dead_).
        std::vector<std::uint8_t> pop_vec_ok;
        MappingResult mapping;
        bool has_plastic = false;
    };

    /// The live synaptic memory: per-projection raw weights plus the
    /// effective (exponent-shifted) delivery weights, one per fan-out slot.
    /// Shared between copies until the first write (copy-on-write).
    struct Weights {
        std::vector<std::vector<std::int32_t>> w;
        std::vector<std::int32_t> eff;
    };

    ChipLimits limits_;
    /// Mutable while building (copy-on-write, see detach_structure);
    /// logically frozen (and shared) after finalize.
    std::shared_ptr<Structure> s_;
    std::shared_ptr<Weights> img_;  ///< null until finalize; copy-on-write

    // Flattened dynamic state in struct-of-arrays lanes, indexed by global
    // compartment id (see CompartmentBank).
    CompartmentBank bank_;

    // Device properties, indexed by global compartment id. Not dynamic
    // state: reset_dynamic_state() leaves them alone.
    std::vector<std::int32_t> vth_offset_;
    std::vector<std::uint8_t> dead_;
    /// Precomputed effective thresholds, max(1, vth + vth_offset_), one per
    /// compartment, so the vectorized spike-detect loop compares against a
    /// flat lane. Rebuilt at finalize, patched by set_threshold_offset.
    CompartmentBank::Lane<std::int64_t> vth_eff_;
    /// Per-population dead-compartment counts: a population with any dead
    /// unit takes the scalar sweep (dead units sink input element-wise).
    std::vector<std::uint32_t> pop_dead_;
    /// Per-projection stuck-at masks; empty until the first fault.
    std::vector<std::vector<std::uint8_t>> stuck_;
    /// Live learning rules (set_learning_rule reprograms microcode per chip
    /// without touching the shared structure). Sized at finalize.
    std::vector<LearningRule> rules_;

    Phase phase_ = Phase::One;
    bool finalized_ = false;
    std::uint64_t now_ = 0;

    /// Delay wheel: slot (now_ + delay) % kWheel holds deliveries that
    /// become visible at that step. Only synapses with delay > 0 use it.
    static constexpr std::size_t kWheel = 64;
    struct DelayedDelivery {
        std::uint32_t dst;
        std::int32_t weight;
        std::uint8_t port;
    };
    std::array<std::vector<DelayedDelivery>, kWheel> wheel_{};

    ActivityTotals activity_{};
    std::vector<PopulationActivity> pop_activity_;
    KernelPhaseTimes phase_times_{};

    std::optional<PopulationId> raster_pop_{};
    std::vector<std::pair<std::uint64_t, std::uint32_t>> raster_;

    common::Rng learn_rng_{0xC0FFEE};
    common::Rng trace_rng_{0x7EAC0DE};

    /// SIMD lane kernels vs scalar reference kernels (see set_vector_sweep).
    bool vector_sweep_ = true;
    /// Scratch spike-detect lane of the vectorized sweep (one byte per
    /// compartment; rewritten for the population being swept each step).
    CompartmentBank::Lane<std::uint8_t> fired_;

    /// One compartment's worth of the pass-1 physics (integrate, spike,
    /// traces): the scalar oracle of the lane kernels, and the path of
    /// populations the lanes do not cover (AndAuxActive gates, decaying
    /// traces, dead units).
    void step_compartment(CompartmentId c);
    /// Pass-1 physics of one vector-eligible population [b, e): vectorized
    /// integrate + spike-detect over the lanes, then a scalar epilogue over
    /// the (rare) fired compartments. Bit-identical to per-compartment
    /// step_compartment calls over the same range.
    void sweep_pop_vector(PopulationId p, std::size_t b, std::size_t e);
    /// Scalar pass over the fired byte lane [b, e): calls fire_compartment
    /// on each set byte, skipping whole zero 8-byte blocks.
    void fire_epilogue(std::size_t b, std::size_t e,
                       const CompartmentConfig& cfg);
    /// Spike bookkeeping of one fired vector-path compartment (reset,
    /// refractory re-arm, counters, trace impulses, raster).
    void fire_compartment(CompartmentId c, const CompartmentConfig& cfg);
    void tick_traces(CompartmentId c, const CompartmentConfig& cfg);

    CompartmentId global_id(PopulationId pop, std::size_t idx) const;
    /// Delivers one spike of `src` through its fan-out and returns the
    /// synaptic ops it made; the caller charges them.
    std::size_t deliver(CompartmentId src);
    /// Per-entry reference delivery of fan-out slots [b, e) (delays, mixed
    /// ports, non-contiguous destinations, and the scalar-kernel path).
    void deliver_span(std::size_t b, std::size_t e);
    void check_finalized(bool expected) const;
    /// Clones the structure iff it is still shared with another chip (call
    /// before any pre-finalize build mutation; after finalize the structure
    /// is immutable and stays shared forever).
    void detach_structure();
    /// Clones the weight image iff it is still shared with another chip
    /// (call before any weight write after finalize).
    void detach_weights();
    /// Writes one synapse's weight, honouring stuck-at faults and keeping
    /// the delivery table in sync (shared by program_weights/load_weights).
    /// Caller must detach_weights() first.
    void write_weight(std::size_t proj, std::size_t i, std::int32_t w);
};

/// Encodes a desired integer magnitude as (weight, exponent) with |weight|
/// within `weight_bits`. Used for error-injection weights of +-theta where
/// theta can exceed the 8-bit range.
struct EncodedWeight {
    std::int32_t weight = 0;
    int exponent = 0;
};
EncodedWeight encode_weight(std::int64_t desired, int weight_bits);

}  // namespace neuro::loihi
