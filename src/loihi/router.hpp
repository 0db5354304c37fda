#pragma once
// Multi-chip sharded execution: N Chip instances stepping in lockstep with
// an inter-chip spike router carrying the boundary traffic.
//
// Splitting: ShardedChip is built from a *finalized* prototype chip and a
// ShardPlan. Every population is rebuilt (same config, same build order) on
// its assigned shard; projections with both endpoints on one shard become
// ordinary on-chip projections there; projections that cross the cut are
// owned by the router, which holds their synapses, live weights and
// learning rules.
//
// Timing: one ShardedChip::step() is one barrier-synchronised system step.
// Each shard first drains its inbound mailbox (boundary events generated
// last step) into compartment pending accumulators — exactly what the local
// pass-2 delivery would have done — then steps its chip; after all shards
// reach the barrier, the router collects this step's boundary spikes,
// expands them through the cross-shard fan-out and exchanges them into the
// destination mailboxes for the next step. A spike at step t is therefore
// visible to its cross-chip targets at t+1, identical to the on-chip
// one-step synaptic latency, so forward dynamics are bit-identical to the
// unsharded chip for any shard count (spiking is RNG-free unless decaying
// traces are configured).
//
// Threading: shards step concurrently on a lazily-created ThreadPool.
// Worker w touches only shard w's chip and outbox row (double-buffered
// mailboxes: workers fill outboxes while inboxes drain); the exchange runs
// single-threaded between barriers, in shard order, so delivery order —
// and every result — is independent of the thread count. Cross-shard
// learning uses one derived RNG stream per (seed, epoch, projection),
// never per worker, preserving determinism.

#include <array>
#include <cstdint>
#include <limits>
#include <memory>
#include <utility>
#include <vector>

#include "common/rng.hpp"
#include "common/threadpool.hpp"
#include "loihi/chip.hpp"
#include "loihi/shard.hpp"

namespace neuro::loihi {

class ShardedChip {
public:
    /// Splits `proto` (finalized; its *current* weights and biases are
    /// captured) according to `plan`. `step_threads` bounds the worker pool
    /// for concurrent shard stepping: 0 = one thread per shard, 1 = step
    /// shards sequentially on the caller thread (identical results — the
    /// thread count is never observable in the simulation).
    ShardedChip(const Chip& proto, ShardPlan plan, std::size_t step_threads = 0);

    /// Copies share each shard chip's structure and copy-on-write weight
    /// image (see loihi::Chip); router tables and dynamic state are deep.
    /// The worker pool is per-instance and re-created lazily (LazyPool
    /// resets on copy, which is what lets this stay defaulted).
    ShardedChip(const ShardedChip& other) = default;
    ShardedChip& operator=(const ShardedChip&) = delete;
    ShardedChip(ShardedChip&&) = default;

    std::size_t num_shards() const { return chips_.size(); }
    const ShardPlan& plan() const { return plan_; }
    /// Direct access to one shard's chip (tests / probing).
    Chip& shard(std::size_t s) { return chips_[s]; }
    const Chip& shard(std::size_t s) const { return chips_[s]; }
    const ChipLimits& limits() const { return limits_; }

    // ---- Chip-shaped facade (logical ids = prototype ids) ------------------
    void set_phase(Phase phase);
    Phase phase() const { return phase_; }
    void step();
    void run(std::size_t steps);

    void set_bias(PopulationId pop, const std::vector<std::int32_t>& bias);
    void clear_bias(PopulationId pop);

    void apply_learning();
    void set_learning_rule(ProjectionId proj, LearningRule rule);
    void seed_learning_noise(std::uint64_t seed);

    void reset_dynamic_state();
    void reset_membranes();

    std::size_t population_size(PopulationId pop) const;
    std::vector<std::int32_t> spike_counts(PopulationId pop, Phase phase) const;
    std::vector<std::int32_t> spike_counts_total(PopulationId pop) const;
    std::int64_t membrane(PopulationId pop, std::size_t idx) const;

    std::vector<std::int32_t> weights(ProjectionId proj) const;
    void program_weights(ProjectionId proj, const std::vector<std::int32_t>& w);
    std::size_t synapse_count(ProjectionId proj) const;

    /// True when the projection's endpoints live on different shards (its
    /// synapses are carried by the router).
    bool projection_is_cut(ProjectionId proj) const;
    /// Boundary events the router has carried since construction/reset.
    std::uint64_t routed_spikes() const;

    /// One shard's activity including its share of the router's work
    /// (inbound cross-chip deliveries as synaptic ops, cut-projection
    /// learning visits attributed to the destination shard) — the totals
    /// the per-chip energy model should see.
    ActivityTotals shard_activity(std::size_t s) const;
    /// System-wide activity: shard_activity summed across shards; `steps`
    /// counts system barriers, not per-shard work. For a 1-shard split this
    /// equals the prototype's totals exactly.
    ActivityTotals activity() const;
    void reset_activity();

private:
    /// A projection whose endpoints live on different shards. The router
    /// owns its synapses, weights and (when plastic) its learning state.
    struct CrossProjection {
        ProjectionConfig cfg;             // src/dst are *logical* pop ids
        std::vector<Synapse> synapses;    // population-local endpoints
        std::vector<std::int32_t> w;      // live weights
        std::vector<std::int32_t> eff;    // w << weight_exp, delivery values
        LearningRule rule;
        std::size_t src_shard = 0, dst_shard = 0;
        PopulationId src_local = 0, dst_local = 0;
        // CSR over source-neuron index: fan[fan_begin[i]..fan_begin[i+1])
        // are synapse indices originating at local neuron i.
        std::vector<std::size_t> fan_begin;
        std::vector<std::uint32_t> fan;
    };

    /// One boundary event en route to a destination shard. `delay` is the
    /// synapse's extra delay: it selects the mailbox slot at exchange time
    /// and afterwards distinguishes delayed events (which survive a
    /// membrane reset, like entries parked on a chip's delay wheel) from
    /// ordinary next-step deliveries (which do not, like pending input).
    struct RouteDelivery {
        std::uint32_t dst_idx;
        std::int32_t weight;
        std::uint16_t dst_pop;
        std::uint8_t port;
        std::uint8_t delay;
    };

    void ensure_pool();
    /// Drains the mailbox slot due this step into shard `s`'s chip.
    void drain_inbox(std::size_t s);
    /// Scans shard `s`'s boundary populations for this step's spikes and
    /// expands them into outbox_[s] (worker-private).
    void collect_outbox(std::size_t s);
    /// Moves every outbox into the due mailbox slots (single-threaded,
    /// shard order — this fixes the delivery order deterministically).
    void exchange();
    void clear_in_flight();
    void apply_cross_learning(CrossProjection& cp, common::Rng* rng,
                              std::uint64_t& visits);

    ShardPlan plan_;
    ChipLimits limits_;
    std::vector<Chip> chips_;
    Phase phase_ = Phase::One;
    std::uint64_t now_ = 0;

    // Logical-id maps (prototype numbering).
    std::vector<std::size_t> pop_shard_;        // owning shard per population
    std::vector<PopulationId> pop_local_;       // id within the owning chip
    static constexpr std::size_t kCross = std::numeric_limits<std::size_t>::max();
    std::vector<std::size_t> proj_shard_;       // owning shard or kCross
    std::vector<std::size_t> proj_local_;       // local proj id / cross index
    std::vector<CrossProjection> cross_;

    /// Boundary sources per shard: (local pop, cross index), sorted by pop
    /// so the spike scan runs once per population.
    std::vector<std::vector<std::pair<PopulationId, std::size_t>>> watch_;

    /// Double-buffered mailboxes as a delay ring: slot (t % kWheel) holds
    /// the deliveries that must be pending before the system steps to t,
    /// per destination shard. Slot indices follow Chip's wheel convention
    /// (delay d -> slot now + 1 + d), so cross-shard synapse delays match
    /// on-chip delays step for step.
    static constexpr std::size_t kWheel = 64;
    std::array<std::vector<std::vector<RouteDelivery>>, kWheel> mailbox_;
    /// outbox_[src][dst]: filled by worker `src` during a step, swapped into
    /// the mailbox by exchange(). Kept allocated across steps.
    std::vector<std::vector<std::vector<RouteDelivery>>> outbox_;

    std::uint64_t learn_seed_;
    std::uint64_t learn_epoch_ = 0;
    /// Router work attributed per *destination* shard (activity parity with
    /// the unsharded chip and per-chip energy accounting).
    std::vector<std::uint64_t> routed_to_;
    std::vector<std::uint64_t> learn_visits_to_;

    std::size_t step_threads_;
    /// Lazily-created worker pool. ThreadPool is not copyable and every
    /// instance needs its own, so copies reset to empty — keeping the
    /// ShardedChip copy constructor defaultable (no member list to forget).
    struct LazyPool {
        std::unique_ptr<common::ThreadPool> pool;
        LazyPool() = default;
        LazyPool(const LazyPool&) noexcept {}
        LazyPool(LazyPool&&) = default;
        LazyPool& operator=(const LazyPool&) = delete;
        LazyPool& operator=(LazyPool&&) = default;
    };
    LazyPool pool_;

    /// Scratch for collect_outbox: per-shard spiked-index buffer.
    std::vector<std::vector<std::uint32_t>> spiked_scratch_;
};

}  // namespace neuro::loihi
