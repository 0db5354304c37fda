#pragma once
// Multi-chip sharded execution: N Chip instances stepping in lockstep,
// with the router relaying boundary spikes between them.
//
// Splitting: ShardedChip is built from a *finalized* prototype chip and a
// ShardPlan. Every population is rebuilt (same config, same build order) on
// its assigned shard, and every projection on its destination's shard —
// as on Loihi, where a projection's synapses, weights and learning engine
// sit at its destination cores. A projection whose source lives on
// another shard is fed by a relay (Chip::add_relay): the destination's
// copy of that source population, one per (source population, destination
// shard). Each shard therefore holds all of its populations' fan-in and
// maps them exactly as the single chip did.
//
// Timing: one ShardedChip::step() is one barrier-synchronised system step.
// The shards step; after the barrier, every relay delivers its source's
// spikes of that step through its on-chip fan-out, into the pending input
// and delay wheel that the destination's own pass-2 delivery fills. A
// spike at step t therefore reaches its cross-chip targets at t+1 (plus
// the synapse delay), exactly as on one chip, so forward dynamics are
// bit-identical to the unsharded chip for any shard count (spiking is
// RNG-free unless decaying traces are configured).
//
// Learning: apply_learning() first copies each relay's pre-synaptic state
// (spike flag, x1, x2) from its source, then every shard runs
// Chip::apply_learning — the one place any plastic synapse is updated —
// with its own stochastic-rounding stream.
//
// Threading: shards step and learn concurrently on a lazily-created
// ThreadPool; worker w touches only shard w's chip. Relaying and mirroring
// run on the calling thread between the barriers, in relay order, so every
// result is independent of the thread count. (Mirroring must be serial: a
// relay's spike flag can share a 64-bit word with a population that
// another relay reads.)

#include <cstdint>
#include <functional>
#include <memory>
#include <utility>
#include <vector>

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
    /// image (see loihi::Chip); dynamic state is deep. The worker pool is
    /// per-instance and re-created lazily (LazyPool resets on copy, which
    /// is what lets this stay defaulted).
    ShardedChip(const ShardedChip& other) = default;
    ShardedChip& operator=(const ShardedChip&) = delete;
    ShardedChip(ShardedChip&&) = default;

    std::size_t num_shards() const { return chips_.size(); }
    const ShardPlan& plan() const { return plan_; }
    /// Direct access to one shard's chip (tests / probing / energy).
    Chip& shard(std::size_t s) { return chips_[s]; }
    const Chip& shard(std::size_t s) const { return chips_[s]; }

    // ---- Chip-shaped facade (logical ids = prototype ids) ------------------
    void set_phase(Phase phase);
    void step();
    void run(std::size_t steps);

    void set_bias(PopulationId pop, const std::vector<std::int32_t>& bias);
    void clear_bias(PopulationId pop);

    void apply_learning();
    void set_learning_rule(ProjectionId proj, LearningRule rule);
    void seed_learning_noise(std::uint64_t seed);

    void reset_dynamic_state();
    void reset_membranes();

    std::vector<std::int32_t> spike_counts(PopulationId pop, Phase phase) const;
    std::vector<std::int32_t> spike_counts_total(PopulationId pop) const;
    std::int64_t membrane(PopulationId pop, std::size_t idx) const;

    std::vector<std::int32_t> weights(ProjectionId proj) const;
    void program_weights(ProjectionId proj, const std::vector<std::int32_t>& w);
    void check_weights(ProjectionId proj, const std::vector<std::int32_t>& w) const;

    /// True when the projection's source lives on another shard than its
    /// destination (a relay feeds it).
    bool projection_is_cut(ProjectionId proj) const;
    /// Spikes relayed between chips since construction or reset_activity().
    std::uint64_t routed_spikes() const { return routed_; }

    /// System-wide activity: the shards' totals summed; `steps` counts
    /// system barriers, not per-shard work. For a 1-shard split this
    /// equals the prototype's totals exactly.
    ActivityTotals activity() const;
    void reset_activity();

private:
    /// A destination shard's copy of a population on another shard.
    struct Relay {
        std::size_t src_shard = 0, dst_shard = 0;
        PopulationId src = 0;    ///< on the source chip
        PopulationId local = 0;  ///< on the destination chip
    };

    /// Runs fn(s) for every shard on the pool (inline for one shard).
    void for_each_shard(const std::function<void(std::size_t)>& fn);
    /// The shard and local id of a prototype projection.
    std::pair<std::size_t, ProjectionId> locate(ProjectionId proj) const;

    ShardPlan plan_;
    std::vector<Chip> chips_;
    std::vector<Relay> relays_;
    std::uint64_t routed_ = 0;

    // Logical-id maps (prototype numbering).
    std::vector<std::size_t> pop_shard_;        // owning shard per population
    std::vector<PopulationId> pop_local_;       // id within the owning chip
    std::vector<std::size_t> proj_shard_;       // destination's shard
    std::vector<ProjectionId> proj_local_;      // id within that chip

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
};

}  // namespace neuro::loihi
