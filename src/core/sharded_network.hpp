#pragma once
// EMSTDP across multiple chips: the single-chip network of core/network.hpp
// split over N loihi::Chip instances that relay spikes between them
// (loihi/shard.hpp + loihi/router.hpp).
//
// The class builds the ordinary single-chip prototype first — so topology,
// weight initialization and RNG seeding are *identical* to EmstdpNetwork —
// then shards its finalized structure per a ShardPlan and runs the one
// Operation Flow 1 (core::OperationFlow) on the loihi::ShardedChip facade.
// With one shard the result is bit-identical to EmstdpNetwork (same
// weights, same spike counts, same ActivityTotals); with several shards the
// forward pass is still bit-identical (spiking consumes no RNG in the
// default configuration) and training is deterministic for any shard count,
// with one stochastic-rounding stream per shard replacing the single
// chip-wide stream (bit-identical again when stochastic rounding is off).

#include <cstddef>
#include <vector>

#include "core/network.hpp"
#include "core/options.hpp"
#include "loihi/router.hpp"
#include "loihi/shard.hpp"

namespace neuro::core {

/// Derives the shard-planner inputs (per-population core demand, pairwise
/// synapse affinity) from a finalized chip's mapping and topology.
loihi::ShardPlan plan_network_shards(const loihi::Chip& chip,
                                     std::size_t num_shards);

class ShardedEmstdpNetwork : public OperationFlow<loihi::ShardedChip> {
public:
    /// Builds the prototype EmstdpNetwork and shards it. `num_shards` 0
    /// plans automatically (minimum chips that fit the mapping; 1 when the
    /// model fits one chip). `step_threads` bounds the concurrent-shard
    /// worker pool (0 = one thread per shard). Throws when a single
    /// population exceeds one chip's core budget, or for the
    /// InputMode::SpikeInsertion encoding (host spike insertion is not
    /// routed across chips).
    ShardedEmstdpNetwork(const EmstdpOptions& opt, std::size_t in_c,
                         std::size_t in_h, std::size_t in_w,
                         const snn::ConvertedStack* conv,
                         std::vector<std::size_t> hidden, std::size_t classes,
                         std::size_t num_shards = 0,
                         std::size_t step_threads = 0);

    /// Shards an already-built (possibly trained) network: the prototype's
    /// current weights, biases, device state, live learning rules and class
    /// mask are captured; its stochastic-rounding streams are re-seeded
    /// deterministically from the options seed. The prototype is only read.
    explicit ShardedEmstdpNetwork(const EmstdpNetwork& proto,
                                  std::size_t num_shards = 0,
                                  std::size_t step_threads = 0);

    /// Same, with a precomputed plan (must cover the prototype's
    /// populations) — the path the runtime takes after planning once to
    /// decide between one chip and several.
    ShardedEmstdpNetwork(const EmstdpNetwork& proto, loihi::ShardPlan plan,
                         std::size_t step_threads = 0);

    /// Explicit replication (same contract as EmstdpNetwork::replicate):
    /// shard chips share structure and copy-on-write weight images.
    ShardedEmstdpNetwork replicate() const { return ShardedEmstdpNetwork(*this); }

    ShardedEmstdpNetwork(ShardedEmstdpNetwork&&) = default;
    ShardedEmstdpNetwork& operator=(ShardedEmstdpNetwork&&) = delete;
    ShardedEmstdpNetwork& operator=(const ShardedEmstdpNetwork&) = delete;

    // ---- shard probing (the substrate itself is chip()) ---------------------
    std::size_t num_shards() const { return chip_.num_shards(); }
    const loihi::ShardPlan& plan() const { return chip_.plan(); }

private:
    /// Reachable only through replicate().
    ShardedEmstdpNetwork(const ShardedEmstdpNetwork&) = default;
};

}  // namespace neuro::core
