#pragma once
// Multi-chip shard planning (the scaling axis the paper points at in
// Sec. III-C: one chip's core budget caps the mappable network, so larger
// models must partition across chips with spike traffic between them).
//
// The planner assigns whole populations to shards — a population is
// homogeneous and already mapped to dedicated cores, so it is the natural
// unit of placement — using greedy core-budget packing with a
// cut-minimizing affinity heuristic: each shard grows by repeatedly pulling
// in the unassigned population with the largest synapse count into the
// shard, so tightly-coupled layer groups (forward layer + its error twin,
// adjacent dense layers) land together and the synapses that must travel
// between chips are minimized.
//
// Plans are pure functions of their inputs: same demands, same edges, same
// limits, same shard count -> byte-identical plan, every time. This is load-
// bearing for the determinism contract of loihi::ShardedChip.

#include <cstddef>
#include <string>
#include <vector>

#include "loihi/types.hpp"

namespace neuro::loihi {

/// Core demand of one population (from MappingResult::layers).
struct PopulationDemand {
    std::string name;
    std::size_t cores = 0;
};

/// Synapse count between two populations (direction-insensitive for the
/// planner; duplicate pairs are summed).
struct PopulationAffinity {
    std::size_t a = 0;
    std::size_t b = 0;
    std::size_t synapses = 0;
};

/// Where every population landed.
struct ShardPlan {
    std::size_t num_shards = 1;
    std::vector<std::size_t> shard_of;        ///< per population
    std::vector<std::size_t> cores_per_shard;
    std::size_t total_cores = 0;
    /// Synapses whose endpoints live on different shards. They live on
    /// their destination's shard, fed by spikes relayed from the source's.
    std::size_t cut_synapses = 0;

    bool single() const { return num_shards <= 1; }
};

/// Plans a partition of `pops` onto chips of `limits.num_cores` cores.
///
/// `num_shards == 0` (auto) uses the minimum shard count whose packing
/// fits; an explicit count spreads the load over exactly that many shards
/// (soft target ceil(total/num_shards) per shard, hard cap one chip).
///
/// Throws std::invalid_argument when any single population needs more cores
/// than one chip holds (populations are atomic — splitting one across chips
/// would put half a layer's fan-in behind the mesh), when an explicit shard
/// count cannot hold the network or cannot be reached (more shards
/// requested than the atomic populations can spread across), or on
/// malformed edges.
ShardPlan plan_shards(const std::vector<PopulationDemand>& pops,
                      const std::vector<PopulationAffinity>& edges,
                      const ChipLimits& limits, std::size_t num_shards = 0);

}  // namespace neuro::loihi
