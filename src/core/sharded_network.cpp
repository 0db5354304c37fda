#include "core/sharded_network.hpp"

#include <stdexcept>

#include "common/rng.hpp"

namespace neuro::core {

loihi::ShardPlan plan_network_shards(const loihi::Chip& chip,
                                     std::size_t num_shards) {
    const auto& mapping = chip.mapping();
    std::vector<loihi::PopulationDemand> demands;
    demands.reserve(chip.num_populations());
    for (loihi::PopulationId p = 0; p < chip.num_populations(); ++p)
        demands.push_back({chip.population_config(p).name,
                           mapping.layers.at(p).num_cores});
    std::vector<loihi::PopulationAffinity> edges;
    edges.reserve(chip.num_projections());
    for (loihi::ProjectionId q = 0; q < chip.num_projections(); ++q) {
        const auto& cfg = chip.projection_config(q);
        edges.push_back({cfg.src, cfg.dst, chip.synapse_count(q)});
    }
    return loihi::plan_shards(demands, edges, chip.limits(), num_shards);
}

ShardedEmstdpNetwork::ShardedEmstdpNetwork(const EmstdpOptions& opt,
                                           std::size_t in_c, std::size_t in_h,
                                           std::size_t in_w,
                                           const snn::ConvertedStack* conv,
                                           std::vector<std::size_t> hidden,
                                           std::size_t classes,
                                           std::size_t num_shards,
                                           std::size_t step_threads)
    : ShardedEmstdpNetwork(EmstdpNetwork(opt, in_c, in_h, in_w, conv,
                                         std::move(hidden), classes),
                           num_shards, step_threads) {}

ShardedEmstdpNetwork::ShardedEmstdpNetwork(const EmstdpNetwork& proto,
                                           std::size_t num_shards,
                                           std::size_t step_threads)
    : ShardedEmstdpNetwork(proto, plan_network_shards(proto.chip(), num_shards),
                           step_threads) {}

ShardedEmstdpNetwork::ShardedEmstdpNetwork(const EmstdpNetwork& proto,
                                           loihi::ShardPlan plan,
                                           std::size_t step_threads)
    : OperationFlow(proto, [&] {
          if (proto.options().input_mode == InputMode::SpikeInsertion)
              throw std::invalid_argument(
                  "ShardedEmstdpNetwork: InputMode::SpikeInsertion is not "
                  "supported across chips (host spike insertion is not "
                  "routed; use BiasProgramming)");
          return loihi::ShardedChip(proto.chip(), std::move(plan),
                                    step_threads);
      }()) {
    // Re-seed exactly the way EmstdpNetwork's constructor does, so a
    // 1-shard split of a fresh prototype consumes identical streams.
    common::Rng rng(opt_.seed);
    chip_.seed_learning_noise(rng.next_u64() | 1);
}

}  // namespace neuro::core
