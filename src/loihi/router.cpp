#include "loihi/router.hpp"

#include <algorithm>
#include <stdexcept>
#include <string>

#include "common/rng.hpp"

namespace neuro::loihi {

namespace {

/// Deterministic per-shard stream derivation. Index 0 maps to the seed
/// itself so a 1-shard split consumes exactly the prototype's stream
/// (bit-identity with the unsharded chip).
std::uint64_t derive_seed(std::uint64_t seed, std::uint64_t index) {
    if (index == 0) return seed;
    std::uint64_t state = seed + 0x9E3779B97F4A7C15ULL * index;
    return common::splitmix64(state);
}

}  // namespace

ShardedChip::ShardedChip(const Chip& proto, ShardPlan plan,
                         std::size_t step_threads)
    : plan_(std::move(plan)), step_threads_(step_threads) {
    if (!proto.finalized())
        throw std::logic_error("ShardedChip: prototype chip must be finalized");
    const std::size_t num_pops = proto.num_populations();
    if (plan_.shard_of.size() != num_pops)
        throw std::invalid_argument(
            "ShardedChip: plan covers " + std::to_string(plan_.shard_of.size()) +
            " populations, chip has " + std::to_string(num_pops));
    if (plan_.num_shards == 0)
        throw std::invalid_argument("ShardedChip: empty plan");

    chips_.reserve(plan_.num_shards);
    for (std::size_t s = 0; s < plan_.num_shards; ++s)
        chips_.emplace_back(proto.limits());

    // ---- populations, in prototype build order -----------------------------
    pop_shard_.resize(num_pops);
    pop_local_.resize(num_pops);
    for (PopulationId p = 0; p < num_pops; ++p) {
        const std::size_t s = plan_.shard_of[p];
        if (s >= plan_.num_shards)
            throw std::invalid_argument("ShardedChip: plan assigns population " +
                                        std::to_string(p) + " to missing shard");
        pop_shard_[p] = s;
        pop_local_[p] = chips_[s].add_population(proto.population_config(p));
    }

    // ---- every projection on its destination's shard, with the *current*
    // weights and the *live* rule (the prototype may have reprogrammed its
    // microcode after finalize); a source on another shard is read through
    // the destination's relay of it ------------------------------------------
    const auto relay_of = [&](PopulationId p, std::size_t ds) {
        for (const Relay& r : relays_)
            if (r.dst_shard == ds && r.src_shard == pop_shard_[p] &&
                r.src == pop_local_[p])
                return r.local;
        relays_.push_back(
            {pop_shard_[p], ds, pop_local_[p],
             chips_[ds].add_relay(proto.population_config(p).name + " (relay)",
                                  proto.population_size(p))});
        return relays_.back().local;
    };
    const std::size_t num_projs = proto.num_projections();
    proj_shard_.resize(num_projs);
    proj_local_.resize(num_projs);
    for (ProjectionId q = 0; q < num_projs; ++q) {
        ProjectionConfig cfg = proto.projection_config(q);
        std::vector<Synapse> syns = proto.projection_synapses(q);
        const std::vector<std::int32_t> live = proto.weights(q);
        for (std::size_t i = 0; i < syns.size(); ++i) syns[i].weight = live[i];
        const std::size_t ds = pop_shard_[cfg.dst];
        cfg.src = pop_shard_[cfg.src] == ds ? pop_local_[cfg.src]
                                            : relay_of(cfg.src, ds);
        cfg.dst = pop_local_[cfg.dst];
        cfg.rule = proto.learning_rule(q);
        proj_shard_[q] = ds;
        proj_local_[q] = chips_[ds].add_projection(std::move(cfg), std::move(syns));
    }

    for (auto& chip : chips_) chip.finalize();

    // ---- per-compartment device state, bias registers, stuck synapses ------
    for (PopulationId p = 0; p < num_pops; ++p) {
        Chip& chip = chips_[pop_shard_[p]];
        const PopulationId lp = pop_local_[p];
        const std::size_t n = proto.population_size(p);
        for (std::size_t i = 0; i < n; ++i) {
            const auto off = proto.threshold_offset(p, i);
            if (off != 0) chip.set_threshold_offset(lp, i, off);
            if (proto.compartment_dead(p, i)) chip.set_compartment_dead(lp, i, true);
        }
        const auto bias = proto.biases(p);
        if (std::any_of(bias.begin(), bias.end(),
                        [](std::int32_t b) { return b != 0; }))
            chip.set_bias(lp, bias);
    }
    for (ProjectionId q = 0; q < num_projs; ++q) {
        if (proto.stuck_synapse_count(q) == 0) continue;
        const auto live = proto.weights(q);
        for (std::size_t i = 0; i < live.size(); ++i)
            if (proto.synapse_stuck(q, i))
                chips_[proj_shard_[q]].set_synapse_stuck(proj_local_[q], i, live[i]);
    }

    set_phase(proto.phase());
    reset_activity();  // construction-time bias writes are not runtime I/O
}

void ShardedChip::for_each_shard(const std::function<void(std::size_t)>& fn) {
    if (chips_.size() == 1) {
        fn(0);
        return;
    }
    if (!pool_.pool)
        pool_.pool = std::make_unique<common::ThreadPool>(
            step_threads_ == 0 ? chips_.size()
                               : std::min(step_threads_, chips_.size()));
    pool_.pool->run(chips_.size(), fn);
}

void ShardedChip::set_phase(Phase phase) {
    for (auto& chip : chips_) chip.set_phase(phase);
}

void ShardedChip::step() {
    for_each_shard([this](std::size_t s) { chips_[s].step(); });
    for (const Relay& r : relays_)
        routed_ += chips_[r.dst_shard].relay_spikes(r.local, chips_[r.src_shard],
                                                    r.src);
}

void ShardedChip::run(std::size_t steps) {
    for (std::size_t i = 0; i < steps; ++i) step();
}

void ShardedChip::set_bias(PopulationId pop,
                           const std::vector<std::int32_t>& bias) {
    chips_[pop_shard_.at(pop)].set_bias(pop_local_[pop], bias);
}

void ShardedChip::clear_bias(PopulationId pop) {
    chips_[pop_shard_.at(pop)].clear_bias(pop_local_[pop]);
}

void ShardedChip::apply_learning() {
    for (const Relay& r : relays_)
        chips_[r.dst_shard].mirror_pre_state(r.local, chips_[r.src_shard], r.src);
    // Each shard's engine consumes its own stochastic-rounding stream, so
    // the schedule is invisible to the result.
    for_each_shard([this](std::size_t s) { chips_[s].apply_learning(); });
}

void ShardedChip::seed_learning_noise(std::uint64_t seed) {
    for (std::size_t s = 0; s < chips_.size(); ++s)
        chips_[s].seed_learning_noise(derive_seed(seed, s));
}

void ShardedChip::reset_dynamic_state() {
    for (auto& chip : chips_) chip.reset_dynamic_state();
}

void ShardedChip::reset_membranes() {
    for (auto& chip : chips_) chip.reset_membranes();
}

std::vector<std::int32_t> ShardedChip::spike_counts(PopulationId pop,
                                                    Phase phase) const {
    return chips_[pop_shard_.at(pop)].spike_counts(pop_local_[pop], phase);
}

std::vector<std::int32_t> ShardedChip::spike_counts_total(
    PopulationId pop) const {
    return chips_[pop_shard_.at(pop)].spike_counts_total(pop_local_[pop]);
}

std::int64_t ShardedChip::membrane(PopulationId pop, std::size_t idx) const {
    return chips_[pop_shard_.at(pop)].membrane(pop_local_[pop], idx);
}

std::pair<std::size_t, ProjectionId> ShardedChip::locate(
    ProjectionId proj) const {
    if (proj >= proj_shard_.size())
        throw std::invalid_argument("ShardedChip: bad projection");
    return {proj_shard_[proj], proj_local_[proj]};
}

bool ShardedChip::projection_is_cut(ProjectionId proj) const {
    const auto [s, q] = locate(proj);
    return chips_[s].is_relay(chips_[s].projection_config(q).src);
}

void ShardedChip::set_learning_rule(ProjectionId proj, LearningRule rule) {
    const auto [s, q] = locate(proj);
    chips_[s].set_learning_rule(q, std::move(rule));
}

std::vector<std::int32_t> ShardedChip::weights(ProjectionId proj) const {
    const auto [s, q] = locate(proj);
    return chips_[s].weights(q);
}

void ShardedChip::program_weights(ProjectionId proj,
                                  const std::vector<std::int32_t>& w) {
    const auto [s, q] = locate(proj);
    chips_[s].program_weights(q, w);
}

void ShardedChip::check_weights(ProjectionId proj,
                                const std::vector<std::int32_t>& w) const {
    const auto [s, q] = locate(proj);
    chips_[s].check_weights(q, w);
}

ActivityTotals ShardedChip::activity() const {
    ActivityTotals total{};
    for (const auto& chip : chips_) {
        const ActivityTotals& a = chip.activity();
        total.compartment_updates += a.compartment_updates;
        total.synaptic_ops += a.synaptic_ops;
        total.spikes += a.spikes;
        total.learning_synapse_visits += a.learning_synapse_visits;
        total.host_io_writes += a.host_io_writes;
    }
    total.steps = chips_[0].activity().steps;
    return total;
}

void ShardedChip::reset_activity() {
    for (auto& chip : chips_) chip.reset_activity();
    routed_ = 0;
}

}  // namespace neuro::loihi
