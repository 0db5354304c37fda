#include "loihi/router.hpp"

#include <algorithm>
#include <stdexcept>
#include <string>

#include "common/fixed.hpp"

namespace neuro::loihi {

namespace {

/// Deterministic per-shard / per-projection stream derivation. Index 0 maps
/// to the seed itself so a 1-shard split consumes exactly the prototype's
/// stream (bit-identity with the unsharded chip).
std::uint64_t derive_seed(std::uint64_t seed, std::uint64_t index) {
    if (index == 0) return seed;
    std::uint64_t state = seed + 0x9E3779B97F4A7C15ULL * index;
    return common::splitmix64(state);
}

}  // namespace

ShardedChip::ShardedChip(const Chip& proto, ShardPlan plan,
                         std::size_t step_threads)
    : plan_(std::move(plan)),
      limits_(proto.limits()),
      learn_seed_(derive_seed(0xC0FFEE, 0x5EEDULL)),
      step_threads_(step_threads) {
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
        chips_.emplace_back(limits_);

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

    // ---- projections: on-shard ones rebuild locally, cut ones go to the
    // router (synapses captured with their *current* weights) ---------------
    const std::size_t num_projs = proto.num_projections();
    proj_shard_.resize(num_projs);
    proj_local_.resize(num_projs);
    watch_.resize(plan_.num_shards);
    for (ProjectionId q = 0; q < num_projs; ++q) {
        ProjectionConfig cfg = proto.projection_config(q);
        std::vector<Synapse> syns = proto.projection_synapses(q);
        const std::vector<std::int32_t> live = proto.weights(q);
        for (std::size_t i = 0; i < syns.size(); ++i) syns[i].weight = live[i];

        const std::size_t ss = pop_shard_[cfg.src];
        const std::size_t ds = pop_shard_[cfg.dst];
        if (ss == ds) {
            ProjectionConfig local = cfg;
            local.src = pop_local_[cfg.src];
            local.dst = pop_local_[cfg.dst];
            // Capture the *live* rule — the prototype may have reprogrammed
            // its microcode after finalize (set_learning_rule).
            local.rule = proto.learning_rule(q);
            proj_shard_[q] = ss;
            proj_local_[q] = chips_[ss].add_projection(std::move(local),
                                                       std::move(syns));
        } else {
            if (proto.stuck_synapse_count(q) != 0)
                throw std::invalid_argument(
                    "ShardedChip: projection '" + cfg.name +
                    "' crosses shards and carries stuck-at faults, which the "
                    "router does not model");
            CrossProjection cp;
            cp.rule = proto.learning_rule(q);
            cp.src_shard = ss;
            cp.dst_shard = ds;
            cp.src_local = pop_local_[cfg.src];
            cp.dst_local = pop_local_[cfg.dst];
            cp.w = live;
            cp.eff.resize(syns.size());
            for (std::size_t i = 0; i < syns.size(); ++i)
                cp.eff[i] = static_cast<std::int32_t>(
                    static_cast<std::int64_t>(live[i]) << cfg.weight_exp);
            // CSR over the source neuron index.
            const std::size_t n_src = proto.population_size(cfg.src);
            cp.fan_begin.assign(n_src + 1, 0);
            for (const auto& sy : syns) ++cp.fan_begin[sy.src + 1];
            for (std::size_t i = 0; i < n_src; ++i)
                cp.fan_begin[i + 1] += cp.fan_begin[i];
            cp.fan.resize(syns.size());
            std::vector<std::size_t> cursor(cp.fan_begin.begin(),
                                            cp.fan_begin.end() - 1);
            for (std::size_t i = 0; i < syns.size(); ++i)
                cp.fan[cursor[syns[i].src]++] = static_cast<std::uint32_t>(i);
            cp.synapses = std::move(syns);
            cp.cfg = std::move(cfg);

            proj_shard_[q] = kCross;
            proj_local_[q] = cross_.size();
            watch_[ss].emplace_back(cp.src_local, cross_.size());
            cross_.push_back(std::move(cp));
        }
    }
    for (auto& w : watch_) std::sort(w.begin(), w.end());

    for (auto& chip : chips_) chip.finalize();

    // ---- per-compartment device state and bias registers -------------------
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
    // Stuck-at faults on on-shard projections transfer verbatim.
    for (ProjectionId q = 0; q < num_projs; ++q) {
        if (proj_shard_[q] == kCross || proto.stuck_synapse_count(q) == 0) continue;
        Chip& chip = chips_[proj_shard_[q]];
        const auto live = proto.weights(q);
        for (std::size_t i = 0; i < live.size(); ++i)
            if (proto.synapse_stuck(q, i))
                chip.set_synapse_stuck(proj_local_[q], i, live[i]);
    }

    outbox_.assign(plan_.num_shards,
                   std::vector<std::vector<RouteDelivery>>(plan_.num_shards));
    for (auto& slot : mailbox_) slot.resize(plan_.num_shards);
    spiked_scratch_.resize(plan_.num_shards);
    routed_to_.resize(plan_.num_shards);
    learn_visits_to_.resize(plan_.num_shards);
    set_phase(proto.phase());
    reset_activity();  // construction-time bias writes are not runtime I/O
}

void ShardedChip::ensure_pool() {
    if (pool_.pool) return;
    const std::size_t threads =
        step_threads_ == 0 ? chips_.size()
                           : std::min(step_threads_, chips_.size());
    pool_.pool = std::make_unique<common::ThreadPool>(threads);
}

void ShardedChip::set_phase(Phase phase) {
    for (auto& chip : chips_) chip.set_phase(phase);
}

void ShardedChip::drain_inbox(std::size_t s) {
    auto& slot = mailbox_[(now_ + 1) % kWheel][s];
    Chip& chip = chips_[s];
    for (const auto& d : slot)
        chip.deliver_external(d.dst_pop, d.dst_idx, d.weight,
                              static_cast<Port>(d.port));
    slot.clear();
}

void ShardedChip::collect_outbox(std::size_t s) {
    auto& scratch = spiked_scratch_[s];
    PopulationId current = std::numeric_limits<PopulationId>::max();
    for (const auto& [pop, ci] : watch_[s]) {
        if (pop != current) {
            scratch.clear();
            chips_[s].collect_spiked(pop, scratch);
            current = pop;
        }
        if (scratch.empty()) continue;
        const CrossProjection& cp = cross_[ci];
        auto& out = outbox_[s][cp.dst_shard];
        const auto port = static_cast<std::uint8_t>(cp.cfg.port);
        for (const std::uint32_t idx : scratch) {
            for (std::size_t k = cp.fan_begin[idx]; k < cp.fan_begin[idx + 1];
                 ++k) {
                const std::uint32_t syn = cp.fan[k];
                out.push_back({cp.synapses[syn].dst, cp.eff[syn],
                               static_cast<std::uint16_t>(cp.dst_local), port,
                               cp.synapses[syn].delay});
            }
        }
    }
}

void ShardedChip::exchange() {
    for (std::size_t src = 0; src < chips_.size(); ++src) {
        for (std::size_t dst = 0; dst < chips_.size(); ++dst) {
            auto& out = outbox_[src][dst];
            if (out.empty()) continue;
            routed_to_[dst] += out.size();
            for (const auto& d : out)
                mailbox_[(now_ + 1 + d.delay) % kWheel][dst].push_back(d);
            out.clear();
        }
    }
}

void ShardedChip::step() {
    if (chips_.size() == 1) {
        chips_[0].step();
        ++now_;
        return;
    }
    ensure_pool();
    pool_.pool->run(chips_.size(), [this](std::size_t s) {
        drain_inbox(s);
        chips_[s].step();
        collect_outbox(s);
    });
    ++now_;
    exchange();
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

void ShardedChip::apply_cross_learning(CrossProjection& cp, common::Rng* rng,
                                       std::uint64_t& visits) {
    const Chip& pre_chip = chips_[cp.src_shard];
    const Chip& post_chip = chips_[cp.dst_shard];
    const std::size_t n_pre = pre_chip.population_size(cp.src_local);
    const std::size_t n_post = post_chip.population_size(cp.dst_local);

    // Bulk-read the boundary state once (the on-chip engine reads the same
    // compartment registers directly).
    std::vector<std::int32_t> x0(n_pre), x1(n_pre), x2(n_pre);
    for (std::size_t i = 0; i < n_pre; ++i) {
        x0[i] = pre_chip.spiked(cp.src_local, i) ? 1 : 0;
        x1[i] = pre_chip.trace_x1(cp.src_local, i);
        x2[i] = pre_chip.trace_x2(cp.src_local, i);
    }
    std::vector<std::int32_t> y0(n_post), y1(n_post), y2(n_post), tag(n_post);
    for (std::size_t i = 0; i < n_post; ++i) {
        y0[i] = post_chip.spiked(cp.dst_local, i) ? 1 : 0;
        y1[i] = post_chip.trace_y1(cp.dst_local, i);
        y2[i] = post_chip.trace_y2(cp.dst_local, i);
        tag[i] = post_chip.trace_tag(cp.dst_local, i);
    }

    for (std::size_t i = 0; i < cp.synapses.size(); ++i) {
        const Synapse& syn = cp.synapses[i];
        ++visits;
        LearnContext ctx;
        ctx.x0 = x0[syn.src];
        ctx.x1 = x1[syn.src];
        ctx.x2 = x2[syn.src];
        ctx.y0 = y0[syn.dst];
        ctx.y1 = y1[syn.dst];
        ctx.y2 = y2[syn.dst];
        ctx.tag = tag[syn.dst];
        ctx.weight = cp.w[i];
        const std::int64_t dw = cp.rule.dw.evaluate(ctx, rng);
        if (dw != 0) {
            cp.w[i] = common::saturate_signed(
                static_cast<std::int64_t>(cp.w[i]) + dw, limits_.weight_bits);
            cp.eff[i] = static_cast<std::int32_t>(
                static_cast<std::int64_t>(cp.w[i]) << cp.cfg.weight_exp);
        }
    }
}

void ShardedChip::apply_learning() {
    if (chips_.size() == 1) {
        chips_[0].apply_learning();
        ++learn_epoch_;
        return;
    }
    ensure_pool();
    // On-shard plastic projections update concurrently — each shard's engine
    // consumes its own stochastic-rounding stream, so the schedule is
    // invisible to the result.
    pool_.pool->run(chips_.size(),
                    [this](std::size_t s) { chips_[s].apply_learning(); });
    ++learn_epoch_;

    // Cut plastic projections: one update pass per projection with a stream
    // derived from (seed, learning epoch, projection) — a pure function of
    // the protocol position, never of the worker that runs it.
    std::vector<std::size_t> plastic;
    for (std::size_t ci = 0; ci < cross_.size(); ++ci)
        if (cross_[ci].cfg.plastic) plastic.push_back(ci);
    if (plastic.empty()) return;
    std::vector<std::uint64_t> visits(plastic.size(), 0);
    pool_.pool->run(plastic.size(), [&](std::size_t j) {
        CrossProjection& cp = cross_[plastic[j]];
        common::Rng rng(derive_seed(
            learn_seed_ + 0x9E3779B97F4A7C15ULL * learn_epoch_, plastic[j] + 1));
        apply_cross_learning(cp, cp.cfg.stochastic_rounding ? &rng : nullptr,
                             visits[j]);
    });
    for (std::size_t j = 0; j < plastic.size(); ++j)
        learn_visits_to_[cross_[plastic[j]].dst_shard] += visits[j];
}

void ShardedChip::set_learning_rule(ProjectionId proj, LearningRule rule) {
    if (proj >= proj_shard_.size())
        throw std::invalid_argument("set_learning_rule: bad projection");
    if (proj_shard_[proj] == kCross) {
        CrossProjection& cp = cross_[proj_local_[proj]];
        if (!cp.cfg.plastic)
            throw std::logic_error("set_learning_rule: projection is not plastic");
        cp.rule = std::move(rule);
    } else {
        chips_[proj_shard_[proj]].set_learning_rule(proj_local_[proj],
                                                    std::move(rule));
    }
}

void ShardedChip::seed_learning_noise(std::uint64_t seed) {
    for (std::size_t s = 0; s < chips_.size(); ++s)
        chips_[s].seed_learning_noise(derive_seed(seed, s));
    learn_seed_ = derive_seed(seed, 0x5EEDULL);
    learn_epoch_ = 0;
}

void ShardedChip::clear_in_flight() {
    for (auto& slot : mailbox_)
        for (auto& per_dst : slot) per_dst.clear();
    for (auto& row : outbox_)
        for (auto& out : row) out.clear();
}

void ShardedChip::reset_dynamic_state() {
    for (auto& chip : chips_) chip.reset_dynamic_state();
    clear_in_flight();
}

void ShardedChip::reset_membranes() {
    for (auto& chip : chips_) chip.reset_membranes();
    // The next-step mailbox slot mirrors the destinations' pending input,
    // which a membrane reset clears; events with extra delay mirror a chip's
    // delay wheel, which it does not.
    auto& due = mailbox_[(now_ + 1) % kWheel];
    for (auto& per_dst : due)
        std::erase_if(per_dst,
                      [](const RouteDelivery& d) { return d.delay == 0; });
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

bool ShardedChip::projection_is_cut(ProjectionId proj) const {
    if (proj >= proj_shard_.size())
        throw std::invalid_argument("projection_is_cut: bad projection");
    return proj_shard_[proj] == kCross;
}

std::vector<std::int32_t> ShardedChip::weights(ProjectionId proj) const {
    if (proj >= proj_shard_.size())
        throw std::invalid_argument("weights: bad projection");
    if (proj_shard_[proj] == kCross) return cross_[proj_local_[proj]].w;
    return chips_[proj_shard_[proj]].weights(proj_local_[proj]);
}

void ShardedChip::program_weights(ProjectionId proj,
                                  const std::vector<std::int32_t>& w) {
    if (proj >= proj_shard_.size())
        throw std::invalid_argument("program_weights: bad projection");
    if (proj_shard_[proj] != kCross) {
        chips_[proj_shard_[proj]].program_weights(proj_local_[proj], w);
        return;
    }
    CrossProjection& cp = cross_[proj_local_[proj]];
    if (w.size() != cp.synapses.size())
        throw std::invalid_argument("program_weights: size mismatch for " +
                                    cp.cfg.name);
    for (const auto v : w)
        if (v != common::saturate_signed(v, limits_.weight_bits))
            throw std::invalid_argument(
                "program_weights(" + cp.cfg.name + "): weight exceeds " +
                std::to_string(limits_.weight_bits) + " bits");
    cp.w = w;
    for (std::size_t i = 0; i < w.size(); ++i)
        cp.eff[i] = static_cast<std::int32_t>(static_cast<std::int64_t>(w[i])
                                              << cp.cfg.weight_exp);
}

std::uint64_t ShardedChip::routed_spikes() const {
    std::uint64_t total = 0;
    for (const auto v : routed_to_) total += v;
    return total;
}

ActivityTotals ShardedChip::shard_activity(std::size_t s) const {
    ActivityTotals a = chips_[s].activity();
    // Cross-chip deliveries are charged at emission by the router (exactly
    // when an unsharded chip's deliver() would have counted them) and
    // attributed to the destination shard, which does the synaptic work;
    // likewise the router's cut-projection learning visits.
    a.synaptic_ops += routed_to_[s];
    a.learning_synapse_visits += learn_visits_to_[s];
    return a;
}

ActivityTotals ShardedChip::activity() const {
    ActivityTotals total{};
    for (std::size_t s = 0; s < chips_.size(); ++s) {
        const ActivityTotals a = shard_activity(s);
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
    std::fill(routed_to_.begin(), routed_to_.end(), 0);
    std::fill(learn_visits_to_.begin(), learn_visits_to_.end(), 0);
}

}  // namespace neuro::loihi
