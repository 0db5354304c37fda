#include "loihi/chip.hpp"

#include <algorithm>
#include <bit>
#include <cstring>
#include <istream>
#include <ostream>
#include <stdexcept>

#include "common/fixed.hpp"
#include "obs/timer.hpp"

namespace neuro::loihi {

namespace {

// ---- vector kernels of the sweep --------------------------------------------
// Free functions over restrict-qualified lane pointers so the compiler can
// prove the lanes disjoint and autovectorize (this TU is built -O3 with a
// SIMD baseline arch, see NEURO_KERNEL_ARCH in CMakeLists.txt; the tagged
// loops are gated by tools/check_vectorization.py in CI). The arithmetic is
// the exact scalar semantics of Chip::step_compartment specialized to
// JoinOp::None populations: integer lanes only, no gather/scatter, the
// floor clamp written as a select, and the spike decision materialized into
// a byte lane consumed by the scalar epilogue.

/// The paper's IF configuration (decay_u == 4096, decay_v == 0): the current
/// clears every step, the membrane integrates perfectly — no multiplies at
/// all in the loop.
template <bool Floor, bool Refrac>
void integrate_if(std::int64_t* __restrict u, std::int64_t* __restrict v,
                  std::int64_t* __restrict pending,
                  const std::int32_t* __restrict bias,
                  const std::int64_t* __restrict vth,
                  [[maybe_unused]] std::int32_t* __restrict refr,
                  std::uint8_t* __restrict fired, std::size_t n) {
    // NEURO_VEC_HOT: dense integrate + spike-detect (IF configuration)
    for (std::size_t i = 0; i < n; ++i) {
        const std::int64_t ui = pending[i];
        pending[i] = 0;
        u[i] = ui;
        std::int64_t vi = v[i] + ui + bias[i];
        if constexpr (Floor) vi = vi < 0 ? 0 : vi;
        v[i] = vi;
        if constexpr (Refrac) {
            const std::int32_t r = refr[i];
            fired[i] = static_cast<std::uint8_t>((r == 0) & (vi >= vth[i]));
            refr[i] = r > 0 ? r - 1 : r;
        } else {
            fired[i] = static_cast<std::uint8_t>(vi >= vth[i]);
        }
    }
}

/// General 12-bit decay pair (common::decay12 semantics: truncation toward
/// zero, so the division must stay a division, not a shift).
template <bool Floor, bool Refrac>
void integrate_decay(std::int64_t* __restrict u, std::int64_t* __restrict v,
                     std::int64_t* __restrict pending,
                     const std::int32_t* __restrict bias,
                     const std::int64_t* __restrict vth,
                     [[maybe_unused]] std::int32_t* __restrict refr,
                     std::uint8_t* __restrict fired, std::size_t n,
                     std::int32_t decay_u, std::int32_t decay_v) {
    // NEURO_VEC_HOT: dense integrate + spike-detect (general decays)
    for (std::size_t i = 0; i < n; ++i) {
        const std::int64_t ui = common::decay12(u[i], decay_u) + pending[i];
        pending[i] = 0;
        u[i] = ui;
        std::int64_t vi = common::decay12(v[i], decay_v) + ui + bias[i];
        if constexpr (Floor) vi = vi < 0 ? 0 : vi;
        v[i] = vi;
        if constexpr (Refrac) {
            const std::int32_t r = refr[i];
            fired[i] = static_cast<std::uint8_t>((r == 0) & (vi >= vth[i]));
            refr[i] = r > 0 ? r - 1 : r;
        } else {
            fired[i] = static_cast<std::uint8_t>(vi >= vth[i]);
        }
    }
}

/// IF configuration with an aux join (JoinOp::GatedAdd / JoinOp::Add): the
/// aux accumulator is pulled into aux_current every step and added to the
/// drive — for GatedAdd only where the compartment spiked in phase 1 (the
/// h' derivative gate of paper eq. 11). The gate is computed as mask
/// arithmetic so the loop stays branch-free and vectorizes.
template <bool Floor, bool Refrac, bool Gated>
void integrate_if_join(std::int64_t* __restrict u, std::int64_t* __restrict v,
                       std::int64_t* __restrict pending,
                       const std::int32_t* __restrict bias,
                       const std::int64_t* __restrict vth,
                       [[maybe_unused]] std::int32_t* __restrict refr,
                       std::uint8_t* __restrict fired,
                       std::int64_t* __restrict aux_cur,
                       std::int64_t* __restrict pending_aux,
                       const std::int32_t* __restrict sp1, std::size_t n) {
    // NEURO_VEC_HOT: dense integrate + spike-detect (IF, aux join)
    for (std::size_t i = 0; i < n; ++i) {
        const std::int64_t a = pending_aux[i];
        pending_aux[i] = 0;
        aux_cur[i] = a;
        const std::int64_t ui = pending[i];
        pending[i] = 0;
        u[i] = ui;
        std::int64_t drive = ui + bias[i];
        if constexpr (Gated)
            drive += a & -static_cast<std::int64_t>(sp1[i] > 0);
        else
            drive += a;
        std::int64_t vi = v[i] + drive;
        if constexpr (Floor) vi = vi < 0 ? 0 : vi;
        v[i] = vi;
        if constexpr (Refrac) {
            const std::int32_t r = refr[i];
            fired[i] = static_cast<std::uint8_t>((r == 0) & (vi >= vth[i]));
            refr[i] = r > 0 ? r - 1 : r;
        } else {
            fired[i] = static_cast<std::uint8_t>(vi >= vth[i]);
        }
    }
}

/// Frozen-phase aux pull for joined populations: the soma is power-gated
/// but the join input still drains into aux_current, exactly as in the
/// scalar step (the gate observes deliveries while frozen).
void pull_aux(std::int64_t* __restrict aux_cur,
              std::int64_t* __restrict pending_aux, std::size_t n) {
    // (deliberately untagged for the vectorization gate: gcc distributes
    // this into memcpy + memset, which beats a vector loop and leaves no
    // loop to report)
    for (std::size_t i = 0; i < n; ++i) {
        aux_cur[i] = pending_aux[i];
        pending_aux[i] = 0;
    }
}

}  // namespace

Chip::Chip(ChipLimits limits)
    : limits_(limits), s_(std::make_shared<Structure>()) {}

void Chip::detach_structure() {
    if (s_.use_count() != 1) s_ = std::make_shared<Structure>(*s_);
}

PopulationId Chip::add_population(PopulationConfig cfg) {
    if (s_->num_relays != 0)
        throw std::logic_error("add_population: relays follow every population");
    return push_population(std::move(cfg));
}

PopulationId Chip::add_relay(std::string name, std::size_t size) {
    PopulationConfig cfg;
    cfg.name = std::move(name);
    cfg.size = size;
    const PopulationId p = push_population(std::move(cfg));
    ++s_->num_relays;
    return p;
}

bool Chip::is_relay(PopulationId pop) const {
    return pop >= s_->pops.size() - s_->num_relays && pop < s_->pops.size();
}

PopulationId Chip::push_population(PopulationConfig cfg) {
    check_finalized(false);
    detach_structure();
    if (cfg.size == 0) throw std::invalid_argument("add_population: empty population");
    Population p;
    p.cfg = std::move(cfg);
    p.first = bank_.size();
    bank_.resize(bank_.size() + p.cfg.size);
    s_->pop_of.resize(bank_.size(), static_cast<std::uint16_t>(s_->pops.size()));
    vth_offset_.resize(bank_.size(), 0);
    dead_.resize(bank_.size(), 0);
    pop_dead_.push_back(0);
    pop_activity_.emplace_back();
    s_->pops.push_back(std::move(p));
    return s_->pops.size() - 1;
}

ProjectionId Chip::add_projection(ProjectionConfig cfg, std::vector<Synapse> synapses) {
    check_finalized(false);
    detach_structure();
    if (cfg.src >= s_->pops.size() || cfg.dst >= s_->pops.size())
        throw std::invalid_argument("add_projection: bad population id");
    const auto src_n = s_->pops[cfg.src].cfg.size;
    const auto dst_n = s_->pops[cfg.dst].cfg.size;
    for (const auto& s : synapses) {
        if (s.src >= src_n || s.dst >= dst_n)
            throw std::invalid_argument("add_projection(" + cfg.name +
                                        "): synapse index out of range");
        if (s.weight != common::saturate_signed(s.weight, limits_.weight_bits))
            throw std::invalid_argument("add_projection(" + cfg.name +
                                        "): weight exceeds " +
                                        std::to_string(limits_.weight_bits) + " bits");
        if (s.delay > 62)
            throw std::invalid_argument("add_projection(" + cfg.name +
                                        "): delay exceeds 62 steps");
    }
    Projection p;
    p.cfg = std::move(cfg);
    p.synapses = std::move(synapses);
    s_->projs.push_back(std::move(p));
    stuck_.emplace_back();
    return s_->projs.size() - 1;
}

void Chip::finalize() {
    check_finalized(false);
    detach_structure();

    // ---- core mapping (Operation Flow 1, layer at a time) -----------------
    std::vector<LayerMapSpec> specs;
    specs.reserve(s_->pops.size());
    for (std::size_t pi = 0; pi < s_->pops.size(); ++pi) {
        const auto& pop = s_->pops[pi];
        LayerMapSpec spec;
        spec.name = pop.cfg.name;
        spec.logical_neurons = is_relay(pi) ? 0 : pop.cfg.size;  // no core
        spec.compartments_per_neuron =
            pop.cfg.compartment.join == JoinOp::None ? 1 : 2;
        std::size_t fan_in = 0;
        std::size_t fan_out = 0;
        std::size_t plastic_in = 0;
        std::size_t sources = 0;
        for (const auto& proj : s_->projs) {
            if (proj.cfg.dst == pi) {
                fan_in += proj.synapses.size();
                sources += s_->pops[proj.cfg.src].cfg.size;
                if (proj.cfg.plastic) plastic_in += proj.synapses.size();
            }
            if (proj.cfg.src == pi) fan_out += proj.synapses.size();
        }
        spec.distinct_sources = sources;
        spec.fan_in_per_neuron = (fan_in + pop.cfg.size - 1) / pop.cfg.size;
        spec.fan_out_per_neuron = (fan_out + pop.cfg.size - 1) / pop.cfg.size;
        spec.plastic_fan_in_per_neuron = (plastic_in + pop.cfg.size - 1) / pop.cfg.size;
        spec.neurons_per_core = pop.cfg.neurons_per_core;
        specs.push_back(std::move(spec));
    }
    s_->mapping = map_layers(specs, limits_);

    // ---- fan-out tables & weight image -------------------------------------
    std::vector<std::size_t> degree(bank_.size(), 0);
    for (const auto& proj : s_->projs)
        for (const auto& s : proj.synapses)
            ++degree[s_->pops[proj.cfg.src].first + s.src];

    s_->fanout_begin.assign(bank_.size() + 1, 0);
    for (std::size_t c = 0; c < bank_.size(); ++c)
        s_->fanout_begin[c + 1] = s_->fanout_begin[c] + degree[c];
    s_->fanout.resize(s_->fanout_begin.back());

    img_ = std::make_shared<Weights>();
    img_->w.resize(s_->projs.size());
    img_->eff.resize(s_->fanout_begin.back());

    std::vector<std::size_t> cursor(s_->fanout_begin.begin(),
                                    s_->fanout_begin.end() - 1);
    for (std::size_t pi = 0; pi < s_->projs.size(); ++pi) {
        auto& proj = s_->projs[pi];
        auto& w = img_->w[pi];
        w.reserve(proj.synapses.size());
        proj.fanout_slot.reserve(proj.synapses.size());
        for (const auto& s : proj.synapses) {
            const CompartmentId src = s_->pops[proj.cfg.src].first + s.src;
            const CompartmentId dst = s_->pops[proj.cfg.dst].first + s.dst;
            FanoutEntry e;
            e.dst = static_cast<std::uint32_t>(dst);
            e.port = static_cast<std::uint8_t>(proj.cfg.port);
            e.delay = s.delay;
            const std::size_t slot = cursor[src]++;
            proj.fanout_slot.push_back(slot);
            s_->fanout[slot] = e;
            w.push_back(s.weight);
            img_->eff[slot] = static_cast<std::int32_t>(
                static_cast<std::int64_t>(s.weight) << proj.cfg.weight_exp);
        }
        if (proj.cfg.plastic) s_->has_plastic = true;
    }

    // ---- delivery run segmentation -----------------------------------------
    // Compress each source's CSR span into contiguous / generic segments
    // (see FanoutRun). Runs shorter than kMinRun are not worth the vector
    // loop's setup and stay in the surrounding generic segment.
    constexpr std::size_t kMinRun = 4;
    s_->run_begin.assign(bank_.size() + 1, 0);
    s_->runs.clear();
    for (std::size_t c = 0; c < bank_.size(); ++c) {
        const std::size_t begin = s_->fanout_begin[c];
        const std::size_t end = s_->fanout_begin[c + 1];
        std::size_t k = begin;
        while (k < end) {
            // Longest contiguous candidate starting at k.
            std::size_t j = k;
            if (s_->fanout[k].delay == 0) {
                while (j + 1 < end && s_->fanout[j + 1].delay == 0 &&
                       s_->fanout[j + 1].port == s_->fanout[k].port &&
                       s_->fanout[j + 1].dst == s_->fanout[j].dst + 1)
                    ++j;
                ++j;
            }
            if (j - k >= kMinRun) {
                FanoutRun run;
                run.dst0 = s_->fanout[k].dst;
                run.slot0 = static_cast<std::uint32_t>(k);
                run.len = static_cast<std::uint32_t>(j - k);
                run.port = s_->fanout[k].port;
                run.contiguous = 1;
                s_->runs.push_back(run);
                k = j;
                continue;
            }
            // Extend (or open) a generic segment by one entry. The run must
            // already belong to this compartment (runs.size() > run_begin[c])
            // — slots are contiguous across compartments, so slot adjacency
            // alone would merge spans across source boundaries.
            if (s_->runs.size() > s_->run_begin[c] &&
                s_->runs.back().contiguous == 0 &&
                s_->runs.back().slot0 + s_->runs.back().len == k)
                ++s_->runs.back().len;
            else {
                FanoutRun run;
                run.slot0 = static_cast<std::uint32_t>(k);
                run.len = 1;
                run.contiguous = 0;
                s_->runs.push_back(run);
            }
            ++k;
        }
        s_->run_begin[c + 1] = s_->runs.size();
    }

    rules_.resize(s_->projs.size());
    for (std::size_t pi = 0; pi < s_->projs.size(); ++pi)
        rules_[pi] = s_->projs[pi].cfg.rule;

    // ---- sweep bookkeeping -------------------------------------------------
    s_->pop_vec_ok.assign(s_->pops.size(), 0);
    for (std::size_t pi = 0; pi < s_->pops.size(); ++pi) {
        const CompartmentConfig& cfg = s_->pops[pi].cfg.compartment;
        const bool decays = cfg.pre_trace.decay != 0 || cfg.post_trace.decay != 0 ||
                            cfg.pre_trace2.decay != 0 ||
                            cfg.post_trace2.decay != 0 || cfg.tag_trace.decay != 0;
        // Vector-sweep kind: 0 = scalar only, 1 = plain lanes, 2/3 = IF
        // lanes with a GatedAdd/Add aux join. Decaying traces force scalar
        // order (they draw from the shared rounding RNG per compartment);
        // AndAuxActive stays scalar for its sticky gate bit; the join
        // kernels are specialized to the IF configuration.
        const bool if_cfg = cfg.decay_u == 4096 && cfg.decay_v == 0;
        std::uint8_t kind = 0;
        if (!decays) {
            if (cfg.join == JoinOp::None)
                kind = 1;
            else if (cfg.join == JoinOp::GatedAdd && if_cfg)
                kind = 2;
            else if (cfg.join == JoinOp::Add && if_cfg)
                kind = 3;
        }
        s_->pop_vec_ok[pi] = kind;
    }
    vth_eff_.resize(bank_.size());
    for (std::size_t c = 0; c < bank_.size(); ++c)
        vth_eff_[c] = std::max<std::int64_t>(
            1, static_cast<std::int64_t>(
                   s_->pops[s_->pop_of[c]].cfg.compartment.vth) +
                   vth_offset_[c]);
    fired_.assign(bank_.size(), 0);
    pop_dead_.assign(s_->pops.size(), 0);
    for (std::size_t c = 0; c < bank_.size(); ++c)
        if (dead_[c] != 0) ++pop_dead_[s_->pop_of[c]];

    finalized_ = true;
}

void Chip::set_bias(PopulationId pop, const std::vector<std::int32_t>& bias) {
    if (pop >= s_->pops.size()) throw std::invalid_argument("set_bias: bad population");
    if (bias.size() != s_->pops[pop].cfg.size)
        throw std::invalid_argument("set_bias: size mismatch for " +
                                    s_->pops[pop].cfg.name);
    const CompartmentId base = s_->pops[pop].first;
    for (std::size_t i = 0; i < bias.size(); ++i) bank_.bias[base + i] = bias[i];
    activity_.host_io_writes += bias.size();
}

void Chip::clear_bias(PopulationId pop) {
    if (pop >= s_->pops.size()) throw std::invalid_argument("clear_bias: bad population");
    const CompartmentId base = s_->pops[pop].first;
    for (std::size_t i = 0; i < s_->pops[pop].cfg.size; ++i)
        bank_.bias[base + i] = 0;
}

void Chip::tick_traces(CompartmentId c, const CompartmentConfig& cfg) {
    trace_tick(bank_.x1[c], cfg.pre_trace, &trace_rng_);
    trace_tick(bank_.y1[c], cfg.post_trace, &trace_rng_);
    trace_tick(bank_.x2[c], cfg.pre_trace2, &trace_rng_);
    trace_tick(bank_.y2[c], cfg.post_trace2, &trace_rng_);
    trace_tick(bank_.tag[c], cfg.tag_trace, &trace_rng_);
}

void Chip::insert_spike(PopulationId pop, std::size_t idx) {
    check_finalized(true);
    ++activity_.host_io_writes;
    const CompartmentId c = global_id(pop, idx);
    // The host write happens either way, but a dead unit relays nothing.
    if (dead_[c] != 0) return;
    // Host-inserted spikes drive the same trace machinery as locally
    // generated ones: on silicon the pre-trace lives with the synapse at the
    // destination core and is updated by the incoming spike event no matter
    // where it originated. Spike counters are updated too so probes and the
    // learning rule see a consistent history.
    const CompartmentConfig& cfg = s_->pops[pop].cfg.compartment;
    if (phase_ == Phase::One)
        ++bank_.spikes_phase1[c];
    else
        ++bank_.spikes_phase2[c];
    trace_on_spike(bank_.x1[c], cfg.pre_trace, phase_);
    trace_on_spike(bank_.y1[c], cfg.post_trace, phase_);
    trace_on_spike(bank_.x2[c], cfg.pre_trace2, phase_);
    trace_on_spike(bank_.y2[c], cfg.post_trace2, phase_);
    trace_on_spike(bank_.tag[c], cfg.tag_trace, phase_);
    ++activity_.spikes;
    ++pop_activity_[pop].spikes;
    if (raster_pop_ && s_->pop_of[c] == *raster_pop_)
        raster_.emplace_back(now_ + 1,  // delivered with the next step
                             static_cast<std::uint32_t>(idx));
    const std::size_t synops = deliver(c);
    activity_.synaptic_ops += synops;
    pop_activity_[pop].synaptic_ops += synops;
}

void Chip::deliver_span(std::size_t b, std::size_t e) {
    const FanoutEntry* fo = s_->fanout.data();
    const std::int32_t* eff = img_->eff.data();
    for (std::size_t k = b; k < e; ++k) {
        const FanoutEntry& entry = fo[k];
        if (entry.delay != 0) {
            // Extra latency: park the event on the wheel; it is drained at
            // the start of step now_ + 1 + delay.
            wheel_[(now_ + 1 + entry.delay) % kWheel].push_back(
                {entry.dst, eff[k], entry.port});
            continue;
        }
        if (static_cast<Port>(entry.port) == Port::Soma)
            bank_.pending_soma[entry.dst] += eff[k];
        else
            bank_.pending_aux[entry.dst] += eff[k];
    }
}

std::size_t Chip::deliver(CompartmentId src) {
    if (vector_sweep_) {
        const FanoutRun* runs = s_->runs.data();
        const std::size_t rb = s_->run_begin[src];
        const std::size_t re = s_->run_begin[src + 1];
        const std::int32_t* eff = img_->eff.data();
        for (std::size_t r = rb; r < re; ++r) {
            const FanoutRun& run = runs[r];
            if (run.contiguous != 0) {
                std::int64_t* __restrict p =
                    (static_cast<Port>(run.port) == Port::Soma
                         ? bank_.pending_soma.data()
                         : bank_.pending_aux.data()) +
                    run.dst0;
                const std::int32_t* __restrict w = eff + run.slot0;
                const std::size_t len = run.len;
                // NEURO_VEC_HOT: batched synaptic accumulation over one run
                for (std::size_t j = 0; j < len; ++j) p[j] += w[j];
            } else {
                deliver_span(run.slot0, run.slot0 + run.len);
            }
        }
    } else {
        deliver_span(s_->fanout_begin[src], s_->fanout_begin[src + 1]);
    }
    return s_->fanout_begin[src + 1] - s_->fanout_begin[src];
}

void Chip::step() {
    check_finalized(true);
    ++now_;
    ++activity_.steps;

    // Deliveries whose delay expires this step.
    auto& due = wheel_[now_ % kWheel];
    for (const auto& d : due) {
        if (static_cast<Port>(d.port) == Port::Soma)
            bank_.pending_soma[d.dst] += d.weight;
        else
            bank_.pending_aux[d.dst] += d.weight;
    }
    due.clear();

    // Pass 1: every population, in ascending order (the trace-decay RNG
    // stream depends on it). Phase timers wrap whole passes — never the
    // tagged vector loops — so the clock reads stay out of autovectorized
    // code (two reads per pass when enabled, one relaxed load when not).
    // The sweep stops at the first relay; the relays' spike flags (set
    // only for learning, by mirror_pre_state) clear so pass 2 skips them.
    {
        obs::Timer t(phase_times_.sweep_ns);
        const std::size_t native = s_->pops.size() - s_->num_relays;
        if (native < s_->pops.size())
            bank_.spiked.clear_range(s_->pops[native].first, bank_.size());
        for (PopulationId p = 0; p < native; ++p) {
            const Population& pop = s_->pops[p];
            const std::size_t b = pop.first;
            const std::size_t e = b + pop.cfg.size;
            // The population's share of the totals is their growth over its
            // own sweep: two adds per population, none per compartment.
            const std::uint64_t updates0 = activity_.compartment_updates;
            const std::uint64_t spikes0 = activity_.spikes;
            if (vector_sweep_ && s_->pop_vec_ok[p] != 0 && pop_dead_[p] == 0)
                sweep_pop_vector(p, b, e);
            else
                for (std::size_t c = b; c < e; ++c) step_compartment(c);
            pop_activity_[p].compartment_updates +=
                activity_.compartment_updates - updates0;
            pop_activity_[p].spikes += activity_.spikes - spikes0;
        }
    }
    // Pass 2: deliver this step's spikes (visible at the next step), in
    // ascending compartment order via the packed spike bitset. Populations
    // are contiguous id ranges, so synaptic ops are summed in a register
    // and charged once per population that spiked.
    obs::Timer t(phase_times_.accum_ns);
    const std::uint64_t* words = bank_.spiked.words();
    const std::size_t nw = bank_.spiked.word_count();
    const std::uint16_t* pop_of = s_->pop_of.data();
    std::uint16_t pop = 0;
    std::uint64_t synops = 0;
    const auto charge = [&] {
        activity_.synaptic_ops += synops;
        pop_activity_[pop].synaptic_ops += synops;
        synops = 0;
    };
    for (std::size_t wi = 0; wi < nw; ++wi) {
        std::uint64_t bits = words[wi];
        while (bits != 0) {
            const std::size_t c = (wi << 6) + static_cast<std::size_t>(std::countr_zero(bits));
            if (pop_of[c] != pop) {
                charge();
                pop = pop_of[c];
            }
            synops += deliver(c);
            bits &= bits - 1;
        }
    }
    if (synops != 0) charge();
}

// Pass 1 physics of one compartment: integrate and decide the spike.
// Deliveries are queued in pass 2 so the step is order-independent
// (one-step synaptic latency, as on silicon where spikes propagate between
// timestep barriers).
void Chip::step_compartment(CompartmentId c) {
    const CompartmentConfig& cfg = s_->pops[s_->pop_of[c]].cfg.compartment;
    bank_.spiked.clear(c);

    if (dead_[c] != 0) {
        // A dead unit sinks whatever arrives and produces nothing.
        bank_.pending_soma[c] = 0;
        bank_.pending_aux[c] = 0;
        return;
    }

    // Aux-port deliveries are handled even while the soma is frozen so
    // that the h' gate can observe phase-1 forward activity.
    if (cfg.join == JoinOp::AndAuxActive) {
        if (bank_.pending_aux[c] != 0) bank_.aux_active.set(c);
        bank_.pending_aux[c] = 0;
    } else if (cfg.join == JoinOp::GatedAdd || cfg.join == JoinOp::Add) {
        bank_.aux_current[c] = bank_.pending_aux[c];
        bank_.pending_aux[c] = 0;
    }

    const bool frozen = (phase_ == Phase::One) && !cfg.active_in_phase1;
    if (frozen) {
        // A frozen compartment neither integrates nor spikes; current
        // that would have arrived is dropped (the population is power-
        // gated during this phase).
        bank_.pending_soma[c] = 0;
        tick_traces(c, cfg);
        return;
    }

    ++activity_.compartment_updates;

    const std::int64_t u =
        common::decay12(bank_.u[c], cfg.decay_u) + bank_.pending_soma[c];
    bank_.u[c] = u;
    bank_.pending_soma[c] = 0;

    std::int64_t drive = u + bank_.bias[c];
    if ((cfg.join == JoinOp::GatedAdd && bank_.spikes_phase1[c] > 0) ||
        cfg.join == JoinOp::Add)
        drive += bank_.aux_current[c];
    std::int64_t v = common::decay12(bank_.v[c], cfg.decay_v) + drive;
    if (cfg.floor_at_zero && v < 0) v = 0;
    bank_.v[c] = v;

    if (bank_.refractory_left[c] > 0) {
        --bank_.refractory_left[c];
        tick_traces(c, cfg);
        return;
    }

    if (v >= vth_eff_[c]) {
        // AND-join: the threshold crossing is consumed either way, but
        // the outgoing spike is emitted only if the aux gate is open.
        const bool gate_open =
            cfg.join != JoinOp::AndAuxActive || bank_.aux_active.get(c);
        if (cfg.soft_reset)
            bank_.v[c] = v - vth_eff_[c];
        else
            bank_.v[c] = 0;
        bank_.refractory_left[c] = cfg.refractory;
        if (gate_open) {
            bank_.spiked.set(c);
            if (phase_ == Phase::One)
                ++bank_.spikes_phase1[c];
            else
                ++bank_.spikes_phase2[c];
            trace_on_spike(bank_.x1[c], cfg.pre_trace, phase_);
            trace_on_spike(bank_.y1[c], cfg.post_trace, phase_);
            trace_on_spike(bank_.x2[c], cfg.pre_trace2, phase_);
            trace_on_spike(bank_.y2[c], cfg.post_trace2, phase_);
            trace_on_spike(bank_.tag[c], cfg.tag_trace, phase_);
            ++activity_.spikes;
            if (raster_pop_ && s_->pop_of[c] == *raster_pop_)
                raster_.emplace_back(now_,
                                     static_cast<std::uint32_t>(
                                         c - s_->pops[*raster_pop_].first));
        }
    }
    tick_traces(c, cfg);
}

void Chip::fire_compartment(CompartmentId c, const CompartmentConfig& cfg) {
    // Vector-path populations never use JoinOp::AndAuxActive, so the aux
    // gate is always open and every threshold crossing is an emitted spike.
    const std::int64_t vth_eff = vth_eff_[c];
    if (cfg.soft_reset)
        bank_.v[c] -= vth_eff;
    else
        bank_.v[c] = 0;
    bank_.refractory_left[c] = cfg.refractory;
    bank_.spiked.set(c);
    if (phase_ == Phase::One)
        ++bank_.spikes_phase1[c];
    else
        ++bank_.spikes_phase2[c];
    trace_on_spike(bank_.x1[c], cfg.pre_trace, phase_);
    trace_on_spike(bank_.y1[c], cfg.post_trace, phase_);
    trace_on_spike(bank_.x2[c], cfg.pre_trace2, phase_);
    trace_on_spike(bank_.y2[c], cfg.post_trace2, phase_);
    trace_on_spike(bank_.tag[c], cfg.tag_trace, phase_);
    ++activity_.spikes;
    if (raster_pop_ && s_->pop_of[c] == *raster_pop_)
        raster_.emplace_back(
            now_, static_cast<std::uint32_t>(c - s_->pops[*raster_pop_].first));
}

void Chip::sweep_pop_vector(PopulationId p, std::size_t b, std::size_t e) {
    const CompartmentConfig& cfg = s_->pops[p].cfg.compartment;
    const std::uint8_t kind = s_->pop_vec_ok[p];
    const std::size_t n = e - b;
    bank_.spiked.clear_range(b, e);

    std::int64_t* pending = bank_.pending_soma.data() + b;
    std::int64_t* aux_cur = bank_.aux_current.data() + b;
    std::int64_t* pend_aux = bank_.pending_aux.data() + b;
    if ((phase_ == Phase::One) && !cfg.active_in_phase1) {
        // Frozen population: drop pending input (joined populations still
        // pull the aux port — the gate observes phase-1 traffic); the
        // pure-counter traces of a vector-eligible population do not tick
        // (decay == 0), and a frozen compartment counts no update.
        if (kind != 1) pull_aux(aux_cur, pend_aux, n);
        std::fill_n(pending, n, std::int64_t{0});
        return;
    }
    activity_.compartment_updates += n;

    std::int64_t* u = bank_.u.data() + b;
    std::int64_t* v = bank_.v.data() + b;
    const std::int32_t* bias = bank_.bias.data() + b;
    const std::int64_t* vth = vth_eff_.data() + b;
    std::int32_t* refr = bank_.refractory_left.data() + b;
    std::uint8_t* fired = fired_.data() + b;

    if (kind == 2 || kind == 3) {
        const std::int32_t* sp1 = bank_.spikes_phase1.data() + b;
        const int jsel = (kind == 2 ? 4 : 0) | (cfg.floor_at_zero ? 2 : 0) |
                         (cfg.refractory > 0 ? 1 : 0);
        switch (jsel) {
            case 0: integrate_if_join<false, false, false>(
                        u, v, pending, bias, vth, refr, fired, aux_cur,
                        pend_aux, sp1, n);
                    break;
            case 1: integrate_if_join<false, true, false>(
                        u, v, pending, bias, vth, refr, fired, aux_cur,
                        pend_aux, sp1, n);
                    break;
            case 2: integrate_if_join<true, false, false>(
                        u, v, pending, bias, vth, refr, fired, aux_cur,
                        pend_aux, sp1, n);
                    break;
            case 3: integrate_if_join<true, true, false>(
                        u, v, pending, bias, vth, refr, fired, aux_cur,
                        pend_aux, sp1, n);
                    break;
            case 4: integrate_if_join<false, false, true>(
                        u, v, pending, bias, vth, refr, fired, aux_cur,
                        pend_aux, sp1, n);
                    break;
            case 5: integrate_if_join<false, true, true>(
                        u, v, pending, bias, vth, refr, fired, aux_cur,
                        pend_aux, sp1, n);
                    break;
            case 6: integrate_if_join<true, false, true>(
                        u, v, pending, bias, vth, refr, fired, aux_cur,
                        pend_aux, sp1, n);
                    break;
            default: integrate_if_join<true, true, true>(
                         u, v, pending, bias, vth, refr, fired, aux_cur,
                         pend_aux, sp1, n);
                     break;
        }
        fire_epilogue(b, e, cfg);
        return;
    }

    const bool if_cfg = cfg.decay_u == 4096 && cfg.decay_v == 0;
    const int sel = (if_cfg ? 4 : 0) | (cfg.floor_at_zero ? 2 : 0) |
                    (cfg.refractory > 0 ? 1 : 0);
    switch (sel) {
        case 0: integrate_decay<false, false>(u, v, pending, bias, vth, refr,
                                              fired, n, cfg.decay_u, cfg.decay_v);
                break;
        case 1: integrate_decay<false, true>(u, v, pending, bias, vth, refr,
                                             fired, n, cfg.decay_u, cfg.decay_v);
                break;
        case 2: integrate_decay<true, false>(u, v, pending, bias, vth, refr,
                                             fired, n, cfg.decay_u, cfg.decay_v);
                break;
        case 3: integrate_decay<true, true>(u, v, pending, bias, vth, refr,
                                            fired, n, cfg.decay_u, cfg.decay_v);
                break;
        case 4: integrate_if<false, false>(u, v, pending, bias, vth, refr,
                                           fired, n);
                break;
        case 5: integrate_if<false, true>(u, v, pending, bias, vth, refr,
                                          fired, n);
                break;
        case 6: integrate_if<true, false>(u, v, pending, bias, vth, refr,
                                          fired, n);
                break;
        default: integrate_if<true, true>(u, v, pending, bias, vth, refr,
                                          fired, n);
                 break;
    }

    fire_epilogue(b, e, cfg);
}

// Scalar epilogue over the fired compartments, ascending (spikes are
// sparse; whole zero words of the fired lane are skipped eight at a
// time). Bookkeeping order per spike matches step_compartment exactly.
void Chip::fire_epilogue(std::size_t b, std::size_t e,
                         const CompartmentConfig& cfg) {
    std::size_t c = b;
    while (c < e) {
        if ((c & 7) == 0 && c + 8 <= e) {
            std::uint64_t block;
            std::memcpy(&block, fired_.data() + c, sizeof(block));
            if (block == 0) {
                c += 8;
                continue;
            }
        }
        if (fired_[c] != 0) fire_compartment(c, cfg);
        ++c;
    }
}

void Chip::run(std::size_t steps) {
    for (std::size_t i = 0; i < steps; ++i) step();
}

void Chip::detach_weights() {
    if (img_.use_count() != 1) img_ = std::make_shared<Weights>(*img_);
}

void Chip::apply_learning() {
    check_finalized(true);
    if (s_->has_plastic) detach_weights();
    for (std::size_t pi = 0; pi < s_->projs.size(); ++pi) {
        const auto& proj = s_->projs[pi];
        if (!proj.cfg.plastic) continue;
        auto& w = img_->w[pi];
        const auto& stuck = stuck_[pi];
        const CompartmentId src_base = s_->pops[proj.cfg.src].first;
        const CompartmentId dst_base = s_->pops[proj.cfg.dst].first;
        for (std::size_t i = 0; i < proj.synapses.size(); ++i) {
            const Synapse& syn = proj.synapses[i];
            ++activity_.learning_synapse_visits;
            if (!stuck.empty() && stuck[i] != 0) continue;
            const CompartmentId pre = src_base + syn.src;
            const CompartmentId post = dst_base + syn.dst;
            LearnContext ctx;
            ctx.x0 = bank_.spiked.get(pre) ? 1 : 0;
            ctx.x1 = bank_.x1[pre];
            ctx.x2 = bank_.x2[pre];
            ctx.y0 = bank_.spiked.get(post) ? 1 : 0;
            ctx.y1 = bank_.y1[post];
            ctx.y2 = bank_.y2[post];
            ctx.tag = bank_.tag[post];
            ctx.weight = w[i];
            const std::int64_t dw = rules_[pi].dw.evaluate(
                ctx, proj.cfg.stochastic_rounding ? &learn_rng_ : nullptr);
            if (dw != 0) {
                w[i] = common::saturate_signed(
                    static_cast<std::int64_t>(w[i]) + dw, limits_.weight_bits);
                // Propagate into the delivery table (same synaptic memory on
                // silicon; two views of it in the simulator).
                img_->eff[proj.fanout_slot[i]] = static_cast<std::int32_t>(
                    static_cast<std::int64_t>(w[i]) << proj.cfg.weight_exp);
            }
        }
    }
}

void Chip::set_learning_rule(ProjectionId proj, LearningRule rule) {
    if (proj >= s_->projs.size())
        throw std::invalid_argument("set_learning_rule: bad projection");
    if (!s_->projs[proj].cfg.plastic)
        throw std::logic_error("set_learning_rule: projection is not plastic");
    if (finalized_) {
        rules_[proj] = std::move(rule);
    } else {
        detach_structure();
        s_->projs[proj].cfg.rule = std::move(rule);
    }
}

void Chip::reset_dynamic_state() {
    bank_.reset_dynamic();
    for (auto& slot : wheel_) slot.clear();
}

void Chip::reset_membranes() {
    bank_.reset_membranes();
}

void Chip::set_threshold_offset(PopulationId pop, std::size_t idx,
                                std::int32_t offset) {
    const CompartmentId c = global_id(pop, idx);
    vth_offset_[c] = offset;
    if (finalized_)
        vth_eff_[c] = std::max<std::int64_t>(
            1, static_cast<std::int64_t>(
                   s_->pops[pop].cfg.compartment.vth) + offset);
}

std::int32_t Chip::threshold_offset(PopulationId pop, std::size_t idx) const {
    return vth_offset_[global_id(pop, idx)];
}

void Chip::set_compartment_dead(PopulationId pop, std::size_t idx, bool dead) {
    const CompartmentId c = global_id(pop, idx);
    const bool was = dead_[c] != 0;
    dead_[c] = dead ? 1 : 0;
    if (!finalized_ || was == dead) return;  // finalize (re)derives the counts
    if (dead)
        ++pop_dead_[pop];
    else
        --pop_dead_[pop];
}

bool Chip::compartment_dead(PopulationId pop, std::size_t idx) const {
    return dead_[global_id(pop, idx)] != 0;
}

void Chip::set_synapse_stuck(ProjectionId proj, std::size_t syn,
                             std::int32_t value) {
    if (proj >= s_->projs.size())
        throw std::invalid_argument("set_synapse_stuck: bad projection");
    if (!finalized_) detach_structure();  // the builder weight is written below
    auto& p = s_->projs[proj];
    if (syn >= p.synapses.size())
        throw std::invalid_argument("set_synapse_stuck: bad synapse index");
    if (stuck_[proj].empty()) stuck_[proj].assign(p.synapses.size(), 0);
    stuck_[proj][syn] = 1;
    const std::int32_t w = common::saturate_signed(value, limits_.weight_bits);
    if (finalized_) {
        detach_weights();
        img_->w[proj][syn] = w;
        img_->eff[p.fanout_slot[syn]] = static_cast<std::int32_t>(
            static_cast<std::int64_t>(w) << p.cfg.weight_exp);
    } else {
        p.synapses[syn].weight = w;
    }
}

bool Chip::synapse_stuck(ProjectionId proj, std::size_t syn) const {
    if (proj >= s_->projs.size())
        throw std::invalid_argument("synapse_stuck: bad projection");
    if (syn >= s_->projs[proj].synapses.size())
        throw std::invalid_argument("synapse_stuck: bad synapse index");
    return !stuck_[proj].empty() && stuck_[proj][syn] != 0;
}

std::size_t Chip::stuck_synapse_count(ProjectionId proj) const {
    if (proj >= s_->projs.size())
        throw std::invalid_argument("stuck_synapse_count: bad projection");
    std::size_t n = 0;
    for (const auto f : stuck_[proj]) n += f;
    return n;
}

void Chip::check_relay(PopulationId relay, const Chip& src,
                       PopulationId src_pop) const {
    check_finalized(true);
    if (!is_relay(relay) || src.population_size(src_pop) != s_->pops[relay].cfg.size)
        throw std::invalid_argument("relay: not a relay of that population");
}

std::size_t Chip::relay_spikes(PopulationId relay, const Chip& src,
                               PopulationId src_pop) {
    check_relay(relay, src, src_pop);
    const std::size_t n = s_->pops[relay].cfg.size;
    const CompartmentId base = s_->pops[relay].first;
    const CompartmentId src_base = src.s_->pops[src_pop].first;
    std::size_t spikes = 0;
    std::uint64_t synops = 0;
    for (std::size_t i = 0; i < n; ++i) {
        if (!src.bank_.spiked.get(src_base + i)) continue;
        ++spikes;
        synops += deliver(base + i);
    }
    activity_.synaptic_ops += synops;
    pop_activity_[relay].synaptic_ops += synops;
    return spikes;
}

void Chip::mirror_pre_state(PopulationId relay, const Chip& src,
                            PopulationId src_pop) {
    check_relay(relay, src, src_pop);
    const std::size_t n = s_->pops[relay].cfg.size;
    const CompartmentId base = s_->pops[relay].first;
    const CompartmentId src_base = src.s_->pops[src_pop].first;
    for (std::size_t i = 0; i < n; ++i) {
        if (src.bank_.spiked.get(src_base + i))
            bank_.spiked.set(base + i);
        else
            bank_.spiked.clear(base + i);
    }
    std::copy_n(src.bank_.x1.begin() + src_base, n, bank_.x1.begin() + base);
    std::copy_n(src.bank_.x2.begin() + src_base, n, bank_.x2.begin() + base);
}

const PopulationConfig& Chip::population_config(PopulationId pop) const {
    if (pop >= s_->pops.size())
        throw std::invalid_argument("population_config: bad population");
    return s_->pops[pop].cfg;
}

const ProjectionConfig& Chip::projection_config(ProjectionId proj) const {
    if (proj >= s_->projs.size())
        throw std::invalid_argument("projection_config: bad projection");
    return s_->projs[proj].cfg;
}

const std::vector<Synapse>& Chip::projection_synapses(ProjectionId proj) const {
    if (proj >= s_->projs.size())
        throw std::invalid_argument("projection_synapses: bad projection");
    return s_->projs[proj].synapses;
}

const LearningRule& Chip::learning_rule(ProjectionId proj) const {
    if (proj >= s_->projs.size())
        throw std::invalid_argument("learning_rule: bad projection");
    return finalized_ ? rules_[proj] : s_->projs[proj].cfg.rule;
}

std::vector<std::int32_t> Chip::biases(PopulationId pop) const {
    const auto n = population_size(pop);
    std::vector<std::int32_t> out(n);
    const CompartmentId base = s_->pops[pop].first;
    for (std::size_t i = 0; i < n; ++i) out[i] = bank_.bias[base + i];
    return out;
}

std::size_t Chip::population_size(PopulationId pop) const {
    if (pop >= s_->pops.size())
        throw std::invalid_argument("population_size: bad population");
    return s_->pops[pop].cfg.size;
}

std::int32_t Chip::nominal_threshold(PopulationId pop) const {
    if (pop >= s_->pops.size())
        throw std::invalid_argument("nominal_threshold: bad population");
    return s_->pops[pop].cfg.compartment.vth;
}

std::vector<std::int32_t> Chip::spike_counts(PopulationId pop, Phase phase) const {
    const auto n = population_size(pop);
    std::vector<std::int32_t> out(n);
    const CompartmentId base = s_->pops[pop].first;
    for (std::size_t i = 0; i < n; ++i)
        out[i] = phase == Phase::One ? bank_.spikes_phase1[base + i]
                                     : bank_.spikes_phase2[base + i];
    return out;
}

std::vector<std::int32_t> Chip::spike_counts_total(PopulationId pop) const {
    const auto n = population_size(pop);
    std::vector<std::int32_t> out(n);
    const CompartmentId base = s_->pops[pop].first;
    for (std::size_t i = 0; i < n; ++i) out[i] = bank_.spike_count(base + i);
    return out;
}

std::int64_t Chip::membrane(PopulationId pop, std::size_t idx) const {
    return bank_.v[global_id(pop, idx)];
}

std::int64_t Chip::current(PopulationId pop, std::size_t idx) const {
    return bank_.u[global_id(pop, idx)];
}

bool Chip::spiked(PopulationId pop, std::size_t idx) const {
    return bank_.spiked.get(global_id(pop, idx));
}

std::int32_t Chip::trace_x2(PopulationId pop, std::size_t idx) const {
    return bank_.x2[global_id(pop, idx)];
}

std::int32_t Chip::trace_y2(PopulationId pop, std::size_t idx) const {
    return bank_.y2[global_id(pop, idx)];
}

std::int32_t Chip::trace_x1(PopulationId pop, std::size_t idx) const {
    return bank_.x1[global_id(pop, idx)];
}

std::int32_t Chip::trace_y1(PopulationId pop, std::size_t idx) const {
    return bank_.y1[global_id(pop, idx)];
}

std::int32_t Chip::trace_tag(PopulationId pop, std::size_t idx) const {
    return bank_.tag[global_id(pop, idx)];
}

std::vector<std::int32_t> Chip::weights(ProjectionId proj) const {
    if (proj >= s_->projs.size())
        throw std::invalid_argument("weights: bad projection");
    if (finalized_) return img_->w[proj];
    std::vector<std::int32_t> out;
    out.reserve(s_->projs[proj].synapses.size());
    for (const auto& s : s_->projs[proj].synapses) out.push_back(s.weight);
    return out;
}

void Chip::write_weight(std::size_t proj, std::size_t i, std::int32_t w) {
    // A stuck memory cell ignores reprogramming.
    if (!stuck_[proj].empty() && stuck_[proj][i] != 0) return;
    const auto& p = s_->projs[proj];
    if (finalized_) {
        img_->w[proj][i] = w;
        img_->eff[p.fanout_slot[i]] = static_cast<std::int32_t>(
            static_cast<std::int64_t>(w) << p.cfg.weight_exp);
    } else {
        s_->projs[proj].synapses[i].weight = w;
    }
}

void Chip::check_weights(ProjectionId proj,
                         const std::vector<std::int32_t>& w) const {
    if (proj >= s_->projs.size())
        throw std::invalid_argument("program_weights: bad projection");
    const auto& p = s_->projs[proj];
    if (w.size() != p.synapses.size())
        throw std::invalid_argument("program_weights: size mismatch for " +
                                    p.cfg.name);
    for (const auto v : w)
        if (v != common::saturate_signed(v, limits_.weight_bits))
            throw std::invalid_argument("program_weights(" + p.cfg.name +
                                        "): weight exceeds " +
                                        std::to_string(limits_.weight_bits) +
                                        " bits");
}

void Chip::program_weights(ProjectionId proj, const std::vector<std::int32_t>& w) {
    check_weights(proj, w);
    if (finalized_)
        detach_weights();
    else
        detach_structure();  // pre-finalize, write_weight hits the builder
    for (std::size_t i = 0; i < w.size(); ++i) write_weight(proj, i, w[i]);
}

std::size_t Chip::synapse_count(ProjectionId proj) const {
    if (proj >= s_->projs.size())
        throw std::invalid_argument("synapse_count: bad projection");
    return s_->projs[proj].synapses.size();
}

std::size_t Chip::total_synapses() const {
    std::size_t n = 0;
    for (const auto& p : s_->projs) n += p.synapses.size();
    return n;
}

std::size_t Chip::total_compartments() const {
    std::size_t n = 0;
    for (const auto& p : s_->pops) {
        const std::size_t per =
            p.cfg.compartment.join == JoinOp::None ? 1 : 2;
        n += p.cfg.size * per;
    }
    return n;
}

namespace {
constexpr std::uint32_t kCheckpointMagic = 0x4C4F4948;  // "LOIH"
constexpr std::uint32_t kCheckpointVersion = 1;
}  // namespace

void Chip::save_weights(std::ostream& out) const {
    auto put32 = [&](std::uint32_t v) {
        out.write(reinterpret_cast<const char*>(&v), sizeof(v));
    };
    put32(kCheckpointMagic);
    put32(kCheckpointVersion);
    put32(static_cast<std::uint32_t>(s_->projs.size()));
    for (std::size_t pi = 0; pi < s_->projs.size(); ++pi) {
        const auto w = weights(pi);
        put32(static_cast<std::uint32_t>(w.size()));
        for (const auto v : w) put32(static_cast<std::uint32_t>(v));
    }
}

void Chip::load_weights(std::istream& in) {
    auto get32 = [&]() {
        std::uint32_t v = 0;
        in.read(reinterpret_cast<char*>(&v), sizeof(v));
        if (!in) throw std::runtime_error("load_weights: truncated checkpoint");
        return v;
    };
    if (get32() != kCheckpointMagic)
        throw std::runtime_error("load_weights: bad magic");
    if (get32() != kCheckpointVersion)
        throw std::runtime_error("load_weights: unsupported version");
    if (get32() != s_->projs.size())
        throw std::runtime_error("load_weights: projection count mismatch");
    if (finalized_)
        detach_weights();
    else
        detach_structure();  // pre-finalize, write_weight hits the builder
    for (std::size_t pi = 0; pi < s_->projs.size(); ++pi) {
        const auto& proj = s_->projs[pi];
        if (get32() != proj.synapses.size())
            throw std::runtime_error("load_weights: synapse count mismatch in " +
                                     proj.cfg.name);
        for (std::size_t i = 0; i < proj.synapses.size(); ++i) {
            const auto w = static_cast<std::int32_t>(get32());
            if (w != common::saturate_signed(w, limits_.weight_bits))
                throw std::runtime_error("load_weights: weight out of range in " +
                                         proj.cfg.name);
            // Stream values for stuck cells are consumed but not applied.
            write_weight(pi, i, w);
        }
    }
}

const MappingResult& Chip::mapping() const {
    if (!finalized_) throw std::logic_error("mapping: chip not finalized");
    return s_->mapping;
}

void Chip::enable_raster(PopulationId pop) {
    if (pop >= s_->pops.size()) throw std::invalid_argument("enable_raster: bad pop");
    raster_pop_ = pop;
}

CompartmentId Chip::global_id(PopulationId pop, std::size_t idx) const {
    if (pop >= s_->pops.size() || idx >= s_->pops[pop].cfg.size)
        throw std::invalid_argument("bad (population, index)");
    return s_->pops[pop].first + idx;
}

void Chip::check_finalized(bool expected) const {
    if (finalized_ != expected)
        throw std::logic_error(expected ? "chip must be finalized first"
                                        : "chip is already finalized");
}

EncodedWeight encode_weight(std::int64_t desired, int weight_bits) {
    EncodedWeight e;
    const std::int64_t mag = desired < 0 ? -desired : desired;
    const std::int64_t wmax = (std::int64_t{1} << (weight_bits - 1)) - 1;
    std::int64_t m = mag;
    while (m > wmax) {
        m = (m + 1) >> 1;
        ++e.exponent;
    }
    e.weight = static_cast<std::int32_t>(desired < 0 ? -m : m);
    return e;
}

}  // namespace neuro::loihi
