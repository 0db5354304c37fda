// SoA <-> AoS equivalence tests for the compartment bank (the lane layout
// behind Chip's vectorized kernels).
//
// The chip stores dynamic compartment state as struct-of-arrays lanes
// (loihi/compartment.hpp) and steps them with SIMD-friendly kernels. This
// file pins the refactor down from the outside: an array-of-structs
// reference simulator — one struct per compartment, built on TraceState and
// the shared trace free functions, following the documented step semantics
// line by line — must agree bit-for-bit with both kernel modes (scalar and
// vector) on randomized networks: spikes, membranes, currents, all five
// traces, and every ActivityTotals counter, including the shared
// stochastic-rounding RNG stream of decaying traces.
//
// A second group cross-checks the scalar kernels against the vector ones
// on an EMSTDP-shaped net (AndAuxActive error gates + plastic projections),
// and a concurrency section exercises the copy-on-write weight sharing from
// several threads (meaningful under TSan, registered there by CI).

#include <gtest/gtest.h>

#include <array>
#include <cstdint>
#include <thread>
#include <vector>

#include "common/rng.hpp"
#include "loihi/chip.hpp"
#include "loihi/trace.hpp"

using namespace neuro::loihi;

namespace {

// ---------------------------------------------------------------------------
// AoS reference simulator. Deliberately naive: every compartment is one
// struct, every step visits all of them in order, delivery walks a flat
// per-source synapse list. No lanes, no bitsets, no batched runs — just the
// documented semantics.
// ---------------------------------------------------------------------------

struct RefCompartment {
    std::int64_t u = 0;
    std::int64_t v = 0;
    std::int64_t pending_soma = 0;
    std::int64_t pending_aux = 0;
    std::int64_t aux_current = 0;
    std::int32_t bias = 0;
    std::int32_t refractory_left = 0;
    std::int32_t spikes_phase1 = 0;
    std::int32_t spikes_phase2 = 0;
    TraceState x1, y1, x2, y2, tag;
    bool spiked = false;
    bool aux_active = false;
    bool dead = false;
    std::int64_t vth_eff = 1;
};

struct RefSynapse {
    std::size_t dst = 0;      // global compartment id
    std::int32_t eff = 0;     // weight << weight_exp
    Port port = Port::Soma;
    std::uint8_t delay = 0;
};

struct RefEvent {
    std::size_t dst;
    std::int32_t weight;
    Port port;
};

class RefChip {
public:
    struct Pop {
        CompartmentConfig cfg;
        std::size_t first = 0;
        std::size_t size = 0;
    };

    std::size_t add_population(const CompartmentConfig& cfg, std::size_t n) {
        pops_.push_back({cfg, comp_.size(), n});
        comp_.resize(comp_.size() + n);
        fanout_.resize(comp_.size());
        for (std::size_t i = 0; i < n; ++i) {
            auto& c = comp_[pops_.back().first + i];
            c.vth_eff = std::max<std::int64_t>(1, cfg.vth);
        }
        return pops_.size() - 1;
    }

    void add_synapse(std::size_t src_pop, std::uint32_t src, std::size_t dst_pop,
                     std::uint32_t dst, std::int32_t weight, int weight_exp,
                     Port port, std::uint8_t delay) {
        RefSynapse s;
        s.dst = pops_[dst_pop].first + dst;
        s.eff = static_cast<std::int32_t>(static_cast<std::int64_t>(weight)
                                          << weight_exp);
        s.port = port;
        s.delay = delay;
        fanout_[pops_[src_pop].first + src].push_back(s);
    }

    void set_threshold_offset(std::size_t pop, std::size_t idx,
                              std::int32_t offset) {
        auto& c = comp_[pops_[pop].first + idx];
        c.vth_eff = std::max<std::int64_t>(
            1, static_cast<std::int64_t>(pops_[pop].cfg.vth) + offset);
    }

    void set_dead(std::size_t pop, std::size_t idx) {
        comp_[pops_[pop].first + idx].dead = true;
    }

    void seed_noise(std::uint64_t seed) {
        trace_rng_ = neuro::common::Rng(seed ^ 0x7EAC0DEULL);
    }

    void set_phase(Phase p) { phase_ = p; }

    void set_bias(std::size_t pop, const std::vector<std::int32_t>& bias) {
        host_io_writes += bias.size();
        for (std::size_t i = 0; i < bias.size(); ++i)
            comp_[pops_[pop].first + i].bias = bias[i];
    }

    void insert_spike(std::size_t pop, std::size_t idx) {
        ++host_io_writes;
        auto& c = comp_[pops_[pop].first + idx];
        if (c.dead) return;
        const CompartmentConfig& cfg = pops_[pop].cfg;
        if (phase_ == Phase::One)
            ++c.spikes_phase1;
        else
            ++c.spikes_phase2;
        on_spike_traces(c, cfg);
        ++spikes;
        deliver(pops_[pop].first + idx);
    }

    void reset_membranes() {
        for (auto& c : comp_) {
            c.u = c.v = c.pending_soma = c.pending_aux = c.aux_current = 0;
            c.refractory_left = 0;
        }
    }

    void step() {
        ++now_;
        ++steps;
        for (const RefEvent& ev : wheel_[now_ % kWheel]) {
            if (ev.port == Port::Soma)
                comp_[ev.dst].pending_soma += ev.weight;
            else
                comp_[ev.dst].pending_aux += ev.weight;
        }
        wheel_[now_ % kWheel].clear();

        // Pass 1: integrate + spike decision, ascending compartment order
        // (the trace RNG draw order the chip guarantees).
        for (const Pop& p : pops_)
            for (std::size_t i = 0; i < p.size; ++i)
                step_compartment(comp_[p.first + i], p.cfg);

        // Pass 2: deliver, ascending order; spikes land as pending input for
        // the next step (one-step synaptic latency).
        for (std::size_t c = 0; c < comp_.size(); ++c)
            if (comp_[c].spiked) deliver(c);
    }

    void run(std::size_t n) {
        for (std::size_t i = 0; i < n; ++i) step();
    }

    const RefCompartment& at(std::size_t pop, std::size_t idx) const {
        return comp_[pops_[pop].first + idx];
    }
    std::size_t pop_size(std::size_t pop) const { return pops_[pop].size; }

    // Mirrors of the ActivityTotals counters the stepper touches.
    std::uint64_t steps = 0;
    std::uint64_t compartment_updates = 0;
    std::uint64_t synaptic_ops = 0;
    std::uint64_t spikes = 0;
    std::uint64_t host_io_writes = 0;

private:
    static constexpr std::size_t kWheel = 128;  // > max synaptic delay + 1

    void on_spike_traces(RefCompartment& c, const CompartmentConfig& cfg) {
        c.x1.on_spike(cfg.pre_trace, phase_);
        c.y1.on_spike(cfg.post_trace, phase_);
        c.x2.on_spike(cfg.pre_trace2, phase_);
        c.y2.on_spike(cfg.post_trace2, phase_);
        c.tag.on_spike(cfg.tag_trace, phase_);
    }

    void tick_traces(RefCompartment& c, const CompartmentConfig& cfg) {
        c.x1.tick(cfg.pre_trace, &trace_rng_);
        c.y1.tick(cfg.post_trace, &trace_rng_);
        c.x2.tick(cfg.pre_trace2, &trace_rng_);
        c.y2.tick(cfg.post_trace2, &trace_rng_);
        c.tag.tick(cfg.tag_trace, &trace_rng_);
    }

    void step_compartment(RefCompartment& c, const CompartmentConfig& cfg) {
        c.spiked = false;
        if (c.dead) {
            c.pending_soma = 0;
            c.pending_aux = 0;
            return;
        }
        if (cfg.join == JoinOp::AndAuxActive) {
            if (c.pending_aux != 0) c.aux_active = true;
            c.pending_aux = 0;
        } else if (cfg.join == JoinOp::GatedAdd || cfg.join == JoinOp::Add) {
            c.aux_current = c.pending_aux;
            c.pending_aux = 0;
        }
        if (phase_ == Phase::One && !cfg.active_in_phase1) {
            c.pending_soma = 0;
            tick_traces(c, cfg);
            return;
        }
        ++compartment_updates;

        c.u = neuro::common::decay12(c.u, cfg.decay_u) + c.pending_soma;
        c.pending_soma = 0;
        std::int64_t drive = c.u + c.bias;
        if ((cfg.join == JoinOp::GatedAdd && c.spikes_phase1 > 0) ||
            cfg.join == JoinOp::Add)
            drive += c.aux_current;
        std::int64_t v = neuro::common::decay12(c.v, cfg.decay_v) + drive;
        if (cfg.floor_at_zero && v < 0) v = 0;
        c.v = v;

        if (c.refractory_left > 0) {
            --c.refractory_left;
            tick_traces(c, cfg);
            return;
        }
        if (v >= c.vth_eff) {
            const bool gate_open =
                cfg.join != JoinOp::AndAuxActive || c.aux_active;
            c.v = cfg.soft_reset ? v - c.vth_eff : 0;
            c.refractory_left = cfg.refractory;
            if (gate_open) {
                c.spiked = true;
                if (phase_ == Phase::One)
                    ++c.spikes_phase1;
                else
                    ++c.spikes_phase2;
                on_spike_traces(c, cfg);
                ++spikes;
            }
        }
        tick_traces(c, cfg);
    }

    void deliver(std::size_t src) {
        for (const RefSynapse& s : fanout_[src]) {
            if (s.delay != 0) {
                wheel_[(now_ + 1 + s.delay) % kWheel].push_back(
                    {s.dst, s.eff, s.port});
                continue;
            }
            if (s.port == Port::Soma)
                comp_[s.dst].pending_soma += s.eff;
            else
                comp_[s.dst].pending_aux += s.eff;
        }
        synaptic_ops += fanout_[src].size();
    }

    std::vector<Pop> pops_;
    std::vector<RefCompartment> comp_;
    std::vector<std::vector<RefSynapse>> fanout_;
    std::array<std::vector<RefEvent>, kWheel> wheel_;
    std::uint64_t now_ = 0;
    Phase phase_ = Phase::One;
    neuro::common::Rng trace_rng_{0x7EAC0DE};
};

// ---------------------------------------------------------------------------
// Randomized network builder: every draw goes into both simulators.
// ---------------------------------------------------------------------------

struct TwinNets {
    Chip chip;
    RefChip ref;
    std::vector<PopulationId> pops;
};

/// Builds a randomized network whose populations jointly cover the kernel
/// dispatch matrix: IF and leaky configs, soft and hard reset, floor,
/// refractory, every JoinOp, a phase-frozen population, decaying traces
/// (stochastic rounding), threshold offsets, dead units, synaptic delays
/// and both ports.
TwinNets build_random_net(std::uint64_t seed) {
    neuro::common::Rng rng(seed);
    TwinNets t;

    const std::size_t npops = 4 + static_cast<std::size_t>(rng.uniform_int(0, 2));
    std::vector<CompartmentConfig> cfgs(npops);
    std::vector<std::size_t> sizes(npops);
    for (std::size_t p = 0; p < npops; ++p) {
        CompartmentConfig& cc = cfgs[p];
        sizes[p] = static_cast<std::size_t>(rng.uniform_int(3, 37));
        cc.vth = static_cast<std::int32_t>(rng.uniform_int(8, 60));
        cc.soft_reset = rng.bernoulli(0.5);
        cc.floor_at_zero = rng.bernoulli(0.5);
        cc.refractory = static_cast<std::int32_t>(rng.uniform_int(0, 3));
        switch (p % 4) {
            case 0:  // plain IF forward population (vector kind 1)
                cc.join = JoinOp::None;
                break;
            case 1:  // DFA hidden population (vector kind 2 when IF)
                cc.join = JoinOp::GatedAdd;
                break;
            case 2:  // dendritic summation (vector kind 3 when IF)
                cc.join = JoinOp::Add;
                break;
            default:  // error gate: always scalar, frozen in phase 1
                cc.join = JoinOp::AndAuxActive;
                cc.active_in_phase1 = false;
                break;
        }
        if (rng.bernoulli(0.3)) {  // leaky variant: generic decay kernel
            cc.decay_u = static_cast<std::int32_t>(rng.uniform_int(1024, 4096));
            cc.decay_v = static_cast<std::int32_t>(rng.uniform_int(0, 2048));
        }
        if (rng.bernoulli(0.25)) {  // decaying traces: shared-RNG scalar path
            cc.post_trace = {static_cast<std::int32_t>(rng.uniform_int(4, 32)),
                             static_cast<std::int32_t>(rng.uniform_int(256, 2048)),
                             TraceWindow::Both, 7};
        }

        PopulationConfig pc;
        pc.name = "p" + std::to_string(p);
        pc.size = sizes[p];
        pc.compartment = cc;
        t.pops.push_back(t.chip.add_population(pc));
        t.ref.add_population(cc, sizes[p]);
    }

    // Random sparse connectivity (~4 out-edges per neuron). Aux-port edges
    // target joined populations; everything else drives somata.
    for (std::size_t sp = 0; sp < npops; ++sp) {
        std::vector<Synapse> bysrc;
        std::vector<std::size_t> dst_pop_of;
        for (std::size_t i = 0; i < sizes[sp] * 4; ++i) {
            const std::size_t dp =
                static_cast<std::size_t>(rng.uniform_int(0, npops - 1));
            Synapse s;
            s.src = static_cast<std::uint32_t>(rng.uniform_int(0, sizes[sp] - 1));
            s.dst = static_cast<std::uint32_t>(rng.uniform_int(0, sizes[dp] - 1));
            s.weight = static_cast<std::int32_t>(rng.uniform_int(-30, 30));
            s.delay = static_cast<std::uint8_t>(
                rng.bernoulli(0.2) ? rng.uniform_int(1, 5) : 0);
            bysrc.push_back(s);
            dst_pop_of.push_back(dp);
        }
        // One projection per (dst pop, port) pair keeps the builder simple.
        for (std::size_t dp = 0; dp < npops; ++dp) {
            for (const Port port : {Port::Soma, Port::Aux}) {
                if (port == Port::Aux && cfgs[dp].join == JoinOp::None) continue;
                std::vector<Synapse> syns;
                for (std::size_t i = 0; i < bysrc.size(); ++i) {
                    const bool want_aux =
                        cfgs[dp].join != JoinOp::None && (i % 3 == 0);
                    if (dst_pop_of[i] == dp &&
                        (port == Port::Aux) == want_aux)
                        syns.push_back(bysrc[i]);
                }
                if (syns.empty()) continue;
                ProjectionConfig pr;
                pr.name = "s" + std::to_string(sp) + "d" + std::to_string(dp);
                pr.src = t.pops[sp];
                pr.dst = t.pops[dp];
                pr.port = port;
                pr.weight_exp = static_cast<int>(rng.uniform_int(0, 2));
                t.chip.add_projection(pr, syns);
                for (const Synapse& s : syns)
                    t.ref.add_synapse(sp, s.src, dp, s.dst, s.weight,
                                      pr.weight_exp, port, s.delay);
            }
        }
    }
    t.chip.finalize();

    // Device variation: threshold offsets on a few units, one dead unit per
    // third population.
    for (std::size_t p = 0; p < npops; ++p) {
        for (std::size_t i = 0; i < sizes[p]; i += 5) {
            const auto off = static_cast<std::int32_t>(rng.uniform_int(-6, 6));
            t.chip.set_threshold_offset(t.pops[p], i, off);
            t.ref.set_threshold_offset(p, i, off);
        }
        if (p % 3 == 2) {
            t.chip.set_compartment_dead(t.pops[p], 0, true);
            t.ref.set_dead(p, 0);
        }
    }
    return t;
}

/// Drives both simulators through a two-phase sample (the paper's operation
/// flow): phase-1 biases, a run, host spike insertions, the phase-boundary
/// membrane reset, then a phase-2 run.
void drive(TwinNets& t, std::uint64_t seed) {
    neuro::common::Rng rng(seed * 977 + 13);
    t.chip.seed_learning_noise(seed);
    t.ref.seed_noise(seed);

    t.chip.set_phase(Phase::One);
    t.ref.set_phase(Phase::One);
    for (std::size_t p = 0; p < t.pops.size(); ++p) {
        std::vector<std::int32_t> bias(t.ref.pop_size(p));
        for (auto& b : bias)
            b = static_cast<std::int32_t>(rng.uniform_int(-4, 12));
        t.chip.set_bias(t.pops[p], bias);
        t.ref.set_bias(p, bias);
    }
    t.chip.run(17);
    t.ref.run(17);

    for (int i = 0; i < 6; ++i) {
        const std::size_t p =
            static_cast<std::size_t>(rng.uniform_int(0, t.pops.size() - 1));
        const std::size_t idx =
            static_cast<std::size_t>(rng.uniform_int(0, t.ref.pop_size(p) - 1));
        t.chip.insert_spike(t.pops[p], idx);
        t.ref.insert_spike(p, idx);
    }
    t.chip.run(7);
    t.ref.run(7);

    t.chip.reset_membranes();
    t.ref.reset_membranes();
    t.chip.set_phase(Phase::Two);
    t.ref.set_phase(Phase::Two);
    t.chip.run(21);
    t.ref.run(21);
}

void expect_identical(const TwinNets& t) {
    for (std::size_t p = 0; p < t.pops.size(); ++p) {
        const auto c1 = t.chip.spike_counts(t.pops[p], Phase::One);
        const auto c2 = t.chip.spike_counts(t.pops[p], Phase::Two);
        for (std::size_t i = 0; i < t.ref.pop_size(p); ++i) {
            const RefCompartment& r = t.ref.at(p, i);
            ASSERT_EQ(t.chip.membrane(t.pops[p], i), r.v) << "pop " << p << " #" << i;
            ASSERT_EQ(t.chip.current(t.pops[p], i), r.u) << "pop " << p << " #" << i;
            ASSERT_EQ(c1[i], r.spikes_phase1) << "pop " << p << " #" << i;
            ASSERT_EQ(c2[i], r.spikes_phase2) << "pop " << p << " #" << i;
            ASSERT_EQ(t.chip.trace_x1(t.pops[p], i), r.x1.value);
            ASSERT_EQ(t.chip.trace_y1(t.pops[p], i), r.y1.value);
            ASSERT_EQ(t.chip.trace_x2(t.pops[p], i), r.x2.value);
            ASSERT_EQ(t.chip.trace_y2(t.pops[p], i), r.y2.value);
            ASSERT_EQ(t.chip.trace_tag(t.pops[p], i), r.tag.value);
        }
    }
    const ActivityTotals& a = t.chip.activity();
    EXPECT_EQ(a.steps, t.ref.steps);
    EXPECT_EQ(a.compartment_updates, t.ref.compartment_updates);
    EXPECT_EQ(a.synaptic_ops, t.ref.synaptic_ops);
    EXPECT_EQ(a.spikes, t.ref.spikes);
    EXPECT_EQ(a.host_io_writes, t.ref.host_io_writes);
}

}  // namespace

// ---------------------------------------------------------------------------
// SoA chip vs AoS reference, in both kernel modes.
// ---------------------------------------------------------------------------

class BankEquivalence
    : public testing::TestWithParam<std::tuple<bool, std::uint64_t>> {};

TEST_P(BankEquivalence, MatchesAosReferenceBitForBit) {
    const auto [vec, seed] = GetParam();
    TwinNets t = build_random_net(seed);
    t.chip.set_vector_sweep(vec);
    drive(t, seed);
    expect_identical(t);
}

INSTANTIATE_TEST_SUITE_P(
    ModeMatrix, BankEquivalence,
    testing::Combine(testing::Bool(), testing::Values(1u, 2u, 3u, 4u, 5u)),
    [](const auto& info) {
        return std::string(std::get<0>(info.param) ? "Simd" : "Scalar") +
               "Seed" + std::to_string(std::get<1>(info.param));
    });

TEST(BankEquivalence, MidRunModetogglesPreserveState) {
    // Toggling the kernel selection between steps must not disturb state:
    // the mixed run has to match the reference exactly like a pure run
    // does.
    const std::uint64_t seed = 11;
    TwinNets t = build_random_net(seed);
    t.chip.seed_learning_noise(seed);
    t.ref.seed_noise(seed);
    t.chip.set_phase(Phase::One);
    t.ref.set_phase(Phase::One);
    std::vector<std::int32_t> bias(t.ref.pop_size(0), 9);
    t.chip.set_bias(t.pops[0], bias);
    t.ref.set_bias(0, bias);

    neuro::common::Rng flips(42);
    for (int s = 0; s < 40; ++s) {
        t.chip.set_vector_sweep(flips.bernoulli(0.5));
        t.chip.step();
        t.ref.step();
    }
    // Mode flips cost nothing observable: compare only the simulator state
    // (the activity counters are covered by the matrix test above).
    for (std::size_t p = 0; p < t.pops.size(); ++p) {
        const auto c1 = t.chip.spike_counts(t.pops[p], Phase::One);
        for (std::size_t i = 0; i < t.ref.pop_size(p); ++i) {
            const RefCompartment& r = t.ref.at(p, i);
            ASSERT_EQ(t.chip.membrane(t.pops[p], i), r.v);
            ASSERT_EQ(c1[i], r.spikes_phase1);
            ASSERT_EQ(t.chip.trace_x1(t.pops[p], i), r.x1.value);
        }
    }
}

// ---------------------------------------------------------------------------
// Cross-mode equivalence on an EMSTDP-shaped net, learning included.
// ---------------------------------------------------------------------------

namespace {

/// input -> hidden(GatedAdd) -> output, error pop (AndAuxActive, frozen in
/// phase 1) feeding the hidden aux port — the population roles of the
/// paper's network mapping, with plastic forward projections.
struct TrainNet {
    Chip chip;
    PopulationId in, hid, out, err;
    ProjectionId p_ih, p_ho;
};

TrainNet build_train_net(std::uint64_t seed) {
    neuro::common::Rng rng(seed);
    TrainNet n;
    PopulationConfig pin;
    pin.name = "in";
    pin.size = 24;
    pin.compartment.vth = 16;
    pin.compartment.floor_at_zero = true;
    n.in = n.chip.add_population(pin);

    PopulationConfig ph;
    ph.name = "hid";
    ph.size = 16;
    ph.compartment.vth = 40;
    ph.compartment.floor_at_zero = true;
    ph.compartment.join = JoinOp::GatedAdd;
    n.hid = n.chip.add_population(ph);

    PopulationConfig po;
    po.name = "out";
    po.size = 8;
    po.compartment.vth = 40;
    po.compartment.floor_at_zero = true;
    n.out = n.chip.add_population(po);

    PopulationConfig pe;
    pe.name = "err";
    pe.size = 8;
    pe.compartment.vth = 24;
    pe.compartment.join = JoinOp::AndAuxActive;
    pe.compartment.active_in_phase1 = false;
    n.err = n.chip.add_population(pe);

    auto dense = [&](std::size_t ns, std::size_t nd) {
        std::vector<Synapse> syns;
        for (std::uint32_t s = 0; s < ns; ++s)
            for (std::uint32_t d = 0; d < nd; ++d)
                syns.push_back({s, d,
                                static_cast<std::int32_t>(rng.uniform_int(-20, 20)),
                                0});
        return syns;
    };
    ProjectionConfig ih;
    ih.name = "ih";
    ih.src = n.in;
    ih.dst = n.hid;
    ih.plastic = true;
    ih.rule = emstdp_rule(2);
    n.p_ih = n.chip.add_projection(ih, dense(24, 16));
    ProjectionConfig ho;
    ho.name = "ho";
    ho.src = n.hid;
    ho.dst = n.out;
    ho.plastic = true;
    ho.rule = emstdp_rule(2);
    n.p_ho = n.chip.add_projection(ho, dense(16, 8));
    ProjectionConfig oe;
    oe.name = "oe";
    oe.src = n.out;
    oe.dst = n.err;
    oe.port = Port::Aux;
    std::vector<Synapse> gate;
    for (std::uint32_t i = 0; i < 8; ++i) gate.push_back({i, i, 4, 0});
    n.chip.add_projection(oe, gate);
    ProjectionConfig eh;
    eh.name = "eh";
    eh.src = n.err;
    eh.dst = n.hid;
    eh.port = Port::Aux;
    n.chip.add_projection(eh, dense(8, 16));
    n.chip.finalize();
    return n;
}

struct TrainResult {
    std::vector<std::int32_t> w_ih, w_ho;
    std::vector<std::int32_t> counts_out, counts_err;
    ActivityTotals totals;
};

TrainResult train_sample(bool vec) {
    TrainNet n = build_train_net(77);
    n.chip.set_vector_sweep(vec);
    n.chip.seed_learning_noise(5);
    neuro::common::Rng rng(123);
    for (int sample = 0; sample < 3; ++sample) {
        std::vector<std::int32_t> bias(24);
        for (auto& b : bias)
            b = static_cast<std::int32_t>(rng.uniform_int(0, 12));
        n.chip.set_phase(Phase::One);
        n.chip.set_bias(n.in, bias);
        n.chip.run(24);
        n.chip.reset_membranes();
        n.chip.set_phase(Phase::Two);
        std::vector<std::int32_t> target(8, 0);
        target[sample % 8] = 20;
        n.chip.set_bias(n.err, target);
        n.chip.run(24);
        n.chip.apply_learning();
        n.chip.clear_bias(n.err);
        n.chip.reset_dynamic_state();
    }
    // One inference pass after training for the spike-count comparison.
    n.chip.set_phase(Phase::One);
    std::vector<std::int32_t> bias(24, 6);
    n.chip.set_bias(n.in, bias);
    n.chip.run(24);
    TrainResult r;
    r.w_ih = n.chip.weights(n.p_ih);
    r.w_ho = n.chip.weights(n.p_ho);
    r.counts_out = n.chip.spike_counts_total(n.out);
    r.counts_err = n.chip.spike_counts_total(n.err);
    r.totals = n.chip.activity();
    return r;
}

}  // namespace

TEST(ModeCrossEquivalence, TrainingIsBitIdenticalScalarVsSimd) {
    const TrainResult base = train_sample(/*vec=*/false);
    ASSERT_GT(base.totals.spikes, 0u) << "net must actually be active";
    const TrainResult r = train_sample(/*vec=*/true);
    EXPECT_EQ(r.w_ih, base.w_ih);
    EXPECT_EQ(r.w_ho, base.w_ho);
    EXPECT_EQ(r.counts_out, base.counts_out);
    EXPECT_EQ(r.counts_err, base.counts_err);
    EXPECT_EQ(r.totals.steps, base.totals.steps);
    EXPECT_EQ(r.totals.compartment_updates, base.totals.compartment_updates);
    EXPECT_EQ(r.totals.synaptic_ops, base.totals.synaptic_ops);
    EXPECT_EQ(r.totals.spikes, base.totals.spikes);
    EXPECT_EQ(r.totals.learning_synapse_visits,
              base.totals.learning_synapse_visits);
    EXPECT_EQ(r.totals.host_io_writes, base.totals.host_io_writes);
}

// ---------------------------------------------------------------------------
// Copy-on-write weight sharing under concurrency (the Session substrate).
// Registered under TSan by CI: concurrent replicas must be able to read the
// shared weight image while one of them detaches to learn.
// ---------------------------------------------------------------------------

TEST(CowSharing, ConcurrentReplicasShareWeightsRaceFree) {
    TrainNet proto = build_train_net(31);
    proto.chip.seed_learning_noise(9);

    // Expected inference result, computed serially.
    auto infer = [](Chip chip) {
        chip.set_phase(Phase::One);
        chip.set_bias(0, std::vector<std::int32_t>(24, 7));
        chip.run(20);
        return chip.spike_counts_total(2);
    };
    const auto expected = infer(proto.chip);

    constexpr int kThreads = 4;
    std::vector<std::vector<std::int32_t>> results(kThreads);
    std::vector<std::vector<std::int32_t>> learner_weights(1);
    std::vector<std::thread> threads;
    for (int ti = 0; ti < kThreads; ++ti) {
        threads.emplace_back([&, ti] {
            Chip replica = proto.chip;  // shares structure + weight image
            if (ti == 0) {
                // The learner: detaches the weight image (copy-on-write)
                // while the other replicas keep reading the shared one.
                replica.set_phase(Phase::One);
                replica.set_bias(0, std::vector<std::int32_t>(24, 7));
                replica.run(20);
                replica.set_phase(Phase::Two);
                replica.run(10);
                replica.apply_learning();
                learner_weights[0] = replica.weights(1);
                results[ti].clear();  // not an inference result
            } else {
                replica.set_phase(Phase::One);
                replica.set_bias(0, std::vector<std::int32_t>(24, 7));
                replica.run(20);
                results[ti] = replica.spike_counts_total(2);
            }
        });
    }
    for (auto& th : threads) th.join();

    for (int ti = 1; ti < kThreads; ++ti)
        EXPECT_EQ(results[ti], expected) << "replica " << ti;
    // The learner really detached: the prototype still sees the original
    // weights.
    EXPECT_NE(learner_weights[0], proto.chip.weights(1))
        << "learning should have changed the learner's private copy";
}
