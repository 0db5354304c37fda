// Multi-chip sharded execution (loihi/router.hpp, core/sharded_network.hpp,
// the LoihiSim backend's ModelSpec::shards): bit-identity with the single
// chip where the contract promises it, determinism everywhere, relaying and
// learning across the cut (stuck synapses included), per-shard mapping,
// transparent spill, and session independence under concurrency.

#include <gtest/gtest.h>

#include <memory>
#include <stdexcept>
#include <vector>

#include "common/rng.hpp"
#include "common/threadpool.hpp"
#include "core/network.hpp"
#include "core/sharded_network.hpp"
#include "core/trainer.hpp"
#include "data/dataset.hpp"
#include "loihi/faults.hpp"
#include "runtime/backend.hpp"
#include "runtime/compiled_model.hpp"
#include "runtime/weights.hpp"

using namespace neuro;

namespace {

constexpr std::size_t kSide = 10;
constexpr std::size_t kClasses = 10;
constexpr std::size_t kHidden = 30;

data::Dataset digits(std::size_t count, std::uint64_t seed = 5) {
    data::GenOptions gen;
    gen.count = count;
    gen.seed = seed;
    gen.height = kSide;
    gen.width = kSide;
    return data::make_digits(gen);
}

core::EmstdpOptions small_opt(std::uint64_t seed = 7) {
    core::EmstdpOptions opt;
    opt.seed = seed;
    return opt;
}

core::EmstdpNetwork single_net(const core::EmstdpOptions& opt) {
    return core::EmstdpNetwork(opt, 1, kSide, kSide, nullptr, {kHidden},
                               kClasses);
}

core::ShardedEmstdpNetwork sharded_net(const core::EmstdpOptions& opt,
                                       std::size_t shards,
                                       std::size_t threads = 0) {
    return core::ShardedEmstdpNetwork(opt, 1, kSide, kSide, nullptr, {kHidden},
                                      kClasses, shards, threads);
}

void expect_activity_equal(const loihi::ActivityTotals& a,
                           const loihi::ActivityTotals& b) {
    EXPECT_EQ(a.steps, b.steps);
    EXPECT_EQ(a.compartment_updates, b.compartment_updates);
    EXPECT_EQ(a.synaptic_ops, b.synaptic_ops);
    EXPECT_EQ(a.spikes, b.spikes);
    EXPECT_EQ(a.learning_synapse_visits, b.learning_synapse_visits);
    EXPECT_EQ(a.host_io_writes, b.host_io_writes);
}

runtime::ModelSpec sharded_spec(std::size_t shards,
                                std::uint64_t seed = 7) {
    runtime::ModelSpec spec;
    spec.input(1, kSide, kSide)
        .hidden_layers({kHidden})
        .output_classes(kClasses)
        .with_options(small_opt(seed))
        .with_shards(shards);
    return spec;
}

}  // namespace

// ---- acceptance: shard count 1 degenerates to today's path, bit for bit ---

TEST(ShardedExecution, SingleShardBitIdenticalToSingleChip) {
    const auto train = digits(24);
    const auto probe = digits(8, 17);
    const auto opt = small_opt();

    auto reference = single_net(opt);
    auto sharded = sharded_net(opt, 1);
    ASSERT_EQ(sharded.num_shards(), 1u);

    EXPECT_EQ(reference.plastic_weights(), sharded.plastic_weights());
    for (const auto& s : train.samples) {
        reference.train_sample(s.image, s.label);
        sharded.train_sample(s.image, s.label);
    }
    EXPECT_EQ(reference.plastic_weights(), sharded.plastic_weights());
    for (const auto& s : probe.samples) {
        EXPECT_EQ(reference.output_counts(s.image), sharded.output_counts(s.image));
        EXPECT_EQ(reference.predict(s.image), sharded.predict(s.image));
    }
    expect_activity_equal(reference.chip().activity(), sharded.chip().activity());
}

// ---- multi-shard: the forward pass consumes no RNG, so inference must be
// bit-identical to the single chip for ANY shard count --------------------

TEST(ShardedExecution, MultiShardInferenceBitIdenticalToSingleChip) {
    const auto probe = digits(10, 17);
    const auto opt = small_opt();
    auto reference = single_net(opt);

    for (const std::size_t shards : {2u, 4u}) {
        SCOPED_TRACE(shards);
        auto sharded = sharded_net(opt, shards);
        ASSERT_EQ(sharded.num_shards(), shards);
        EXPECT_GT(sharded.plan().cut_synapses, 0u);
        for (const auto& s : probe.samples) {
            EXPECT_EQ(reference.output_counts(s.image),
                      sharded.output_counts(s.image));
            EXPECT_EQ(reference.predict(s.image), sharded.predict(s.image));
        }
        EXPECT_GT(sharded.chip().routed_spikes(), 0u);
    }
}

// ---- multi-shard training: with stochastic rounding off the whole
// protocol is RNG-free, so even learning must match the single chip ------

TEST(ShardedExecution, MultiShardTrainingBitIdenticalWithoutStochasticRounding) {
    auto opt = small_opt();
    opt.stochastic_rounding = false;
    const auto train = digits(16);
    const auto probe = digits(6, 29);

    // DFA (the default) and FA, whose AND-gated hidden error populations
    // then take relayed spikes on their aux port.
    for (const auto mode : {core::FeedbackMode::DFA, core::FeedbackMode::FA}) {
        SCOPED_TRACE(mode == core::FeedbackMode::FA ? "FA" : "DFA");
        opt.feedback = mode;
        auto reference = single_net(opt);
        for (const auto& s : train.samples) reference.train_sample(s.image, s.label);
        std::vector<std::vector<std::int32_t>> probe_counts;
        for (const auto& s : probe.samples)
            probe_counts.push_back(reference.output_counts(s.image));
        // Snapshot after exactly one train pass + one probe pass; each sharded
        // run below performs the identical sequence.
        const loihi::ActivityTotals reference_activity = reference.chip().activity();

        for (const std::size_t shards : {2u, 4u}) {
            SCOPED_TRACE(shards);
            auto sharded = sharded_net(opt, shards);
            for (const auto& s : train.samples) sharded.train_sample(s.image, s.label);
            EXPECT_EQ(reference.plastic_weights(), sharded.plastic_weights());
            for (std::size_t i = 0; i < probe.samples.size(); ++i)
                EXPECT_EQ(probe_counts[i], sharded.output_counts(probe.samples[i].image));
            // The energy model's inputs survive sharding: every counter equals
            // the single chip's when no RNG stream diverges.
            expect_activity_equal(reference_activity, sharded.chip().activity());
        }
    }
}

// ---- a cut projection is an ordinary projection on its destination's
// shard: stuck-at faults carry over, and the mapping is the single chip's --

TEST(ShardedExecution, StuckSynapsesOnCutPlasticProjectionsTrainBitIdentically) {
    auto opt = small_opt();
    opt.feedback = core::FeedbackMode::FA;
    opt.stochastic_rounding = false;
    constexpr std::size_t kClasses4 = 4;
    core::EmstdpNetwork single(opt, 1, 12, 12, nullptr, {40, 30}, kClasses4);
    for (std::size_t l = 0; l < single.plastic_projections().size(); ++l)
        loihi::stick_fraction(single.chip(), single.plastic_projections()[l],
                              0.1, 3, 100 + l);

    core::ShardedEmstdpNetwork sharded(single, 4);
    ASSERT_EQ(sharded.num_shards(), 4u);
    std::size_t cut_stuck = 0;
    for (const auto q : single.plastic_projections())
        if (sharded.chip().projection_is_cut(q))
            cut_stuck += single.chip().stuck_synapse_count(q);
    ASSERT_GT(cut_stuck, 0u);

    data::GenOptions gen;
    gen.count = 12;
    gen.seed = 5;
    gen.height = 12;
    gen.width = 12;
    const auto train = data::make_digits(gen);
    single.chip().reset_activity();
    for (const auto& s : train.samples) {
        single.train_sample(s.image, s.label % kClasses4);
        sharded.train_sample(s.image, s.label % kClasses4);
    }
    EXPECT_EQ(single.plastic_weights(), sharded.plastic_weights());
    expect_activity_equal(single.chip().activity(), sharded.chip().activity());
}

TEST(ShardedExecution, EachPopulationMapsOnItsShardAsOnTheSingleChip) {
    auto opt = small_opt();
    opt.feedback = core::FeedbackMode::FA;
    const core::EmstdpNetwork single(opt, 1, 28, 28, nullptr, {300, 200}, 10);
    const loihi::Chip& proto = single.chip();

    for (const std::size_t shards : {2u, 4u}) {
        SCOPED_TRACE(shards);
        const core::ShardedEmstdpNetwork sharded(single, shards);
        ASSERT_EQ(sharded.num_shards(), shards);
        // Populations are rebuilt on their shard in prototype build order,
        // ahead of the shard's relays.
        std::vector<loihi::PopulationId> next_local(shards, 0);
        for (loihi::PopulationId p = 0; p < proto.num_populations(); ++p) {
            const std::size_t s = sharded.plan().shard_of[p];
            const loihi::Chip& chip = sharded.chip().shard(s);
            const loihi::PopulationId local = next_local[s]++;
            SCOPED_TRACE(proto.population_config(p).name);
            ASSERT_EQ(chip.population_config(local).name,
                      proto.population_config(p).name);
            const auto& want = proto.mapping().layers[p];
            const auto& got = chip.mapping().layers[local];
            EXPECT_EQ(got.num_cores, want.num_cores);
            EXPECT_EQ(got.synapses_per_core, want.synapses_per_core);
            EXPECT_EQ(got.plastic_synapses_per_core, want.plastic_synapses_per_core);
            EXPECT_EQ(got.compartments_per_core, want.compartments_per_core);
        }
        std::size_t relays = 0;
        for (std::size_t s = 0; s < shards; ++s) {
            const loihi::Chip& chip = sharded.chip().shard(s);
            for (loihi::PopulationId p = next_local[s]; p < chip.num_populations();
                 ++p, ++relays) {
                EXPECT_TRUE(chip.is_relay(p));
                EXPECT_EQ(chip.mapping().layers[p].num_cores, 0u);
            }
            EXPECT_EQ(chip.mapping().total_cores, sharded.plan().cores_per_shard[s]);
        }
        EXPECT_GT(relays, 0u);
    }
}

// ---- determinism: stochastic rounding on, any shard count, any thread
// count, any run -> identical weights ------------------------------------

TEST(ShardedExecution, MultiShardTrainingDeterministic) {
    const auto train = digits(12);
    for (const std::size_t shards : {2u, 4u}) {
        SCOPED_TRACE(shards);
        std::vector<std::vector<std::vector<std::int32_t>>> results;
        for (const std::size_t threads : {1u, 2u, 4u}) {
            auto net = sharded_net(small_opt(), shards, threads);
            for (const auto& s : train.samples) net.train_sample(s.image, s.label);
            results.push_back(net.plastic_weights());
        }
        EXPECT_EQ(results[0], results[1]);
        EXPECT_EQ(results[0], results[2]);
        // Repeat run, same thread count: identical again.
        auto net = sharded_net(small_opt(), shards, 2);
        for (const auto& s : train.samples) net.train_sample(s.image, s.label);
        EXPECT_EQ(results[0], net.plastic_weights());
    }
}

// ---- multi-shard training learns (cut plastic projections update) --------

namespace {

/// Prototype-per-class task (the configuration of core_test's on-chip
/// learning tests — the digits substitute needs far more data than a unit
/// test should spend).
data::Dataset toy_task(std::size_t dims, std::size_t classes, std::size_t n,
                       common::Rng& rng,
                       const std::vector<std::vector<float>>& protos) {
    data::Dataset d;
    d.name = "toy";
    d.channels = 1;
    d.height = 1;
    d.width = dims;
    d.num_classes = classes;
    for (std::size_t i = 0; i < n; ++i) {
        const auto c = static_cast<std::size_t>(
            rng.uniform_int(0, static_cast<std::int64_t>(classes) - 1));
        common::Tensor x({1, 1, dims});
        for (std::size_t k = 0; k < dims; ++k) {
            const float v =
                protos[c][k] + static_cast<float>(rng.normal(0.0, 0.08));
            x[k] = v < 0.0f ? 0.0f : (v > 1.0f ? 1.0f : v);
        }
        d.samples.push_back({std::move(x), c});
    }
    return d;
}

}  // namespace

TEST(ShardedExecution, MultiShardTrainingLearns) {
    const std::size_t dims = 20, classes = 4;
    common::Rng rng(12);
    std::vector<std::vector<float>> protos(classes, std::vector<float>(dims));
    for (auto& p : protos)
        for (auto& v : p) v = static_cast<float>(rng.uniform());
    const auto train = toy_task(dims, classes, 500, rng, protos);
    const auto test = toy_task(dims, classes, 120, rng, protos);

    core::ShardedEmstdpNetwork net(small_opt(), 1, 1, dims, nullptr, {30},
                                   classes, /*num_shards=*/2);
    ASSERT_EQ(net.num_shards(), 2u);
    ASSERT_GT(net.plan().cut_synapses, 0u);

    // Both plastic layers must actually change — including any that cross
    // the cut — and accuracy must clear chance (0.25) by a wide margin.
    const auto w0 = net.plastic_weights();
    for (const auto& s : train.samples) net.train_sample(s.image, s.label);
    const auto w1 = net.plastic_weights();
    ASSERT_EQ(w0.size(), w1.size());
    for (std::size_t l = 0; l < w0.size(); ++l)
        EXPECT_NE(w0[l], w1[l]) << "plastic layer " << l << " never updated";

    std::size_t hits = 0;
    for (const auto& s : test.samples)
        if (net.predict(s.image) == s.label) ++hits;
    EXPECT_GT(static_cast<double>(hits) / static_cast<double>(test.size()), 0.6);
}

// ---- router timing: delays and resets, step for step ----------------------

namespace {

/// src (1 IF neuron, bias-driven) -> dst (1 silent integrator) through one
/// synapse with the given extra delay.
loihi::Chip two_pop_chain(std::uint8_t delay) {
    loihi::Chip chip;
    loihi::PopulationConfig src;
    src.name = "src";
    src.size = 1;
    src.compartment.vth = 2;
    const auto s = chip.add_population(src);
    loihi::PopulationConfig dst;
    dst.name = "dst";
    dst.size = 1;
    dst.compartment.vth = 1 << 20;
    const auto d = chip.add_population(dst);
    loihi::ProjectionConfig pc;
    pc.name = "link";
    pc.src = s;
    pc.dst = d;
    chip.add_projection(pc, {{0, 0, 10, delay}});
    chip.finalize();
    chip.set_bias(s, {1});
    return chip;
}

}  // namespace

TEST(ShardedExecution, CrossShardDelaysAndResetsMatchSingleChipStepForStep) {
    for (const std::uint8_t delay : {std::uint8_t{0}, std::uint8_t{3}}) {
        SCOPED_TRACE(static_cast<int>(delay));
        auto single = two_pop_chain(delay);
        loihi::ShardPlan plan;
        plan.num_shards = 2;
        plan.shard_of = {0, 1};
        plan.cores_per_shard = {1, 1};
        loihi::ShardedChip sharded(single, plan, /*step_threads=*/1);
        ASSERT_TRUE(sharded.projection_is_cut(0));
        // (The split captured the prototype's bias registers; resets below
        // keep them, exactly like the single chip.)

        for (std::size_t t = 0; t < 20; ++t) {
            // Membrane resets mid-flight: pending input dies, delayed events
            // on the wheel survive — on both substrates identically.
            if (t == 7) {
                single.reset_membranes();
                sharded.reset_membranes();
            }
            if (t == 13) {
                single.reset_dynamic_state();
                sharded.reset_dynamic_state();
            }
            single.step();
            sharded.step();
            EXPECT_EQ(single.membrane(1, 0), sharded.membrane(1, 0))
                << "step " << t;
            EXPECT_EQ(single.spike_counts_total(0),
                      sharded.spike_counts_total(0))
                << "step " << t;
        }
    }
}

// ---- runtime surface -------------------------------------------------------

TEST(ShardedExecution, ShardedModelKeepsSessionApi) {
    const auto train = digits(20);
    const auto probe = digits(8, 31);
    const auto model = runtime::CompiledModel::compile(
        sharded_spec(2), runtime::BackendKind::LoihiSim);
    EXPECT_EQ(model->backend(), runtime::BackendKind::LoihiSim);

    auto session = model->open_session();
    ASSERT_NE(session->native_sharded_network(), nullptr);
    EXPECT_EQ(session->native_sharded_network()->num_shards(), 2u);
    common::Rng rng(42);
    core::train_epoch(*session, train, rng);

    // Canonical snapshot: loads into the single-chip backend, and identical
    // weights give bit-identical inference there (the forward pass is
    // integer and RNG-free).
    const auto snap = session->weights();
    auto single = runtime::CompiledModel::compile(sharded_spec(0),
                                                  runtime::BackendKind::LoihiSim)
                      ->with_weights(snap)
                      ->open_session();
    for (const auto& s : probe.samples) {
        EXPECT_EQ(session->output_counts(s.image), single->output_counts(s.image));
        EXPECT_EQ(session->predict(s.image), single->predict(s.image));
    }

    // Activity + energy capabilities work on the sharded session.
    ASSERT_NE(session->activity(), nullptr);
    EXPECT_GT(session->activity()->spikes, 0u);
    const auto report =
        core::measure_energy(*session, probe, 4, false, loihi::EnergyModelParams{});
    EXPECT_GT(report.fps, 0.0);
    EXPECT_GT(report.cores, 0u);
}

TEST(ShardedExecution, AutoPlanOnSmallModelDegeneratesToSingleChipPath) {
    const auto model = runtime::CompiledModel::compile(
        sharded_spec(0), runtime::BackendKind::LoihiSim);
    EXPECT_EQ(model->backend(), runtime::BackendKind::LoihiSim);
    auto session = model->open_session();
    // Degenerate plan: the session IS the single-chip path.
    EXPECT_NE(session->native_network(), nullptr);
    EXPECT_EQ(session->native_sharded_network(), nullptr);

    const auto single = runtime::CompiledModel::compile(
        sharded_spec(0), runtime::BackendKind::LoihiSim);
    EXPECT_EQ(session->weights().layers, single->initial_weights().layers);
}

TEST(ShardedExecution, LoihiSimTransparentlySpillsOverBudgetModels) {
    // ~145 cores at 10 neurons/core: more than one chip, but every
    // population fits one, so the LoihiSim compile spills to a shard plan
    // behind the same API.
    runtime::ModelSpec spec;
    spec.input(1, kSide, kSide)
        .hidden_layers({700, 700})
        .output_classes(kClasses)
        .with_options(small_opt());
    const auto model =
        runtime::CompiledModel::compile(spec, runtime::BackendKind::LoihiSim);
    EXPECT_EQ(model->backend(), runtime::BackendKind::LoihiSim);
    auto session = model->open_session();
    auto* net = session->native_sharded_network();
    ASSERT_NE(net, nullptr);
    EXPECT_GE(net->num_shards(), 2u);
    for (const auto cores : net->plan().cores_per_shard)
        EXPECT_LE(cores, loihi::ChipLimits{}.num_cores);

    // shards == 1 pins the permissive single chip, over budget or not.
    const auto pinned = runtime::CompiledModel::compile(
        spec.with_shards(1), runtime::BackendKind::LoihiSim);
    auto one_chip = pinned->open_session();
    ASSERT_NE(one_chip->native_network(), nullptr);
    EXPECT_EQ(one_chip->native_sharded_network(), nullptr);
    EXPECT_FALSE(one_chip->native_network()->chip().mapping().feasible);
}

TEST(ShardedExecution, UnshardablePopulationErrorsCleanlyWhenShardsAreForced) {
    // One dense layer of 2000 neurons at 10/core needs 200 cores — more
    // than a chip, and populations cannot split. A forced shard count must
    // reject it; the permissive single-chip simulator still accepts it.
    runtime::ModelSpec spec;
    spec.input(1, kSide, kSide)
        .hidden_layers({2000})
        .output_classes(kClasses)
        .with_options(small_opt());
    EXPECT_THROW(runtime::CompiledModel::compile(
                     spec.with_shards(2), runtime::BackendKind::LoihiSim),
                 std::invalid_argument);
    spec.with_shards(0);
    EXPECT_NO_THROW(runtime::CompiledModel::compile(
        spec, runtime::BackendKind::LoihiSim));
}

TEST(ShardedExecution, SpikeInsertionModeIsRejected) {
    auto opt = small_opt();
    opt.input_mode = core::InputMode::SpikeInsertion;
    EXPECT_THROW(core::ShardedEmstdpNetwork(opt, 1, kSide, kSide, nullptr,
                                            {kHidden}, kClasses, 2),
                 std::invalid_argument);
}

// ---- sessions: shared structure, independent state, concurrency ----------

TEST(ShardedExecution, ShardedSessionsShareStructureAndStayIndependent) {
    const auto train = digits(6);
    const auto model = runtime::CompiledModel::compile(
        sharded_spec(2), runtime::BackendKind::LoihiSim);

    auto a = model->open_session();
    auto b = model->open_session();
    auto& chips_a = a->native_sharded_network()->chip();
    auto& chips_b = b->native_sharded_network()->chip();
    for (std::size_t s = 0; s < chips_a.num_shards(); ++s) {
        EXPECT_TRUE(chips_a.shard(s).shares_structure_with(chips_b.shard(s)));
        EXPECT_TRUE(chips_a.shard(s).shares_weights_with(chips_b.shard(s)));
    }

    const auto b_before = b->weights();
    for (const auto& s : train.samples) a->train(s.image, s.label);
    EXPECT_EQ(b->weights().layers, b_before.layers);
    EXPECT_EQ(b->weights().layers, model->initial_weights().layers);
    EXPECT_NE(a->weights().layers, b_before.layers);
    for (std::size_t s = 0; s < chips_a.num_shards(); ++s)
        EXPECT_TRUE(chips_a.shard(s).shares_structure_with(chips_b.shard(s)));
}

TEST(ShardedExecution, ConcurrentShardedSessionsMatchSerial) {
    const auto train = digits(8);
    const auto probe = digits(6, 23);
    const auto model = runtime::CompiledModel::compile(
        sharded_spec(2), runtime::BackendKind::LoihiSim);

    // Serial ground truth.
    auto serial = model->open_session();
    for (const auto& s : train.samples) serial->train(s.image, s.label);
    const auto expected = serial->weights();

    // Two sessions train the same stream concurrently (each steps its own
    // shards on its own pool); both must reproduce the serial result.
    std::vector<std::unique_ptr<runtime::Session>> sessions;
    sessions.push_back(model->open_session());
    sessions.push_back(model->open_session());
    common::ThreadPool pool(2);
    pool.run(2, [&](std::size_t t) {
        for (const auto& s : train.samples) sessions[t]->train(s.image, s.label);
    });
    for (auto& session : sessions)
        EXPECT_EQ(session->weights().layers, expected.layers);
    for (const auto& s : probe.samples)
        EXPECT_EQ(sessions[0]->predict(s.image), sessions[1]->predict(s.image));
}

// ---- replication of a trained network across more chips -------------------

TEST(ShardedExecution, ShardingATrainedNetworkPreservesInference) {
    const auto train = digits(20);
    const auto probe = digits(8, 41);
    auto master = single_net(small_opt());
    for (const auto& s : train.samples) master.train_sample(s.image, s.label);

    core::ShardedEmstdpNetwork sharded(master, 2);
    EXPECT_EQ(master.plastic_weights(), sharded.plastic_weights());
    for (const auto& s : probe.samples) {
        EXPECT_EQ(master.output_counts(s.image), sharded.output_counts(s.image));
        EXPECT_EQ(master.predict(s.image), sharded.predict(s.image));
    }
}

TEST(ShardedExecution, SplitCapturesLiveLearningRulesAndClassMask) {
    auto opt = small_opt();
    opt.stochastic_rounding = false;  // training below must be RNG-free
    const auto train = digits(6);

    auto master = single_net(opt);
    // Post-finalize state the split must capture: reprogrammed microcode
    // (halved learning rate) and a class mask.
    master.set_learning_shift_offset(1);
    std::vector<bool> mask(kClasses, true);
    mask[3] = false;
    master.set_class_mask(mask);

    core::ShardedEmstdpNetwork sharded(master, 2);
    // Same reprogrammed rule on both substrates -> identical updates.
    for (const auto& s : train.samples) {
        master.train_sample(s.image, s.label);
        sharded.train_sample(s.image, s.label);
    }
    EXPECT_EQ(master.plastic_weights(), sharded.plastic_weights());
    // The captured clamp keeps the masked class silent on the split too.
    for (const auto& s : train.samples) EXPECT_NE(sharded.predict(s.image), 3u);
}
