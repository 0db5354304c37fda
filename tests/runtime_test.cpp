// Tests for the session-based runtime API (src/runtime): spec -> compile ->
// session lifecycle, backend conformance, structure sharing / copy-on-write
// weights, bit-for-bit equivalence with the pre-runtime EmstdpNetwork path,
// cross-backend weight portability, and checkpoint round-trips.

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <memory>
#include <type_traits>
#include <vector>

#include "common/rng.hpp"
#include "common/threadpool.hpp"
#include "core/network.hpp"
#include "core/trainer.hpp"
#include "data/dataset.hpp"
#include "runtime/backend.hpp"
#include "runtime/compiled_model.hpp"
#include "runtime/loihi_backend.hpp"
#include "runtime/weights.hpp"

using namespace neuro;

namespace {

constexpr std::size_t kSide = 12;
constexpr std::size_t kClasses = 10;

data::Dataset digits(std::size_t count, std::uint64_t seed = 5) {
    data::GenOptions gen;
    gen.count = count;
    gen.seed = seed;
    gen.height = kSide;
    gen.width = kSide;
    return data::make_digits(gen);
}

runtime::ModelSpec small_spec(std::uint64_t seed = 7) {
    core::EmstdpOptions opt;
    opt.seed = seed;
    runtime::ModelSpec spec;
    spec.input(1, kSide, kSide)
        .hidden_layers({40})
        .output_classes(kClasses)
        .with_options(opt);
    return spec;
}

core::EmstdpNetwork legacy_network(std::uint64_t seed = 7) {
    core::EmstdpOptions opt;
    opt.seed = seed;
    return core::EmstdpNetwork(opt, 1, kSide, kSide, nullptr, {40}, kClasses);
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

}  // namespace

// ---- acceptance: bit-for-bit with the pre-runtime surface -----------------

TEST(Runtime, LoihiSessionBitIdenticalToLegacyNetwork) {
    const auto train = digits(48);
    const auto probe = digits(8, 17);

    auto legacy = legacy_network();
    const auto model = runtime::CompiledModel::compile(
        small_spec(), runtime::BackendKind::LoihiSim);
    auto session = model->open_session();

    common::Rng rng_a(42), rng_b(42);
    core::train_epoch(legacy, train, rng_a, true);
    core::train_epoch(*session, train, rng_b, true);

    // Weights: identical after a full training epoch.
    EXPECT_EQ(legacy.plastic_weights(), session->weights().layers);

    // Spike counts on fresh probe images: identical.
    for (const auto& s : probe.samples)
        EXPECT_EQ(legacy.output_counts(s.image),
                  session->output_counts(s.image));

    // Activity totals (the energy model's input): identical.
    ASSERT_NE(session->activity(), nullptr);
    expect_activity_equal(legacy.chip().activity(), *session->activity());
}

// ---- acceptance: concurrent sessions over one shared model ----------------

TEST(Runtime, ConcurrentSessionsShareStructureWithoutDeepCopy) {
    const auto test = digits(60, 23);
    const auto model = runtime::CompiledModel::compile(
        small_spec(), runtime::BackendKind::LoihiSim);

    // Serial ground truth.
    auto serial = model->open_session();
    std::vector<std::size_t> expected;
    expected.reserve(test.size());
    for (const auto& s : test.samples)
        expected.push_back(serial->predict(s.image));

    const std::size_t threads = 4;
    std::vector<std::unique_ptr<runtime::Session>> sessions;
    for (std::size_t t = 0; t < threads; ++t)
        sessions.push_back(model->open_session());

    // No per-thread chip deep-copy: every session reads the model's shared
    // structure, and inference never detaches the weight image.
    const auto& chip0 = sessions[0]->native_network()->chip();
    for (std::size_t t = 1; t < threads; ++t) {
        const auto& chip_t = sessions[t]->native_network()->chip();
        EXPECT_TRUE(chip0.shares_structure_with(chip_t));
        EXPECT_TRUE(chip0.shares_weights_with(chip_t));
    }

    std::vector<std::size_t> got(test.size(), 0);
    common::ThreadPool pool(threads);
    pool.run(threads, [&](std::size_t t) {
        for (std::size_t i = t; i < test.size(); i += threads)
            got[i] = sessions[t]->predict(test.samples[i].image);
    });
    EXPECT_EQ(got, expected);

    // Inference alone never copied the weight image.
    for (std::size_t t = 1; t < threads; ++t)
        EXPECT_TRUE(chip0.shares_weights_with(
            sessions[t]->native_network()->chip()));
}

TEST(Runtime, TrainingDetachesWeightsCopyOnWrite) {
    const auto train = digits(4);
    const auto model = runtime::CompiledModel::compile(
        small_spec(), runtime::BackendKind::LoihiSim);
    auto a = model->open_session();
    auto b = model->open_session();

    const auto& chip_a = a->native_network()->chip();
    const auto& chip_b = b->native_network()->chip();
    ASSERT_TRUE(chip_a.shares_weights_with(chip_b));

    const auto b_before = b->weights();
    a->train(train.samples[0].image, train.samples[0].label);

    // a detached and diverged; b still reads the original image.
    EXPECT_FALSE(chip_a.shares_weights_with(chip_b));
    EXPECT_TRUE(chip_a.shares_structure_with(chip_b));
    EXPECT_EQ(b->weights().layers, b_before.layers);
    EXPECT_EQ(b->weights().layers, model->initial_weights().layers);
    EXPECT_NE(a->weights().layers, b_before.layers);
}

TEST(Runtime, SessionsOpenedLaterStartFromFrozenState) {
    const auto train = digits(6);
    const auto model = runtime::CompiledModel::compile(
        small_spec(), runtime::BackendKind::LoihiSim);
    auto first = model->open_session();
    for (const auto& s : train.samples) first->train(s.image, s.label);

    // A session opened after `first` trained is unaffected by it.
    auto second = model->open_session();
    EXPECT_EQ(second->weights().layers, model->initial_weights().layers);
}

// ---- explicit replication (no implicit copies) ----------------------------

TEST(Runtime, ReplicateIsExplicitAndIndependent) {
    static_assert(!std::is_copy_assignable_v<core::EmstdpNetwork>,
                  "implicit copy-assignment must be deleted");
    static_assert(!std::is_copy_constructible_v<core::EmstdpNetwork>,
                  "implicit copy-construction must be inaccessible");

    const auto train = digits(6);
    auto master = legacy_network();
    auto replica = master.replicate();

    const auto w0 = master.plastic_weights();
    EXPECT_EQ(w0, replica.plastic_weights());

    for (const auto& s : train.samples) replica.train_sample(s.image, s.label);
    EXPECT_EQ(w0, master.plastic_weights());  // master untouched
    EXPECT_NE(w0, replica.plastic_weights());

    // Replicas of a *trained* network capture its weights.
    auto replica2 = replica.replicate();
    EXPECT_EQ(replica.plastic_weights(), replica2.plastic_weights());
}

TEST(Runtime, AdoptCapturesMasterState) {
    const auto train = digits(12);
    const auto probe = digits(8, 31);
    auto master = legacy_network();
    common::Rng rng(9);
    core::train_epoch(master, train, rng);

    const auto model = runtime::adopt(master);
    auto session = model->open_session();
    EXPECT_EQ(master.plastic_weights(), session->weights().layers);
    for (const auto& s : probe.samples)
        EXPECT_EQ(master.predict(s.image), session->predict(s.image));
}

// ---- cross-backend parity --------------------------------------------------

TEST(Runtime, SnapshotLoadsAcrossBackendsWithConsistentPredictions) {
    const auto all = digits(260, 3);
    const auto [train, test] = data::split(all, 200);

    const auto spec = small_spec();
    const auto chip_model =
        runtime::CompiledModel::compile(spec, runtime::BackendKind::LoihiSim);
    auto chip_session = chip_model->open_session();
    common::Rng rng(42);
    core::train_epoch(*chip_session, train, rng);

    // Same snapshot, both backends (no conv stack: the raw image doubles as
    // the rate vector on the reference).
    const auto snap = chip_session->weights();
    auto ref_session =
        runtime::CompiledModel::compile(spec, runtime::BackendKind::Reference)
            ->with_weights(snap)
            ->open_session();

    // Round-trip through the reference's float weights stays on the same
    // chip-grid points.
    EXPECT_EQ(ref_session->weights().layers, snap.layers);

    std::size_t agree = 0;
    for (const auto& s : test.samples)
        if (ref_session->predict(s.image) == chip_session->predict(s.image))
            ++agree;
    // 8-bit integer vs float dynamics: identical weights, near-identical
    // decisions (empirically ~90%+; the bound leaves quantization margin).
    EXPECT_GE(static_cast<double>(agree) / static_cast<double>(test.size()),
              0.75);
}

TEST(Runtime, BackendsConformToSessionContract) {
    const auto train = digits(8);
    for (const auto* backend : runtime::backends()) {
        SCOPED_TRACE(backend->name());
        const auto model = backend->compile(small_spec());
        EXPECT_EQ(model->backend(), backend->kind());
        auto session = model->open_session();

        // train/predict/output_counts work and are self-consistent.
        for (const auto& s : train.samples) session->train(s.image, s.label);
        const auto counts = session->output_counts(train.samples[0].image);
        EXPECT_EQ(counts.size(), kClasses);
        EXPECT_LT(session->predict(train.samples[0].image), kClasses);

        // Weight snapshots round-trip through the canonical representation.
        const auto snap = session->weights();
        ASSERT_EQ(snap.layers.size(), 2u);
        session->load_weights(snap);
        EXPECT_EQ(session->weights().layers, snap.layers);

        // Knobs are accepted on every backend.
        session->seed_noise(123);
        session->set_learning_shift_offset(1);
        std::vector<bool> mask(kClasses, true);
        mask[0] = false;
        session->set_class_mask(mask);
    }
}

TEST(Runtime, ReferenceBackendRejectsConvSpecs) {
    snn::ConvertedStack stack;
    stack.conv1.spec = {1, kSide, kSide, 1, 3, 1};
    stack.conv1.weights.assign(stack.conv1.spec.fan_in(), 1);
    stack.conv1.bias.assign(stack.conv1.spec.out_size(), 0);
    stack.conv2.spec = {1, stack.conv1.spec.out_h(), stack.conv1.spec.out_w(),
                        1, 3, 1};
    stack.conv2.weights.assign(stack.conv2.spec.fan_in(), 1);
    stack.conv2.bias.assign(stack.conv2.spec.out_size(), 0);

    auto spec = small_spec();
    spec.with_conv(stack);
    EXPECT_THROW(runtime::CompiledModel::compile(
                     spec, runtime::BackendKind::Reference),
                 std::invalid_argument);
    // The chip backend accepts the same spec.
    EXPECT_NO_THROW(runtime::CompiledModel::compile(
        spec, runtime::BackendKind::LoihiSim));
}

TEST(Runtime, SpecValidationRejectsNonsense) {
    EXPECT_THROW(runtime::ModelSpec{}.validate(), std::invalid_argument);
    auto spec = small_spec();
    spec.output_classes(0);
    EXPECT_THROW(
        runtime::CompiledModel::compile(spec, runtime::BackendKind::LoihiSim),
        std::invalid_argument);
}

TEST(Runtime, SpecValidationRejectsBrokenConvGeometry) {
    auto stack_spec = [] {
        snn::ConvertedStack stack;
        stack.conv1.spec = {1, kSide, kSide, 2, 3, 1};
        stack.conv1.weights.assign(2 * stack.conv1.spec.fan_in(), 1);
        stack.conv1.bias.assign(stack.conv1.spec.out_size(), 0);
        stack.conv2.spec = {2, stack.conv1.spec.out_h(), stack.conv1.spec.out_w(),
                            1, 3, 1};
        stack.conv2.weights.assign(stack.conv2.spec.fan_in(), 1);
        stack.conv2.bias.assign(stack.conv2.spec.out_size(), 0);
        return stack;
    };
    auto compile = [](const snn::ConvertedStack& stack) {
        auto spec = small_spec();
        spec.with_conv(stack);
        return runtime::CompiledModel::compile(spec,
                                               runtime::BackendKind::LoihiSim);
    };
    EXPECT_NO_THROW(compile(stack_spec()));

    // A zero stride used to divide by zero in ConvSpec::out_size().
    auto zero_stride = stack_spec();
    zero_stride.conv1.spec.stride = 0;
    EXPECT_THROW(compile(zero_stride), std::invalid_argument);
    zero_stride = stack_spec();
    zero_stride.conv2.spec.stride = 0;
    EXPECT_THROW(compile(zero_stride), std::invalid_argument);

    // conv2 must read exactly conv1's output: its sources are conv1's
    // placed compartments.
    auto channels = stack_spec();
    channels.conv2.spec.in_c = 1;
    channels.conv2.weights.assign(channels.conv2.spec.fan_in(), 1);
    EXPECT_THROW(compile(channels), std::invalid_argument);
    auto height = stack_spec();
    height.conv2.spec.in_h -= 1;
    height.conv2.bias.assign(height.conv2.spec.out_size(), 0);
    EXPECT_THROW(compile(height), std::invalid_argument);
}

// ---- checkpointing ---------------------------------------------------------

TEST(Runtime, SnapshotSaveLoadRoundTrip) {
    const auto train = digits(16);
    const auto probe = digits(8, 19);
    const auto model = runtime::CompiledModel::compile(
        small_spec(), runtime::BackendKind::LoihiSim);
    auto session = model->open_session();
    common::Rng rng(42);
    core::train_epoch(*session, train, rng);

    const std::string path = "runtime_test_roundtrip.weights";
    session->save(path);
    const auto loaded = runtime::load_snapshot(path);
    EXPECT_EQ(loaded.layers, session->weights().layers);

    // A fresh model seeded with the loaded snapshot reproduces the trained
    // session's behaviour exactly (same backend, same weights).
    auto restored = model->with_weights(loaded)->open_session();
    EXPECT_EQ(restored->weights().layers, session->weights().layers);
    for (const auto& s : probe.samples)
        EXPECT_EQ(restored->output_counts(s.image),
                  session->output_counts(s.image));
    std::remove(path.c_str());
}

// ---- snapshot-format hardening ----------------------------------------------

namespace {

/// Writes a snapshot in the PR 2 v1 layout (no checksum) so the v1
/// compatibility contract stays pinned even though save_snapshot now
/// emits v2.
void write_v1_snapshot(const std::string& path,
                       const runtime::WeightSnapshot& snap) {
    std::ofstream out(path, std::ios::binary);
    auto put32 = [&](std::uint32_t v) {
        out.write(reinterpret_cast<const char*>(&v), sizeof(v));
    };
    put32(0x4E525753);  // "NRWS"
    put32(1);           // version 1
    put32(static_cast<std::uint32_t>(snap.layers.size()));
    for (const auto& layer : snap.layers) {
        put32(static_cast<std::uint32_t>(layer.size()));
        for (const auto w : layer) put32(static_cast<std::uint32_t>(w));
    }
}

}  // namespace

TEST(Runtime, SnapshotV1FilesStillLoad) {
    const runtime::WeightSnapshot snap{{{5, -6, 7}, {8, -9}}};
    const std::string path = "runtime_test_v1.weights";
    write_v1_snapshot(path, snap);
    EXPECT_EQ(runtime::load_snapshot(path).layers, snap.layers);
    std::remove(path.c_str());
}

TEST(Runtime, SnapshotRejectsCorruptionAndTruncation) {
    const runtime::WeightSnapshot snap{{{11, 22, 33, 44}, {55, 66}}};
    const std::string path = "runtime_test_corrupt.weights";
    runtime::save_snapshot(path, snap);

    // Baseline: the untouched file round-trips.
    EXPECT_EQ(runtime::load_snapshot(path).layers, snap.layers);

    // One flipped payload byte trips the trailing checksum.
    {
        std::fstream f(path, std::ios::in | std::ios::out | std::ios::binary);
        f.seekp(14);
        char b = 0x21;
        f.write(&b, 1);
    }
    EXPECT_THROW(runtime::load_snapshot(path), std::runtime_error);

    // A truncated file fails loudly too (checksum or short read).
    runtime::save_snapshot(path, snap);
    std::filesystem::resize_file(path, std::filesystem::file_size(path) - 5);
    EXPECT_THROW(runtime::load_snapshot(path), std::runtime_error);
    std::remove(path.c_str());
}

TEST(Runtime, SnapshotRejectsAbsurdCountsBeforeAllocating) {
    // A hand-built file whose layer count / element counts announce far
    // more data than the file holds must be rejected up front (clear
    // error, no multi-gigabyte resize, no bad_alloc).
    const std::string path = "runtime_test_absurd.weights";
    auto write_header = [&](std::uint32_t layers, std::uint32_t elements) {
        std::ofstream out(path, std::ios::binary);
        auto put32 = [&](std::uint32_t v) {
            out.write(reinterpret_cast<const char*>(&v), sizeof(v));
        };
        put32(0x4E525753);
        put32(1);  // v1: no checksum to satisfy, purely the size checks
        put32(layers);
        if (layers > 0) put32(elements);
    };
    write_header(0xFFFFFFFFu, 0);  // absurd layer count
    EXPECT_THROW(runtime::load_snapshot(path), std::runtime_error);
    write_header(1, 0x7FFFFFFFu);  // absurd element count in one layer
    EXPECT_THROW(runtime::load_snapshot(path), std::runtime_error);
    std::remove(path.c_str());
}

TEST(Runtime, EnergyMeasurementThroughSessions) {
    const auto ds = digits(8);
    const loihi::EnergyModelParams params;

    auto chip_session = runtime::CompiledModel::compile(
                            small_spec(), runtime::BackendKind::LoihiSim)
                            ->open_session();
    const auto report = core::measure_energy(*chip_session, ds, 4, true, params);
    EXPECT_GT(report.fps, 0.0);

    auto ref_session = runtime::CompiledModel::compile(
                           small_spec(), runtime::BackendKind::Reference)
                           ->open_session();
    EXPECT_EQ(ref_session->activity(), nullptr);
    EXPECT_THROW(core::measure_energy(*ref_session, ds, 4, true, params),
                 std::invalid_argument);
}

// ---- the trainer loops stay equivalent across surfaces ----------------------

TEST(Runtime, SessionTrainEpochMatchesNetworkTrainEpoch) {
    const auto all = digits(80, 11);
    const auto [train, test] = data::split(all, 60);

    auto legacy = legacy_network();
    auto session = runtime::CompiledModel::compile(
                       small_spec(), runtime::BackendKind::LoihiSim)
                       ->open_session();

    common::Rng rng_a(7), rng_b(7);
    const double preq_a = core::train_epoch(legacy, train, rng_a, true);
    const double preq_b = core::train_epoch(*session, train, rng_b, true);
    EXPECT_DOUBLE_EQ(preq_a, preq_b);
    EXPECT_DOUBLE_EQ(core::evaluate(legacy, test),
                     core::evaluate(*session, test));
}
