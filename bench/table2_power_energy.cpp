// Table II — Power and Energy.
//
// Paper (training / testing, batch 1, pretrained convs):
//             FPS   Power(W)  Energy(mJ/img) | FPS   Power(W)  Energy(mJ/img)
//   i7 8700   422   58        137            | 1536  58        37
//   RTX 5000  625   48        77             | 2857  47        16
//   Loihi     50    0.42      8.4            | 97    0.24      2.47
//
// This harness produces:
//  * Loihi-sim rows from the event-based energy model driven by measured
//    simulator activity on the paper network (10 neurons/core packing, the
//    operating point the paper chose from Fig. 3);
//  * a host-CPU row measured by wall-clock timing our own full-precision
//    implementation (with a configurable package-power constant, default
//    58 W to mirror the paper's i7-8700 TDP-class figure);
//  * the paper's reported rows for side-by-side comparison.
//
// Shape target: the neuromorphic rows sit 1-2 orders of magnitude below the
// general-purpose rows in both power and energy per image, while being
// 1-2 orders slower in throughput.

#include <chrono>
#include <cstdio>

#include "bench_util.hpp"
#include "common/cli.hpp"
#include "core/experiment.hpp"
#include "core/trainer.hpp"

using namespace neuro;
using Clock = std::chrono::steady_clock;

namespace {

struct DeviceRow {
    std::string device;
    double train_fps, train_w, train_mj;
    double test_fps, test_w, test_mj;
};

void add(common::Table& t, common::CsvWriter& csv, const DeviceRow& r) {
    t.add_row({r.device, common::Table::fmt(r.train_fps, 0),
               common::Table::fmt(r.train_w, 3), common::Table::fmt(r.train_mj, 2),
               common::Table::fmt(r.test_fps, 0), common::Table::fmt(r.test_w, 3),
               common::Table::fmt(r.test_mj, 2)});
    csv.add_row({r.device, std::to_string(r.train_fps), std::to_string(r.train_w),
                 std::to_string(r.train_mj), std::to_string(r.test_fps),
                 std::to_string(r.test_w), std::to_string(r.test_mj)});
}

}  // namespace

int main(int argc, char** argv) {
    common::Cli cli(argc, argv);
    const auto samples = static_cast<std::size_t>(cli.get_int("samples", 24));
    const double host_power_w = cli.get_double("host-power", 58.0);

    bench::banner("Table II — FPS / power / energy per image, training & testing",
                  "paper Table II (Sec. IV-A2)",
                  std::to_string(samples) + " activity-measurement samples, paper "
                  "network on synthetic digits, 10 neurons/core");

    core::ExperimentSpec spec;
    spec.dataset = "digits";
    spec.train_count = 300;
    spec.test_count = 100;
    spec.ann_epochs = 1;
    spec.seed = 5;
    const auto prep = core::prepare(spec);

    const loihi::EnergyModelParams params;

    // ---- Loihi-sim rows (FA network = the paper's training build) ----------
    // All rows drive runtime sessions over compiled models; the energy
    // model consumes the session's activity counters.
    core::EmstdpOptions train_opt;
    train_opt.feedback = core::FeedbackMode::FA;
    train_opt.neurons_per_core = 10;
    auto train_sess = core::compile_chip_model(prep, train_opt)->open_session();
    const auto train_r =
        core::measure_energy(*train_sess, prep.train, samples, true, params);

    core::EmstdpOptions inf_opt = train_opt;
    inf_opt.inference_only = true;
    auto inf_sess = core::compile_chip_model(prep, inf_opt)->open_session();
    const auto test_r =
        core::measure_energy(*inf_sess, prep.train, samples, false, params);

    // DFA training build (lower core count; same throughput — Sec. IV-A3).
    core::EmstdpOptions dfa_opt = train_opt;
    dfa_opt.feedback = core::FeedbackMode::DFA;
    auto dfa_sess = core::compile_chip_model(prep, dfa_opt)->open_session();
    const auto dfa_r =
        core::measure_energy(*dfa_sess, prep.train, samples, true, params);

    // ---- Host CPU row: wall-clock of the full-precision backend ------------
    auto ref_sess =
        core::compile_reference_model(prep, reference::FeedbackMode::FA, 0.125f, 7)
            ->open_session();
    // Build the input tensors outside the timed region; what remains in the
    // timed loops is the backend itself plus its per-call rate-vector copy
    // (the session ABI's input conversion — part of driving the backend).
    std::vector<common::Tensor> ref_inputs;
    ref_inputs.reserve(prep.ref_train.size());
    for (const auto& s : prep.ref_train) ref_inputs.push_back(core::ref_tensor(s));
    const auto t0 = Clock::now();
    for (std::size_t i = 0; i < samples; ++i)
        ref_sess->train(ref_inputs[i % ref_inputs.size()],
                        prep.ref_train[i % prep.ref_train.size()].label);
    const auto t1 = Clock::now();
    for (std::size_t i = 0; i < samples; ++i)
        (void)ref_sess->predict(ref_inputs[i % ref_inputs.size()]);
    const auto t2 = Clock::now();
    const double host_train_s =
        std::chrono::duration<double>(t1 - t0).count() / static_cast<double>(samples);
    const double host_test_s =
        std::chrono::duration<double>(t2 - t1).count() / static_cast<double>(samples);

    common::Table table({"Device", "train FPS", "train P(W)", "train mJ/img",
                         "test FPS", "test P(W)", "test mJ/img"});
    common::CsvWriter csv(bench::kCsvDir, "table2_power_energy",
                          {"device", "train_fps", "train_w", "train_mj", "test_fps",
                           "test_w", "test_mj"});

    add(table, csv,
        {"host CPU (measured FP impl)", 1.0 / host_train_s, host_power_w,
         host_power_w * host_train_s * 1e3, 1.0 / host_test_s, host_power_w,
         host_power_w * host_test_s * 1e3});
    add(table, csv,
        {"Loihi-sim (FA)", train_r.fps, train_r.power_w,
         train_r.energy_per_sample_j * 1e3, test_r.fps, test_r.power_w,
         test_r.energy_per_sample_j * 1e3});
    add(table, csv,
        {"Loihi-sim (DFA)", dfa_r.fps, dfa_r.power_w,
         dfa_r.energy_per_sample_j * 1e3, test_r.fps, test_r.power_w,
         test_r.energy_per_sample_j * 1e3});

    std::printf("Measured (this run):\n");
    table.print();

    common::Table paper({"Device", "train FPS", "train P(W)", "train mJ/img",
                         "test FPS", "test P(W)", "test mJ/img"});
    paper.add_row({"i7 8700 (paper)", "422", "58", "137", "1536", "58", "37"});
    paper.add_row({"RTX 5000 (paper)", "625", "48", "77", "2857", "47", "16"});
    paper.add_row({"Loihi (paper)", "50", "0.42", "8.4", "97", "0.24", "2.47"});
    std::printf("\nPaper Table II (authors' testbed):\n");
    paper.print();

    std::printf("\nLoihi-sim core usage: FA train=%zu, DFA train=%zu, test=%zu\n",
                train_r.cores, dfa_r.cores, test_r.cores);

    // Table II's metric layer by layer: each population's event energy and
    // its energy per synaptic op (synops charged to the emitting layer).
    common::Table layers({"population (FA train)", "synops/img", "updates/img",
                          "spikes/img", "event uJ/img", "pJ/synop"});
    for (const auto& p : train_r.populations)
        layers.add_row({p.name, common::Table::fmt(p.synaptic_ops, 0),
                        common::Table::fmt(p.compartment_updates, 0),
                        common::Table::fmt(p.spikes, 0),
                        common::Table::fmt(p.event_energy_j * 1e6, 3),
                        common::Table::fmt(p.energy_per_synop_j * 1e12, 1)});
    std::printf("\nPer-layer event energy:\n");
    layers.print();
    std::printf("CSV: %s\n", csv.write().c_str());

    bench::footnote(
        "the Loihi-sim rows come from the calibrated event-based model "
        "(DESIGN.md Sec. 2); the host row uses wall-clock timing of this "
        "machine with an assumed package power (--host-power). Shape target: "
        "neuromorphic power/energy 1-2 orders below CPU/GPU; throughput 1-2 "
        "orders lower; training : testing FPS ~ 1 : 2 (2T vs T steps).");
    return 0;
}
