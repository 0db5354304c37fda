// Training throughput of the data-parallel batched engine vs. the serial
// online trainer (not a paper figure — this gates the scaling work of the
// ROADMAP north star).
//
// Two questions, answered on the synthetic-digits workload:
//   1. How does ParallelTrainer's samples/sec scale with worker threads,
//      against the serial trainer?
//   2. Does the batched path stay bit-identical across thread counts while
//      doing so (spot-checked here; proven in parallel_trainer_test)?
//
// Note the speedup ceiling is min(threads, hardware cores): on a 1-core
// container the thread sweep measures overhead, not scaling.

#include <chrono>
#include <cstdio>
#include <string>
#include <thread>
#include <vector>

#include "bench_util.hpp"
#include "common/cli.hpp"
#include "common/rng.hpp"
#include "common/threadpool.hpp"
#include "core/network.hpp"
#include "core/parallel_trainer.hpp"
#include "core/trainer.hpp"
#include "data/dataset.hpp"
#include "loihi/chip.hpp"
#include "runtime/loihi_backend.hpp"

using namespace neuro;

namespace {

double seconds_since(std::chrono::steady_clock::time_point t0) {
    return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
        .count();
}

core::EmstdpNetwork make_net(std::size_t side, std::uint64_t seed) {
    core::EmstdpOptions opt;
    opt.seed = seed;
    return core::EmstdpNetwork(opt, 1, side, side, nullptr,
                               std::vector<std::size_t>{100}, std::size_t{10});
}

}  // namespace

int main(int argc, char** argv) {
    common::Cli cli(argc, argv);
    const auto samples = static_cast<std::size_t>(cli.get_int("samples", 96));
    const auto side = static_cast<std::size_t>(cli.get_int("side", 16));
    const auto batch = static_cast<std::size_t>(cli.get_int("batch", 8));
    const auto max_threads = static_cast<std::size_t>(cli.get_int(
        "max_threads",
        std::max(8u, std::thread::hardware_concurrency())));

    bench::banner(
        "Training throughput — replicated chips + session serving",
        "scaling engineering on top of Operation Flow 1 (no paper figure)",
        std::to_string(samples) + " samples/epoch, " + std::to_string(side) +
            "x" + std::to_string(side) + " digits, dense stack 100-10, batch " +
            std::to_string(batch) + ", " +
            std::to_string(std::thread::hardware_concurrency()) +
            " hardware threads");

    data::GenOptions gen;
    gen.count = samples;
    gen.seed = 5;
    gen.height = side;
    gen.width = side;
    const auto train = data::make_digits(gen);

    common::Table table({"configuration", "samples/sec", "vs serial dense"});
    common::CsvWriter csv(bench::kCsvDir, "throughput_parallel",
                          {"config", "threads", "samples_per_sec"});
    bench::JsonWriter json(bench::kCsvDir, "throughput_parallel",
                           {"config", "threads", "samples_per_sec"});
    const auto record = [&](const std::string& config, std::size_t threads,
                            double rate) {
        csv.add_row({config, std::to_string(threads), std::to_string(rate)});
        json.add_row({config, std::to_string(threads), std::to_string(rate)});
    };

    // ---- serial baseline (the row name is the gate's normalization key) ---
    double serial_dense = 0.0;
    {
        auto net = make_net(side, 7);
        common::Rng rng(42);
        const auto t0 = std::chrono::steady_clock::now();
        core::train_epoch(net, train, rng);
        serial_dense = static_cast<double>(train.size()) / seconds_since(t0);
        const std::string name = "serial, dense sweep";
        table.add_row({name, common::Table::fmt(serial_dense, 1), "1.00x"});
        record(name, 1, serial_dense);
        std::printf("%-28s %8.1f samples/sec\n", name.c_str(), serial_dense);
        std::fflush(stdout);
    }

    // ---- parallel engine: thread sweep -------------------------------------
    std::vector<std::vector<std::int32_t>> reference_weights;
    for (std::size_t threads = 1; threads <= max_threads; threads *= 2) {
        auto net = make_net(side, 7);
        core::ParallelOptions popt;
        popt.threads = threads;
        popt.batch = batch;
        core::ParallelTrainer trainer(net, popt);
        common::Rng rng(42);
        const auto t0 = std::chrono::steady_clock::now();
        trainer.train_epoch(train, rng);
        const double rate = static_cast<double>(train.size()) / seconds_since(t0);

        if (reference_weights.empty())
            reference_weights = net.plastic_weights();
        const bool identical = reference_weights == net.plastic_weights();

        const std::string name = "parallel, batch " + std::to_string(batch) +
                                 ", " + std::to_string(threads) + " thread" +
                                 (threads == 1 ? "" : "s");
        table.add_row({name + (identical ? "" : "  [WEIGHTS DIVERGED]"),
                       common::Table::fmt(rate, 1),
                       common::Table::fmt(rate / serial_dense, 2) + "x"});
        record(name, threads, rate);
        std::printf("%-28s %8.1f samples/sec%s\n", name.c_str(), rate,
                    identical ? "" : "  [WEIGHTS DIVERGED]");
        std::fflush(stdout);
    }

    // ---- sweep on a large, quiet chip --------------------------------------
    // The digits workload above is delivery-dominated (dense projections:
    // every input spike fans out to the whole hidden layer). This section
    // isolates the sweep term: a 16k-compartment chip with 2% of neurons
    // driven and 8-synapse fanout — the regime of event-driven workloads —
    // where every step pays O(compartments) in the lane kernels.
    {
        loihi::Chip chip;
        loihi::PopulationConfig src;
        src.name = "src";
        src.size = 8192;
        src.compartment.vth = 64;
        const auto s = chip.add_population(src);
        loihi::PopulationConfig dst;
        dst.name = "dst";
        dst.size = 8192;
        dst.compartment.vth = 256;
        chip.add_population(dst);
        common::Rng rng(99);
        std::vector<loihi::Synapse> syns;
        syns.reserve(8192 * 8);
        for (std::uint32_t i = 0; i < 8192; ++i)
            for (int k = 0; k < 8; ++k)
                syns.push_back(
                    {i,
                     static_cast<std::uint32_t>(rng.uniform_int(0, 8191)),
                     static_cast<std::int32_t>(rng.uniform_int(-64, 64))});
        loihi::ProjectionConfig pr;
        pr.name = "p";
        pr.src = s;
        pr.dst = 1;
        chip.add_projection(pr, std::move(syns));
        chip.finalize();
        std::vector<std::int32_t> bias(8192, 0);
        for (auto& b : bias)
            if (rng.bernoulli(0.02)) b = 20;
        chip.set_bias(s, bias);
        const auto t0 = std::chrono::steady_clock::now();
        chip.run(1000);
        const double rate = 1000.0 / seconds_since(t0);
        const std::string name = "quiet 16k-comp chip, dense";
        table.add_row({name, common::Table::fmt(rate, 0) + " steps/s", "-"});
        record(name, 1, rate);
        std::printf("%-28s %8.0f steps/sec\n", name.c_str(), rate);
        std::fflush(stdout);
    }

    // ---- inference serving: runtime sessions over one CompiledModel --------
    // The serving-scale story of the runtime API: compile the trained
    // network once, open one lightweight Session per thread (sessions share
    // the chip structure and read one copy-on-write weight image — no
    // per-thread chip deep-copy), and sweep inference throughput.
    {
        auto net = make_net(side, 7);
        common::Rng rng(42);
        core::train_epoch(net, train, rng);
        const auto model = runtime::adopt(net);

        double serve_1 = 0.0;
        for (std::size_t threads = 1; threads <= max_threads; threads *= 2) {
            std::vector<std::unique_ptr<runtime::Session>> sessions;
            const auto topen = std::chrono::steady_clock::now();
            for (std::size_t t = 0; t < threads; ++t)
                sessions.push_back(model->open_session());
            const double open_ms = seconds_since(topen) * 1e3;

            common::ThreadPool pool(threads);
            const auto t0 = std::chrono::steady_clock::now();
            pool.run(threads, [&](std::size_t t) {
                for (std::size_t i = t; i < train.size(); i += threads)
                    (void)sessions[t]->predict(train.samples[i].image);
            });
            const double rate =
                static_cast<double>(train.size()) / seconds_since(t0);
            if (threads == 1) serve_1 = rate;

            const std::string name = "serve, " + std::to_string(threads) +
                                     " session" + (threads == 1 ? "" : "s");
            table.add_row({name, common::Table::fmt(rate, 1),
                           common::Table::fmt(rate / serve_1, 2) + "x vs 1, " +
                               common::Table::fmt(open_ms, 2) + " ms open"});
            record(name, threads, rate);
            std::printf("%-28s %8.1f predictions/sec (%.2f ms to open)\n",
                        name.c_str(), rate, open_ms);
            std::fflush(stdout);
        }
    }

    std::printf("\n");
    table.print();
    std::printf("\nCSV: %s\nJSON: %s\n", csv.write().c_str(),
                json.write().c_str());
    bench::footnote(
        "the batched path trades the paper's strictly-online semantics for "
        "throughput: every sample in a batch trains against the batch-start "
        "weights on its own chip replica, and the integer deltas are merged "
        "sum-then-clip. Weights are bit-identical across thread counts; "
        "speedup saturates at the physical core count. The serving section "
        "shares one CompiledModel across sessions (no chip deep-copy per "
        "thread).");
    return 0;
}
