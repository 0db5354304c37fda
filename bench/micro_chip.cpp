// Kernel microbenchmark of the chip simulator's two hot phases, with
// per-phase perf counters:
//
//   1. sweep — the dense membrane-update pass over every compartment
//              (ns per compartment update, from ActivityTotals deltas)
//   2. accum — CSR synaptic accumulation fan-out of delivered spikes
//              (ns per synapse event, driven by host spike insertion so the
//              phase is measured in isolation from the sweep)
//
// Rows compare the scalar reference kernels against the SIMD lane kernels
// (Chip::set_vector_sweep) on the same network. Before timing anything the
// bench verifies that both kernel modes produce bit-identical spike counts
// and ActivityTotals on an active workload — a perf number for a kernel
// that drifted semantically would be meaningless.
//
// CI gates the simd row of both phases via
// tools/check_bench_regression.py --only micro_chip (lower is better,
// normalized by the same-run scalar row so the gate transfers across
// machines); nightly.yml records full-scale trend points.

#include <algorithm>
#include <chrono>
#include <cinttypes>
#include <cstdio>
#include <string>
#include <vector>

#include "bench_util.hpp"
#include "common/cli.hpp"
#include "common/rng.hpp"
#include "common/table.hpp"
#include "loihi/chip.hpp"

using namespace neuro;
using namespace neuro::loihi;

namespace {

/// Two-population feed-forward network shaped like the EMSTDP hidden
/// layers: `n` IF sources with dense fan-out to n/4 IF destinations. Dense
/// connectivity is what core::dense_synapses builds, so the delivery spans
/// are the contiguous runs the batched accumulation path targets.
Chip make_chip(std::size_t n) {
    Chip chip;
    PopulationConfig src;
    src.name = "src";
    src.size = n;
    src.compartment.vth = 64;
    src.compartment.floor_at_zero = true;
    const auto s = chip.add_population(src);
    PopulationConfig dst;
    dst.name = "dst";
    dst.size = n / 4;
    dst.compartment.vth = 256;
    dst.compartment.floor_at_zero = true;
    const auto d = chip.add_population(dst);

    common::Rng rng(99);
    std::vector<Synapse> syns;
    syns.reserve(n * (n / 4));
    for (std::uint32_t i = 0; i < n; ++i)
        for (std::uint32_t o = 0; o < n / 4; ++o)
            syns.push_back({i, o, static_cast<std::int32_t>(
                                      rng.uniform_int(-64, 64))});
    ProjectionConfig pr;
    pr.name = "p";
    pr.src = s;
    pr.dst = d;
    chip.add_projection(pr, std::move(syns));
    chip.finalize();
    return chip;
}

double seconds_since(std::chrono::steady_clock::time_point t0) {
    return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
        .count();
}

struct PhaseResult {
    double sweep_ns_per_compartment = 0.0;
    double accum_ns_per_event = 0.0;
    std::uint64_t spikes_delivered = 0;
    std::uint64_t synaptic_events = 0;
};

PhaseResult measure_once(std::size_t n, std::size_t steps, std::size_t spikes,
                         bool simd) {
    Chip chip = make_chip(n);
    chip.set_vector_sweep(simd);

    PhaseResult out;

    // ---- sweep phase: quiet chip, pure membrane pass ----------------------
    chip.run(steps / 4);  // warm caches
    chip.reset_activity();
    const auto t0 = std::chrono::steady_clock::now();
    chip.run(steps);
    const double sweep_s = seconds_since(t0);
    const auto& a1 = chip.activity();
    // compartment_updates counts every live, phase-active compartment per
    // step in both kernel modes, so the denominator is mode-invariant.
    out.sweep_ns_per_compartment =
        a1.compartment_updates == 0
            ? 0.0
            : sweep_s * 1e9 / static_cast<double>(a1.compartment_updates);

    // ---- accumulation phase: host-driven spike storm ----------------------
    // insert_spike() delivers through the same CSR fan-out as a locally
    // fired spike without running a sweep, so this isolates the synaptic
    // accumulation loop (plus the constant per-spike trace/counter
    // bookkeeping, amortized over n/4 events per spike).
    chip.reset_activity();
    const auto t1 = std::chrono::steady_clock::now();
    for (std::size_t i = 0; i < spikes; ++i) chip.insert_spike(0, i % n);
    const double accum_s = seconds_since(t1);
    const auto& a2 = chip.activity();
    out.spikes_delivered = a2.host_io_writes;
    out.synaptic_events = a2.synaptic_ops;
    out.accum_ns_per_event =
        a2.synaptic_ops == 0
            ? 0.0
            : accum_s * 1e9 / static_cast<double>(a2.synaptic_ops);
    return out;
}

/// Best-of-`reps` per phase. Each rep runs on a fresh chip; the minimum is
/// the standard scheduler-noise-free estimate for a short microbench (CI
/// runners are shared machines, and the gate compares per-phase *ratios*,
/// which a single preempted rep would skew by 2x or more).
PhaseResult measure(std::size_t n, std::size_t steps, std::size_t spikes,
                    std::size_t reps, bool simd) {
    PhaseResult best = measure_once(n, steps, spikes, simd);
    for (std::size_t r = 1; r < reps; ++r) {
        const PhaseResult cur = measure_once(n, steps, spikes, simd);
        best.sweep_ns_per_compartment =
            std::min(best.sweep_ns_per_compartment, cur.sweep_ns_per_compartment);
        best.accum_ns_per_event =
            std::min(best.accum_ns_per_event, cur.accum_ns_per_event);
    }
    return best;
}

/// Bit-identity cross-check of the scalar and simd kernels on an active
/// workload: biases drive the sources, spikes cascade through the
/// projection. Returns false (and prints the discrepancy) if they diverge.
bool verify_modes(std::size_t steps) {
    struct Snapshot {
        std::vector<std::int32_t> src_counts, dst_counts;
        ActivityTotals totals{};
    };
    const auto run = [steps](bool simd) {
        Chip chip = make_chip(256);
        chip.set_vector_sweep(simd);
        std::vector<std::int32_t> bias(256);
        common::Rng rng(7);
        for (auto& b : bias)
            b = static_cast<std::int32_t>(rng.uniform_int(0, 48));
        chip.set_bias(0, bias);
        chip.run(steps);
        Snapshot s;
        s.src_counts = chip.spike_counts_total(0);
        s.dst_counts = chip.spike_counts_total(1);
        s.totals = chip.activity();
        return s;
    };
    const Snapshot a = run(false);
    const Snapshot b = run(true);
    const bool same =
        a.src_counts == b.src_counts && a.dst_counts == b.dst_counts &&
        a.totals.steps == b.totals.steps &&
        a.totals.compartment_updates == b.totals.compartment_updates &&
        a.totals.synaptic_ops == b.totals.synaptic_ops &&
        a.totals.spikes == b.totals.spikes &&
        a.totals.host_io_writes == b.totals.host_io_writes;
    if (!same) {
        std::printf("BIT-IDENTITY FAILURE: simd diverges from scalar\n");
        std::printf("  spikes %" PRIu64 " vs %" PRIu64 ", synops %" PRIu64
                    " vs %" PRIu64 "\n",
                    b.totals.spikes, a.totals.spikes,
                    b.totals.synaptic_ops, a.totals.synaptic_ops);
    }
    return same;
}

}  // namespace

int main(int argc, char** argv) {
    common::Cli cli(argc, argv);
    if (cli.error()) {
        std::fprintf(stderr,
                     "usage: micro_chip [--n=1024] [--steps=400] "
                     "[--spikes=2048] [--reps=3]\n");
        return 2;
    }
    const auto n = static_cast<std::size_t>(cli.get_int("n", 1024));
    const auto steps = static_cast<std::size_t>(cli.get_int("steps", 400));
    const auto spikes = static_cast<std::size_t>(cli.get_int("spikes", 2048));
    const auto reps = static_cast<std::size_t>(cli.get_int("reps", 3));

    bench::banner(
        "Chip kernel microbench — per-phase perf counters",
        "substrate of every experiment (paper Sec. II-B step semantics)",
        std::to_string(n) + " sources -> " + std::to_string(n / 4) +
            " destinations (dense), " + std::to_string(steps) +
            " sweep steps, " + std::to_string(spikes) + " inserted spikes");

    if (!verify_modes(64)) return 1;
    std::printf("bit-identity scalar == simd: ok\n\n");

    common::Table table({"config", "sweep ns/comp", "accum ns/event",
                         "spikes", "synaptic events"});
    bench::JsonWriter json(bench::kCsvDir, "micro_chip",
                           {"config", "sweep_ns_per_compartment",
                            "accum_ns_per_event", "spikes_delivered",
                            "synaptic_events"});

    struct Mode {
        const char* name;
        bool simd;
    };
    // The names are the committed baseline's row keys.
    const Mode modes[] = {
        {"dense, scalar", false},
        {"dense, simd", true},
    };
    for (const Mode& m : modes) {
        const PhaseResult r = measure(n, steps, spikes, reps, m.simd);
        table.add_row(
            {m.name, common::Table::fmt(r.sweep_ns_per_compartment, 3),
             common::Table::fmt(r.accum_ns_per_event, 3),
             std::to_string(r.spikes_delivered),
             std::to_string(r.synaptic_events)});
        json.add_row(
            {m.name, common::Table::fmt(r.sweep_ns_per_compartment, 4),
             common::Table::fmt(r.accum_ns_per_event, 4),
             std::to_string(r.spikes_delivered),
             std::to_string(r.synaptic_events)});
    }
    table.print();
    const auto path = json.write();
    std::printf("\nresults -> %s\n", path.c_str());

    bench::footnote(
        "CI gates the simd row of both phases (lower is better, normalized "
        "by the same-run scalar row).");
    return 0;
}
