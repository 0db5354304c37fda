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
// that drifted semantically would be meaningless. A third row, the
// calibration, times a fixed-work accumulate loop that lives in this file
// (see Calibration).
//
// CI gates the simd row of both phases via
// tools/check_bench_regression.py --only micro_chip (lower is better, each
// normalized by a same-run row so the gate transfers across machines: the
// sweep by the scalar row, the accumulation by the calibration row, which
// no chip change can speed up or slow down); nightly.yml records
// full-scale trend points.

#include <algorithm>
#include <array>
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

/// The batched accumulate arithmetic (int64 pending += int32 weight over
/// one contiguous row), outside the chip. This file is compiled with the
/// chip kernel TU's flags (CMakeLists.txt), so it gets the same code.
void accumulate_row(std::int64_t* __restrict acc, const std::int32_t* __restrict w,
                    std::size_t len) {
    for (std::size_t j = 0; j < len; ++j) acc[j] += w[j];
}

/// Fixed-work calibration of the accumulation phase: accumulate_row over
/// the bench's fan-out shape (one row of n/4 per spike, cycling through an
/// n x n/4 weight table like the chip's). It shares the machine, compiler
/// and flags of the simd row but no chip code, so no chip change — a
/// faster scalar oracle included — can move it.
class Calibration {
public:
    explicit Calibration(std::size_t n) : n_(n), width_(n / 4), w_(n * (n / 4)),
                                          acc_(n / 4, 0) {
        common::Rng rng(99);
        for (auto& x : w_) x = static_cast<std::int32_t>(rng.uniform_int(-64, 64));
    }
    /// ns per add over `spikes` rows.
    double run(std::size_t spikes) {
        const auto t0 = std::chrono::steady_clock::now();
        for (std::size_t i = 0; i < spikes; ++i)
            accumulate_row(acc_.data(), w_.data() + (i % n_) * width_, width_);
        const double ns = seconds_since(t0) * 1e9 / static_cast<double>(spikes * width_);
        // Read the sums back, untimed, so the loop cannot be dropped.
        volatile std::int64_t sink = 0;
        for (const auto v : acc_) sink = sink + v;
        return ns;
    }

private:
    std::size_t n_, width_;
    std::vector<std::int32_t> w_;
    std::vector<std::int64_t> acc_;
};

struct PhaseResult {
    double sweep_ns_per_compartment = 0.0;
    double accum_ns_per_event = 0.0;
    /// Calibration ns per add, timed right after the accumulation phase so
    /// both see the same host conditions.
    double calib_ns_per_add = 0.0;
    std::uint64_t spikes_delivered = 0;
    std::uint64_t synaptic_events = 0;
};

PhaseResult measure_once(std::size_t n, std::size_t steps, std::size_t spikes,
                         bool simd, Calibration& calib) {
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
    out.calib_ns_per_add = calib.run(spikes);
    return out;
}

/// Best-of-`reps` per phase, for both kernel modes: [0] scalar, [1] simd.
/// Each rep runs the scalar then the simd kernels, each on a fresh chip,
/// so host contention lands on both modes alike rather than on one block
/// of reps, which would move the simd/scalar ratio the sweep gate reads.
/// The minimum is the standard scheduler-noise-free estimate for a short
/// microbench (CI runners are shared machines, and a single preempted rep
/// would skew a per-phase ratio by 2x or more).
std::array<PhaseResult, 2> measure(std::size_t n, std::size_t steps,
                                   std::size_t spikes, std::size_t reps,
                                   Calibration& calib) {
    std::array<PhaseResult, 2> best;
    for (std::size_t r = 0; r < std::max<std::size_t>(reps, 1); ++r)
        for (std::size_t mode = 0; mode < best.size(); ++mode) {
            const PhaseResult cur =
                measure_once(n, steps, spikes, mode == 1, calib);
            PhaseResult& b = best[mode];
            if (r == 0) {
                b = cur;
                continue;
            }
            b.sweep_ns_per_compartment = std::min(b.sweep_ns_per_compartment,
                                                  cur.sweep_ns_per_compartment);
            b.accum_ns_per_event =
                std::min(b.accum_ns_per_event, cur.accum_ns_per_event);
            b.calib_ns_per_add =
                std::min(b.calib_ns_per_add, cur.calib_ns_per_add);
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

    // The names are the committed baseline's row keys, in measure()'s
    // mode order.
    const char* const names[] = {"dense, scalar", "dense, simd"};
    Calibration calib(n);
    const auto results = measure(n, steps, spikes, reps, calib);
    for (std::size_t mode = 0; mode < results.size(); ++mode) {
        const PhaseResult& r = results[mode];
        table.add_row(
            {names[mode], common::Table::fmt(r.sweep_ns_per_compartment, 3),
             common::Table::fmt(r.accum_ns_per_event, 3),
             std::to_string(r.spikes_delivered),
             std::to_string(r.synaptic_events)});
        json.add_row(
            {names[mode], common::Table::fmt(r.sweep_ns_per_compartment, 4),
             common::Table::fmt(r.accum_ns_per_event, 4),
             std::to_string(r.spikes_delivered),
             std::to_string(r.synaptic_events)});
    }
    // The gate normalizes the simd row, so its reps time the calibration.
    const double calib_ns = results[1].calib_ns_per_add;
    // The accumulation gate's normalization row (no sweep column).
    table.add_row({"calibration", "-", common::Table::fmt(calib_ns, 3), "-",
                   std::to_string(spikes * (n / 4))});
    json.add_row({"calibration", "-", common::Table::fmt(calib_ns, 4), "-",
                  std::to_string(spikes * (n / 4))});
    table.print();
    const auto path = json.write();
    std::printf("\nresults -> %s\n", path.c_str());

    bench::footnote(
        "CI gates the simd row of both phases (lower is better): the sweep "
        "normalized by the same-run scalar row, the accumulation by the "
        "same-run calibration row.");
    return 0;
}
