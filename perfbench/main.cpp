// perfbench — one invocation runs one workload and prints, as its last
// stdout line, the result object perfbench/run.py forwards:
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
// --trace 0 reports the end-to-end metrics (untraced measurement only);
// --trace 1 reports the per-layer metrics of a separate traced run.
//
//   perfbench --workload train_paper|serve_wire|serve_learn --seed N
//             --seconds S --trace 0|1 [--scratch DIR]
//
// Exit status: 0 when every correctness gate held, 1 when one failed (the
// result line then says "correct": false), 2 on a usage or run error.

#include <cstdio>
#include <cstdlib>
#include <exception>
#include <string>
#include <thread>
#include <vector>

#include "specs.hpp"
#include "workloads.hpp"

namespace {

using namespace perfbench;

[[noreturn]] void usage(const char* why) {
    std::fprintf(stderr,
                 "perfbench: %s\nusage: perfbench --workload train_paper|"
                 "serve_wire|serve_learn --seed N --seconds S --trace 0|1 "
                 "[--scratch DIR]\n",
                 why);
    std::exit(2);
}

RunArgs parse(int argc, char** argv, std::string& scratch) {
    RunArgs a;
    bool have_workload = false;
    for (int i = 1; i < argc; ++i) {
        const std::string key = argv[i];
        if (i + 1 >= argc) usage(("missing value for " + key).c_str());
        const std::string v = argv[++i];
        try {
            if (key == "--workload") {
                a.workload = v;
                have_workload = true;
            } else if (key == "--seed") {
                a.seed = std::stoull(v);
            } else if (key == "--seconds") {
                a.seconds = std::stod(v);
            } else if (key == "--trace") {
                if (v != "0" && v != "1") usage("--trace takes 0 or 1");
                a.trace = v == "1";
            } else if (key == "--scratch") {
                scratch = v;
            } else {
                usage(("unknown argument " + key).c_str());
            }
        } catch (const std::logic_error&) {
            usage(("bad value for " + key).c_str());
        }
    }
    if (!have_workload) usage("--workload is required");
    if (!(a.seconds > 0.0) || a.seconds > 120.0) usage("--seconds must be in (0, 120]");
    return a;
}

/// Checks the workload's metrics against the declared set of this mode and
/// fills per-layer rows of layers the workload does not exercise with 0.
void complete(Report& r, bool trace) {
    const auto& specs = trace ? kPerLayer : kEndToEnd;
    Metrics done;
    for (const auto& [name, m] : r.metrics.all()) {
        bool known = false;
        for (const auto& s : specs)
            if (name == s.name) {
                known = true;
                r.gate(m.unit == s.unit, "metric " + name + " has unit " + m.unit);
            }
        r.gate(known, "metric " + name + " is not declared for this mode");
    }
    for (const auto& s : specs) {
        if (r.metrics.has(s.name)) {
            done.set(s.name, r.metrics.all().at(s.name).value, s.unit);
        } else {
            r.gate(trace, std::string("end-to-end metric missing: ") + s.name);
            done.set(s.name, 0.0, s.unit);
        }
    }
    r.metrics = done;
}

}  // namespace

int main(int argc, char** argv) {
    std::string scratch = ".bench_build/run";
    const RunArgs args = parse(argc, argv, scratch);
    try {
        set_scratch_dir(scratch);
        const std::uint64_t steal0 = read_steal_ticks();
        const double calib_ms = calibration_ms();

        Report report;
        if (args.workload == "train_paper")
            run_train_paper(args, report);
        else if (args.workload == "serve_wire")
            run_serve_wire(args, report);
        else if (args.workload == "serve_learn")
            run_serve_learn(args, report);
        else
            usage(("unknown workload " + args.workload).c_str());

        const double steal_ms =
            static_cast<double>(read_steal_ticks() - steal0) * ms_per_tick();
        const double nproc = static_cast<double>(std::thread::hardware_concurrency());
        if (args.trace) {
            report.metrics.set("host.steal_ms", steal_ms, "ms");
            report.metrics.set("host.nproc", nproc, "count");
            report.metrics.set("host.calib_ms", calib_ms, "ms");
        }
        complete(report, args.trace);

        for (const auto& line : report.notes) std::printf("%s\n", line.c_str());
        std::printf("host: steal %.0f ms over the run, nproc %.0f, calibration "
                    "loop %.2f ms\n",
                    steal_ms, nproc, calib_ms);
        for (const auto& g : report.gate_failures)
            std::printf("GATE FAILED: %s\n", g.c_str());
        const bool correct = report.gate_failures.empty();
        std::printf("%s\n", result_line(correct, report.attempted, report.failed,
                                        report.metrics)
                                .c_str());
        std::fflush(stdout);
        return correct ? 0 : 1;
    } catch (const std::exception& e) {
        std::fprintf(stderr, "perfbench: run failed: %s\n", e.what());
        return 2;
    }
}
