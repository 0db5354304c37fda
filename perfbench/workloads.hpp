#pragma once
// The three perfbench workloads (README.md beside this file says why each
// exists and what every metric means). Each run function measures for
// about `seconds`, checks the system's outputs, and fills a Report.

#include <cstdint>
#include <string>
#include <vector>

#include "harness.hpp"

namespace perfbench {

struct RunArgs {
    std::string workload;
    std::uint64_t seed = 1;
    double seconds = 10.0;
    bool trace = false;
};

/// What one invocation hands back to main: the metrics of its mode, the
/// operation accounting, and every correctness gate that failed.
struct Report {
    Metrics metrics;
    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;
    std::vector<std::string> gate_failures;
    /// Human-readable lines printed before the result line.
    std::vector<std::string> notes;

    void gate(bool ok, const std::string& what) {
        if (!ok) gate_failures.push_back(what);
    }
    void note(const std::string& line) { notes.push_back(line); }
};

/// Directory for sockets and registries (relative paths keep Unix socket
/// paths short); created if missing.
void set_scratch_dir(const std::string& dir);

void run_train_paper(const RunArgs& args, Report& report);
void run_serve_wire(const RunArgs& args, Report& report);
void run_serve_learn(const RunArgs& args, Report& report);

}  // namespace perfbench
