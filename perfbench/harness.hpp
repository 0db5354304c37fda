#pragma once
// Helpers shared by the perfbench workloads: seeded input schedules, the
// percentile rule, waterfall reconciliation, host diagnostics and the
// result line. Everything here is benchmark machinery; the system under
// test is only ever reached through its public headers in the workload
// files. tests: perfbench/selftest.cpp.

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "common/rng.hpp"

namespace perfbench {

// ---- clocks -----------------------------------------------------------------

using Clock = std::chrono::steady_clock;

inline double seconds_between(Clock::time_point a, Clock::time_point b) {
    return std::chrono::duration<double>(b - a).count();
}
inline double seconds_since(Clock::time_point a) {
    return seconds_between(a, Clock::now());
}

/// CPU seconds consumed by the whole process / the calling thread.
double process_cpu_s();
double thread_cpu_s();
/// Peak resident set size of the process, in MB (getrusage ru_maxrss).
double peak_rss_mb();

// ---- statistics -------------------------------------------------------------

/// Nearest-rank quantile (q in [0, 1]) of an unsorted sample; throws on an
/// empty sample.
double quantile(std::vector<double> v, double q);
double median(std::vector<double> v);
double mean(const std::vector<double>& v);

/// Samples that must lie strictly beyond a reported percentile.
inline constexpr std::size_t kTailBeyond = 10;

/// The percentile rule: of a sample of n timings, report the highest
/// percentile that still has at least `beyond` samples above it, together
/// with the sample count. percentile = 100 * (n - beyond) / n and value is
/// the (beyond + 1)-th largest sample. Throws when n <= beyond.
struct Tail {
    double percentile = 0.0;
    double value = 0.0;
    std::size_t n = 0;
};
Tail highest_supported(const std::vector<double>& v,
                       std::size_t beyond = kTailBeyond);

/// Whether a sample of n supports quantile q under the same rule (at least
/// `beyond` samples strictly above rank ceil(q * n)).
bool supports(std::size_t n, double q, std::size_t beyond = kTailBeyond);

// ---- seeded inputs ----------------------------------------------------------

/// Seeded Poisson arrival process: due times (seconds from the start of the
/// phase) with exponential gaps at `rate_per_s`. The same seed always gives
/// the same schedule.
class PoissonSchedule {
public:
    PoissonSchedule(std::uint64_t seed, double rate_per_s);
    /// Due time of the next arrival.
    double next();

private:
    neuro::common::Rng rng_;
    double rate_;
    double t_ = 0.0;
};

/// A seeded stream of indices into a pool of `pool` items: successive
/// seeded shuffles of [0, pool), concatenated until `count` indices exist.
/// Used for request order and for the feedback order.
std::vector<std::size_t> seeded_order(std::uint64_t seed, std::size_t pool,
                                      std::size_t count);

/// Derives an independent stream seed from the run seed and a stream tag.
std::uint64_t derive_seed(std::uint64_t seed, std::uint64_t tag);

// ---- waterfall --------------------------------------------------------------

/// A traced total broken into measured rows plus an explicit `other` row
/// (total minus the rows). It reconciles when |other| <= tolerance * total.
struct Waterfall {
    std::string name;
    std::string unit;
    double total = 0.0;
    std::vector<std::pair<std::string, double>> rows;

    double rows_sum() const;
    double other() const { return total - rows_sum(); }
    double other_share() const;
    bool reconciles(double tolerance = 0.05) const;
    /// Human-readable table, one row per line, shares of the total.
    std::string render() const;
};

// ---- metrics and the result line ---------------------------------------------

/// Metric names: one or more of [A-Za-z0-9_.-], starting with a letter or
/// a digit, at most 64 characters.
bool valid_metric_name(const std::string& name);

struct Metric {
    double value = 0.0;
    std::string unit;
};

/// Ordered metric set; insertion rejects invalid names, duplicates and
/// non-finite values (std::invalid_argument).
class Metrics {
public:
    void set(const std::string& name, double value, const std::string& unit);
    bool has(const std::string& name) const { return m_.count(name) != 0; }
    const std::map<std::string, Metric>& all() const { return m_; }

private:
    std::map<std::string, Metric> m_;
};

/// Shortest round-trip decimal for a finite double.
std::string format_number(double v);

/// The last stdout line the benchmark prints.
std::string result_line(bool correct, std::uint64_t attempted,
                        std::uint64_t failed, const Metrics& metrics);

// ---- host diagnostics --------------------------------------------------------

/// Steal ticks from the aggregate cpu line of /proc/stat (0 when absent).
std::uint64_t read_steal_ticks();
/// Milliseconds per /proc/stat tick (USER_HZ).
double ms_per_tick();
/// Wall milliseconds of a fixed integer loop — a calibration reading of how
/// fast this host runs single-threaded code right now.
double calibration_ms();

}  // namespace perfbench
