#include "harness.hpp"

#include <algorithm>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <numeric>
#include <sstream>
#include <stdexcept>

#include <sys/resource.h>
#include <time.h>
#include <unistd.h>

namespace perfbench {

namespace {
double cpu_clock_s(clockid_t id) {
    timespec ts{};
    if (::clock_gettime(id, &ts) != 0)
        throw std::runtime_error("clock_gettime failed");
    return static_cast<double>(ts.tv_sec) + 1e-9 * static_cast<double>(ts.tv_nsec);
}
}  // namespace

double process_cpu_s() { return cpu_clock_s(CLOCK_PROCESS_CPUTIME_ID); }
double thread_cpu_s() { return cpu_clock_s(CLOCK_THREAD_CPUTIME_ID); }

double peak_rss_mb() {
    rusage ru{};
    ::getrusage(RUSAGE_SELF, &ru);
    return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

// ---- statistics -------------------------------------------------------------

double quantile(std::vector<double> v, double q) {
    if (v.empty()) throw std::invalid_argument("quantile of an empty sample");
    if (q < 0.0 || q > 1.0) throw std::invalid_argument("quantile outside [0,1]");
    std::sort(v.begin(), v.end());
    const auto n = static_cast<double>(v.size());
    auto rank = static_cast<std::size_t>(std::ceil(q * n));
    if (rank == 0) rank = 1;
    return v[rank - 1];
}

double median(std::vector<double> v) { return quantile(std::move(v), 0.5); }

double mean(const std::vector<double>& v) {
    if (v.empty()) throw std::invalid_argument("mean of an empty sample");
    return std::accumulate(v.begin(), v.end(), 0.0) / static_cast<double>(v.size());
}

Tail highest_supported(const std::vector<double>& v, std::size_t beyond) {
    if (v.size() <= beyond)
        throw std::invalid_argument("sample too small for any tail percentile");
    std::vector<double> s = v;
    std::sort(s.begin(), s.end());
    Tail t;
    t.n = s.size();
    t.value = s[s.size() - 1 - beyond];
    t.percentile = 100.0 * static_cast<double>(s.size() - beyond) /
                   static_cast<double>(s.size());
    return t;
}

bool supports(std::size_t n, double q, std::size_t beyond) {
    if (n == 0) return false;
    auto rank = static_cast<std::size_t>(std::ceil(q * static_cast<double>(n)));
    if (rank == 0) rank = 1;
    return n - rank >= beyond;
}

// ---- seeded inputs ----------------------------------------------------------

PoissonSchedule::PoissonSchedule(std::uint64_t seed, double rate_per_s)
    : rng_(seed), rate_(rate_per_s) {
    if (!(rate_per_s > 0.0))
        throw std::invalid_argument("PoissonSchedule: rate must be > 0");
}

double PoissonSchedule::next() {
    t_ += -std::log(1.0 - rng_.uniform()) / rate_;
    return t_;
}

std::vector<std::size_t> seeded_order(std::uint64_t seed, std::size_t pool,
                                      std::size_t count) {
    if (pool == 0) throw std::invalid_argument("seeded_order: empty pool");
    neuro::common::Rng rng(seed);
    std::vector<std::size_t> perm(pool);
    std::vector<std::size_t> out;
    out.reserve(count);
    while (out.size() < count) {
        std::iota(perm.begin(), perm.end(), std::size_t{0});
        rng.shuffle(perm);
        for (std::size_t i = 0; i < pool && out.size() < count; ++i)
            out.push_back(perm[i]);
    }
    return out;
}

std::uint64_t derive_seed(std::uint64_t seed, std::uint64_t tag) {
    std::uint64_t state = seed ^ (tag * 0x9E3779B97F4A7C15ULL);
    return neuro::common::splitmix64(state);
}

// ---- waterfall --------------------------------------------------------------

double Waterfall::rows_sum() const {
    double s = 0.0;
    for (const auto& r : rows) s += r.second;
    return s;
}

double Waterfall::other_share() const {
    return total > 0.0 ? other() / total : 0.0;
}

bool Waterfall::reconciles(double tolerance) const {
    return total > 0.0 && std::abs(other()) <= tolerance * total;
}

std::string Waterfall::render() const {
    std::ostringstream os;
    char line[160];
    std::snprintf(line, sizeof line, "waterfall %s (%s per unit of work)\n",
                  name.c_str(), unit.c_str());
    os << line;
    auto row = [&](const std::string& label, double v) {
        std::snprintf(line, sizeof line, "  %-30s %12.3f  %6.1f%%\n",
                      label.c_str(), v, total > 0.0 ? 100.0 * v / total : 0.0);
        os << line;
    };
    for (const auto& r : rows) row(r.first, r.second);
    row("other", other());
    row("total (traced)", total);
    os << (reconciles() ? "  reconciled: |other| <= 5% of total\n"
                        : "  NOT reconciled: |other| > 5% of total\n");
    return os.str();
}

// ---- metrics and the result line ---------------------------------------------

bool valid_metric_name(const std::string& name) {
    if (name.empty() || name.size() > 64) return false;
    auto alnum = [](char c) {
        return (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
               (c >= '0' && c <= '9');
    };
    if (!alnum(name.front())) return false;
    for (char c : name)
        if (!alnum(c) && c != '_' && c != '.' && c != '-') return false;
    return true;
}

void Metrics::set(const std::string& name, double value, const std::string& unit) {
    if (!valid_metric_name(name))
        throw std::invalid_argument("invalid metric name: " + name);
    if (!std::isfinite(value))
        throw std::invalid_argument("non-finite value for metric " + name);
    if (!m_.emplace(name, Metric{value, unit}).second)
        throw std::invalid_argument("metric set twice: " + name);
}

std::string format_number(double v) {
    if (!std::isfinite(v)) throw std::invalid_argument("non-finite number");
    char buf[64];
    const auto r = std::to_chars(buf, buf + sizeof buf, v);
    return std::string(buf, r.ptr);
}

std::string result_line(bool correct, std::uint64_t attempted,
                        std::uint64_t failed, const Metrics& metrics) {
    std::string out = "{\"correct\": ";
    out += correct ? "true" : "false";
    out += ", \"attempted\": " + std::to_string(attempted);
    out += ", \"failed\": " + std::to_string(failed);
    out += ", \"metrics\": {";
    bool first = true;
    for (const auto& [name, m] : metrics.all()) {
        if (!first) out += ", ";
        first = false;
        out += "\"" + name + "\": {\"value\": " + format_number(m.value) +
               ", \"unit\": \"" + m.unit + "\"}";
    }
    out += "}}";
    return out;
}

// ---- host diagnostics --------------------------------------------------------

std::uint64_t read_steal_ticks() {
    std::ifstream in("/proc/stat");
    std::string label;
    if (!(in >> label) || label != "cpu") return 0;
    // user nice system idle iowait irq softirq steal
    std::uint64_t f[8] = {};
    for (auto& x : f)
        if (!(in >> x)) return 0;
    return f[7];
}

double ms_per_tick() {
    const long hz = ::sysconf(_SC_CLK_TCK);
    return hz > 0 ? 1000.0 / static_cast<double>(hz) : 10.0;
}

double calibration_ms() {
    const auto t0 = Clock::now();
    std::uint64_t x = 0x243F6A8885A308D3ULL;
    for (int i = 0; i < 20'000'000; ++i) x = x * 6364136223846793005ULL + 1442695040888963407ULL;
    volatile std::uint64_t sink = x;
    (void)sink;
    return 1e3 * seconds_since(t0);
}

}  // namespace perfbench
