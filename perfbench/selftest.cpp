// Tests of the benchmark's own helpers (harness.hpp, specs.hpp). Plain
// checks, no framework: prints each failure and exits nonzero.
//
//   cmake --build .bench_build --target perfbench_selftest
//   .bench_build/perfbench_selftest        (or: python3 perfbench/run.py --selftest)

#include <cmath>
#include <cstdio>
#include <set>
#include <stdexcept>
#include <string>
#include <vector>

#include "harness.hpp"
#include "specs.hpp"

namespace {

int g_failures = 0;

void check(bool ok, const char* what, int line) {
    if (ok) return;
    ++g_failures;
    std::printf("FAIL line %d: %s\n", line, what);
}
#define CHECK(cond) check((cond), #cond, __LINE__)

template <typename F>
bool throws(F&& f) {
    try {
        f();
    } catch (const std::exception&) {
        return true;
    }
    return false;
}

std::vector<double> one_to(int n) {
    std::vector<double> v;
    for (int i = n; i >= 1; --i) v.push_back(i);  // unsorted on purpose
    return v;
}

void percentile_rule() {
    using namespace perfbench;
    // 100 samples: p90 is the highest percentile with 10 samples beyond it.
    const Tail t100 = highest_supported(one_to(100));
    CHECK(t100.n == 100);
    CHECK(t100.percentile == 90.0);
    CHECK(t100.value == 90.0);
    // 1000 samples support p99 exactly: 991..1000 lie beyond 990.
    const Tail t1000 = highest_supported(one_to(1000));
    CHECK(t1000.percentile == 99.0);
    CHECK(t1000.value == 990.0);
    CHECK(quantile(one_to(1000), 0.99) == 990.0);
    CHECK(supports(1000, 0.99));
    CHECK(!supports(999, 0.99));
    CHECK(supports(20, 0.5));
    CHECK(!supports(19, 0.5));
    // Too few samples for any tail.
    CHECK(throws([] { highest_supported(one_to(10)); }));
    CHECK(highest_supported(one_to(11)).value == 1.0);
    // Nearest-rank quantiles.
    CHECK(median(one_to(5)) == 3.0);
    CHECK(median(one_to(4)) == 2.0);
    CHECK(quantile({7.0}, 0.0) == 7.0);
    CHECK(throws([] { quantile({}, 0.5); }));
}

std::vector<double> schedule(std::uint64_t seed, std::size_t n) {
    perfbench::PoissonSchedule s(seed, 250.0);
    std::vector<double> out(n);
    for (auto& t : out) t = s.next();
    return out;
}

void seeded_inputs() {
    using namespace perfbench;
    // The same seed gives the same Poisson schedule; another seed does not.
    const auto a = schedule(42, 5000);
    CHECK(a == schedule(42, 5000));
    CHECK(a != schedule(43, 5000));
    bool increasing = true;
    for (std::size_t i = 1; i < a.size(); ++i) increasing = increasing && a[i] > a[i - 1];
    CHECK(increasing);
    // Mean gap within 5% of 1/rate over 5000 arrivals.
    CHECK(std::abs(a.back() / 5000.0 - 1.0 / 250.0) < 0.05 / 250.0);
    CHECK(throws([] { PoissonSchedule(1, 0.0); }));

    // The same seed gives the same request / feedback order.
    const auto o = seeded_order(7, 256, 1024);
    CHECK(o == seeded_order(7, 256, 1024));
    CHECK(o != seeded_order(8, 256, 1024));
    // Every block of `pool` indices is a permutation, so whole cycles ask
    // every item equally often.
    bool perms = true;
    for (std::size_t b = 0; b < 4; ++b) {
        std::set<std::size_t> seen(o.begin() + static_cast<long>(b * 256),
                                   o.begin() + static_cast<long>((b + 1) * 256));
        perms = perms && seen.size() == 256 && *seen.rbegin() == 255;
    }
    CHECK(perms);
    CHECK(seeded_order(7, 256, 300).size() == 300);
    CHECK(throws([] { seeded_order(1, 0, 4); }));
    CHECK(derive_seed(1, 2) == derive_seed(1, 2));
    CHECK(derive_seed(1, 2) != derive_seed(1, 3));
    CHECK(derive_seed(1, 2) != derive_seed(2, 2));
}

void waterfall() {
    using namespace perfbench;
    Waterfall w;
    w.total = 100.0;
    w.rows = {{"a", 60.0}, {"b", 36.0}};
    CHECK(w.rows_sum() == 96.0);
    CHECK(w.other() == 4.0);
    CHECK(std::abs(w.other_share() - 0.04) < 1e-12);
    CHECK(w.reconciles());
    w.rows[1].second = 34.0;  // 6% unexplained
    CHECK(!w.reconciles());
    w.rows[1].second = 46.0;  // rows overshoot the total by 6%
    CHECK(w.other() == -6.0);
    CHECK(!w.reconciles());
    w.rows[1].second = 45.0;  // overshoot of exactly 5% still reconciles
    CHECK(w.reconciles());
    Waterfall empty;
    CHECK(!empty.reconciles());
    CHECK(w.render().find("other") != std::string::npos);
}

void metric_names() {
    using namespace perfbench;
    CHECK(valid_metric_name("latency_p99_ms"));
    CHECK(valid_metric_name("loihi.sweep_ns_per_update"));
    CHECK(valid_metric_name("req.a.sent"));
    CHECK(valid_metric_name("0-x"));
    CHECK(!valid_metric_name(""));
    CHECK(!valid_metric_name(".hidden"));
    CHECK(!valid_metric_name("_x"));
    CHECK(!valid_metric_name("has space"));
    CHECK(!valid_metric_name("slash/name"));
    CHECK(!valid_metric_name(std::string(65, 'a')));
    CHECK(valid_metric_name(std::string(64, 'a')));

    // Every declared metric has a valid, unique name.
    std::set<std::string> names;
    bool valid = true;
    for (const auto* specs : {&kEndToEnd, &kPerLayer})
        for (const auto& s : *specs) {
            valid = valid && valid_metric_name(s.name);
            names.insert(s.name);
        }
    CHECK(valid);
    CHECK(names.size() == kEndToEnd.size() + kPerLayer.size());

    Metrics m;
    m.set("a.b", 1.5, "ms");
    CHECK(throws([&] { m.set("a.b", 2.0, "ms"); }));
    CHECK(throws([&] { m.set("bad name", 2.0, "ms"); }));
    CHECK(throws([&] { m.set("nan", std::nan(""), "ms"); }));
    CHECK(result_line(true, 3, 0, m) ==
          "{\"correct\": true, \"attempted\": 3, \"failed\": 0, \"metrics\": "
          "{\"a.b\": {\"value\": 1.5, \"unit\": \"ms\"}}}");
    CHECK(format_number(0.1) == "0.1");
    CHECK(std::stod(format_number(1.0 / 3.0)) == 1.0 / 3.0);
}

}  // namespace

int main() {
    percentile_rule();
    seeded_inputs();
    waterfall();
    metric_names();
    if (g_failures == 0) std::printf("perfbench_selftest: all checks passed\n");
    return g_failures == 0 ? 0 : 1;
}
