#pragma once
// The metrics a run reports: the end-to-end set (--trace 0) and the
// per-layer set (--trace 1). They must match BENCHMARK.json; run.py
// cross-checks every result line against it.

#include <vector>

namespace perfbench {

struct Spec {
    const char* name;
    const char* unit;
};

inline const std::vector<Spec> kEndToEnd = {
    {"setup_s", "s"},           {"samples_per_s", "1/s"},
    {"slo_ok_ratio", "fraction"},
    {"accuracy", "fraction"},   {"sim_energy_mj", "mJ/sample"},
    {"cpu_ms_per_sample", "ms"}, {"peak_rss_mb", "MB"},
};

inline const std::vector<Spec> kPerLayer = {
    // Unbounded end-to-end diagnostics: on a shared 4-vCPU host they follow
    // the host more than the code (README.md, "Why some rates are not
    // bounded").
    {"latency_p50_ms", "ms"},
    {"latency_p99_ms", "ms"},
    {"infer_samples_per_s", "1/s"},
    {"data.encode_us_per_sample", "us"},
    {"loihi.program_us_per_sample", "us"},
    {"loihi.step_other_us_per_sample", "us"},
    {"loihi.sweep_ns_per_update", "ns"},
    {"loihi.accum_ns_per_synop", "ns"},
    {"loihi.learn_ns_per_visit", "ns"},
    {"loihi.learn_share", "fraction"},
    {"core.other_us_per_sample", "us"},
    {"loihi.steps", "count"},
    {"loihi.updates", "count"},
    {"loihi.synops", "count"},
    {"loihi.spikes", "count"},
    {"loihi.learn_visits", "count"},
    {"loihi.host_writes", "count"},
    {"loihi.infer_us_per_sample", "us"},
    {"loihi.infer_sweep_ns_per_update", "ns"},
    {"loihi.infer_accum_ns_per_synop", "ns"},
    {"serve.queue_us_p50", "us"},
    {"serve.queue_us_p99", "us"},
    {"serve.batch_us_p50", "us"},
    {"serve.batch_size_mean_a", "count"},
    {"serve.batch_size_mean_b", "count"},
    {"serve.compute_us_p50", "us"},
    {"serve.compute_us_p99", "us"},
    {"serve.resolve_us_p50", "us"},
    {"loihi.sweep_us_per_request", "us"},
    {"loihi.accum_us_per_request", "us"},
    {"netd.wire_us_p50", "us"},
    {"netd.wire_us_p99", "us"},
    {"netd.encode_ns_per_frame", "ns"},
    {"netd.decode_ns_per_frame", "ns"},
    {"runtime.refresh_us", "us"},
    {"serve.weight_refreshes", "count"},
    {"online.registry_record_ms", "ms"},
    {"online.eval_ms_per_candidate", "ms"},
    {"online.trained", "count"},
    {"online.candidates", "count"},
    {"online.published", "count"},
    {"online.rollbacks", "count"},
    {"online.errors", "count"},
    {"core.prepare_s", "s"},
    {"runtime.compile_ms", "ms"},
    {"netd.bind_ms", "ms"},
    {"online.start_ms", "ms"},
    {"obs.trace_tax", "ratio"},
    {"obs.waterfall_other_share", "fraction"},
    {"req.a.sent", "count"},
    {"req.a.ok", "count"},
    {"req.a.rejected", "count"},
    {"req.a.error", "count"},
    {"req.b.sent", "count"},
    {"req.b.ok", "count"},
    {"req.b.rejected", "count"},
    {"req.b.error", "count"},
    {"req.fb.sent", "count"},
    {"req.fb.ok", "count"},
    {"req.fb.rejected", "count"},
    {"req.fb.error", "count"},
    {"gen.late_ms_p99", "ms"},
    {"gen.late_ms_max", "ms"},
    {"host.steal_ms", "ms"},
    {"host.nproc", "count"},
    {"host.calib_ms", "ms"},
};

}  // namespace perfbench
