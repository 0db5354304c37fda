// train_paper — Operation Flow 1 on Table II's training build: FA with a
// frozen, pretrained conv stack on 28x28 synthetic digits -> 100 hidden ->
// 10 outputs, batch 1, one thread. One online pass over a pinned stream,
// then a phase-1 evaluation pass over a pinned held-out set.
//
// The traced run replays Operation Flow 1 through public loihi::Chip calls
// (the same sequence EmstdpNetwork::train_sample issues) so each host-side
// step can be timed from outside; the replay must end bit-identical to
// Session::train.

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <memory>
#include <vector>

#include "core/experiment.hpp"
#include "data/encode.hpp"
#include "loihi/energy.hpp"
#include "obs/timer.hpp"
#include "runtime/compiled_model.hpp"
#include "workloads.hpp"

namespace perfbench {

namespace {

using namespace neuro;

// Pinned scale. The conv pretraining, the training stream and the held-out
// set use a fixed seed: an online learner's last-iterate accuracy swings by
// +-0.15 with stream order (0.60-0.96 over four stream seeds at this
// scale), and a 300-sample held-out draw moves it by ~2%, either of which
// would swamp a bound. The run seed orders the evaluation pass.
constexpr std::uint64_t kPinnedSeed = 20211;
constexpr std::size_t kStream = 1000;   ///< online training samples per pass
constexpr std::size_t kHeldOut = 1000;  ///< evaluation samples per pass
constexpr std::size_t kAnnEpochs = 1;
constexpr std::size_t kSetups = 3;
constexpr std::size_t kBlock = 50;      ///< traced run: train/replay block
/// Per-sample training budget for slo_ok_ratio (20 FPS real-time training).
constexpr double kTrainSloMs = 50.0;

struct Built {
    std::unique_ptr<core::Prepared> prep;
    data::Dataset held_out;
    core::EmstdpOptions opt;
    std::shared_ptr<const runtime::CompiledModel> model;
    double prepare_s = 0.0;
    double compile_ms = 0.0;
};

/// The system's set-up: synthesize and pretrain (core::prepare), synthesize
/// the held-out set, compile the chip model.
Built build() {
    Built b;
    const auto t0 = Clock::now();
    core::ExperimentSpec spec;
    spec.dataset = "digits";
    spec.train_count = kStream;
    spec.test_count = 100;
    spec.ann_epochs = kAnnEpochs;
    spec.seed = kPinnedSeed;
    b.prep = std::make_unique<core::Prepared>(core::prepare(spec));
    data::GenOptions gen;
    gen.count = kHeldOut;
    gen.seed = kPinnedSeed + 1;
    b.held_out = data::make_digits(gen);
    b.prepare_s = seconds_since(t0);

    b.opt.feedback = core::FeedbackMode::FA;
    b.opt.neurons_per_core = 10;  // Table II's operating point (Fig. 3)
    const auto t1 = Clock::now();
    b.model = core::compile_chip_model(*b.prep, b.opt);
    b.compile_ms = 1e3 * seconds_since(t1);
    return b;
}

/// Samples per second of busy time.
double rate(const std::vector<double>& per_sample_s) {
    double total = 0.0;
    for (double t : per_sample_s) total += t;
    return static_cast<double>(per_sample_s.size()) / total;
}

bool same_activity(const loihi::ActivityTotals& a, const loihi::ActivityTotals& b) {
    return a.steps == b.steps && a.compartment_updates == b.compartment_updates &&
           a.synaptic_ops == b.synaptic_ops && a.spikes == b.spikes &&
           a.learning_synapse_visits == b.learning_synapse_visits &&
           a.host_io_writes == b.host_io_writes;
}

/// Replays EmstdpNetwork::train_sample through public Chip calls on a
/// session of its own, timing each host-side step (summed over samples).
class Replayer {
public:
    explicit Replayer(const Built& b)
        : session_(b.model->open_session()),
          net_(*session_->native_network()),
          T_(b.opt.phase_length),
          label_bias_(static_cast<std::int32_t>(
              std::lround(b.opt.target_rate * static_cast<float>(T_)))),
          classes_(b.prep->topo.classes) {
        net_.chip().reset_kernel_phase_times();
    }

    void sample(const data::Sample& s) {
        loihi::Chip& chip = net_.chip();
        const auto steps = static_cast<std::size_t>(T_);
        const auto t0 = Clock::now();
        chip.reset_dynamic_state();
        const auto t1 = Clock::now();
        const auto bias = data::quantize_to_bias(s.image, T_);
        const auto t2 = Clock::now();
        chip.set_bias(net_.input_pop(), bias);
        std::vector<std::int32_t> lb(classes_, 0);
        lb[s.label] = label_bias_;
        chip.set_bias(*net_.label_pop(), lb);
        const auto t3 = Clock::now();
        chip.set_phase(loihi::Phase::One);
        chip.run(steps);
        const auto t4 = Clock::now();
        chip.reset_membranes();
        const auto t5 = Clock::now();
        chip.set_phase(loihi::Phase::Two);
        chip.run(steps);
        const auto t6 = Clock::now();
        chip.apply_learning();
        const auto t7 = Clock::now();
        program_s += seconds_between(t0, t1) + seconds_between(t2, t3) +
                     seconds_between(t4, t5);
        encode_s += seconds_between(t1, t2);
        step_s += seconds_between(t3, t4) + seconds_between(t5, t6);
        learn_s += seconds_between(t6, t7);
    }

    const loihi::KernelPhaseTimes& kernel() const {
        return net_.chip().kernel_phase_times();
    }
    runtime::WeightSnapshot weights() const { return session_->weights(); }

    double encode_s = 0.0;
    double program_s = 0.0;  ///< state resets + bias writes
    double step_s = 0.0;     ///< Chip::run over both phases
    double learn_s = 0.0;

private:
    std::unique_ptr<runtime::Session> session_;
    core::EmstdpNetwork& net_;
    std::int32_t T_;
    std::int32_t label_bias_;
    std::size_t classes_;
};

struct Pass {
    std::vector<double> train_s;   ///< per training sample
    std::vector<double> eval_s;    ///< per evaluation sample
    double train_cpu_s = 0.0;
    double accuracy = 0.0;
    loihi::ActivityTotals train_activity{};
    loihi::ActivityTotals eval_activity{};
    loihi::KernelPhaseTimes eval_kernel{};
    runtime::WeightSnapshot weights;
    double energy_mj = 0.0;
};

/// One online pass plus one evaluation pass on a fresh session. With a
/// replayer, the stream is trained in blocks of kBlock samples and each
/// block is replayed right after it, so the Session::train times and the
/// replayed rows they are compared with see the same host conditions.
Pass run_pass(const Built& b, Replayer* replay = nullptr) {
    Pass p;
    auto session = b.model->open_session();
    const auto& stream = b.prep->train.samples;
    p.train_s.reserve(stream.size());
    const double cpu0 = process_cpu_s();
    for (std::size_t blk = 0; blk < stream.size(); blk += kBlock) {
        const std::size_t end = std::min(stream.size(), blk + kBlock);
        for (std::size_t i = blk; i < end; ++i) {
            const auto t0 = Clock::now();
            session->train(stream[i].image, stream[i].label);
            p.train_s.push_back(seconds_since(t0));
        }
        if (replay)
            for (std::size_t i = blk; i < end; ++i) replay->sample(stream[i]);
    }
    p.train_cpu_s = process_cpu_s() - cpu0;
    p.train_activity = *session->activity();
    p.weights = session->weights();
    const auto report = loihi::estimate_energy(
        loihi::EnergyModelParams{}, session->native_network()->chip(),
        p.train_activity, stream.size());
    p.energy_mj = report.energy_per_sample_j * 1e3;

    session->native_network()->chip().reset_activity();
    session->native_network()->chip().reset_kernel_phase_times();
    std::size_t hits = 0;
    for (const auto& s : b.held_out.samples) {
        const auto t0 = Clock::now();
        const std::size_t y = session->predict(s.image);
        p.eval_s.push_back(seconds_since(t0));
        if (y == s.label) ++hits;
    }
    p.accuracy = static_cast<double>(hits) / static_cast<double>(b.held_out.size());
    p.eval_activity = *session->activity();
    p.eval_kernel = *session->kernel_phases();
    return p;
}

double per(double total, std::uint64_t n) {
    return n == 0 ? 0.0 : total / static_cast<double>(n);
}

}  // namespace

void run_train_paper(const RunArgs& args, Report& report) {
    const auto t_run = Clock::now();
    std::vector<double> setup_s;
    std::unique_ptr<Built> built;
    runtime::WeightSnapshot initial;
    const std::size_t setups = args.trace ? 1 : kSetups;
    for (std::size_t i = 0; i < setups; ++i) {
        const auto t0 = Clock::now();
        auto b = std::make_unique<Built>(build());
        setup_s.push_back(seconds_since(t0));
        // The seed orders the evaluation pass (outside the timed set-up).
        const auto order = seeded_order(derive_seed(args.seed, 1), kHeldOut, kHeldOut);
        std::vector<data::Sample> ordered;
        for (std::size_t k : order) ordered.push_back(b->held_out.samples[k]);
        b->held_out.samples = std::move(ordered);
        if (i == 0)
            initial = b->model->initial_weights();
        else
            report.gate(b->model->initial_weights().layers == initial.layers,
                        "repeated set-up compiled different initial weights");
        built = std::move(b);
    }
    const Built& b = *built;

    // ---- untraced passes: every end-to-end number comes from here ---------
    obs::set_timing(false);
    std::vector<Pass> passes;
    const double budget = args.trace ? 0.5 * args.seconds : args.seconds;
    double rss_after_first = 0.0;
    do {
        passes.push_back(run_pass(b));
        report.attempted += passes.back().train_s.size() + passes.back().eval_s.size();
        // Later passes only reuse freed memory; reading the peak here keeps
        // it independent of how many passes fit in the run.
        if (passes.size() == 1) rss_after_first = peak_rss_mb();
    } while (seconds_since(t_run) < budget);
    const Pass& first = passes.front();
    for (const Pass& p : passes) {
        report.gate(p.weights.layers == first.weights.layers &&
                        p.accuracy == first.accuracy &&
                        same_activity(p.train_activity, first.train_activity),
                    "repeated passes over the same stream diverged");
    }
    report.gate(first.accuracy > 0.2,
                "held-out accuracy after the pass is at chance level");

    // Rates pool every pass of the run (samples over busy time): this host
    // alternates between fast and slow spells lasting seconds, and a pooled
    // mean moves less with the mix than a median of windows does.
    std::vector<double> train_all;
    double eval_s = 0.0, cpu_s = 0.0;
    std::size_t evals = 0;
    for (const Pass& p : passes) {
        train_all.insert(train_all.end(), p.train_s.begin(), p.train_s.end());
        for (double t : p.eval_s) eval_s += t;
        evals += p.eval_s.size();
        cpu_s += p.train_cpu_s;
    }
    const double train_rate = rate(train_all);
    for (double& t : train_all) t *= 1e3;  // ms
    std::size_t within = 0;
    for (double t : train_all)
        if (t <= kTrainSloMs) ++within;
    const Tail tail = highest_supported(train_all);
    report.gate(supports(train_all.size(), 0.99),
                "too few training samples for a p99");
    char line[256];
    std::snprintf(line, sizeof line,
                  "train_paper: %zu pass(es) of %zu training + %zu held-out "
                  "samples; accuracy %.4f; sim energy %.3f mJ/sample (Table II: 8.4)",
                  passes.size(), first.train_s.size(), first.eval_s.size(),
                  first.accuracy, first.energy_mj);
    report.note(line);
    std::snprintf(line, sizeof line,
                  "train step latency: p50 %.3f ms, p99 %.3f ms, highest "
                  "supported p%.2f = %.3f ms (n=%zu)",
                  quantile(train_all, 0.5), quantile(train_all, 0.99),
                  tail.percentile, tail.value, tail.n);
    report.note(line);
    if (!args.trace) {
        Metrics& m = report.metrics;
        m.set("setup_s", median(setup_s), "s");
        m.set("samples_per_s", train_rate, "1/s");
        m.set("slo_ok_ratio",
              static_cast<double>(within) / static_cast<double>(train_all.size()),
              "fraction");
        m.set("accuracy", first.accuracy, "fraction");
        m.set("sim_energy_mj", first.energy_mj, "mJ/sample");
        m.set("cpu_ms_per_sample",
              1e3 * cpu_s / static_cast<double>(train_all.size()), "ms");
        m.set("peak_rss_mb", rss_after_first, "MB");
        return;
    }

    // ---- traced run: kernel timers on, Operation Flow 1 replayed ----------
    obs::set_timing(true);
    Replayer rep(b);
    const Pass traced = run_pass(b, &rep);
    obs::set_timing(false);
    report.attempted += traced.train_s.size() + traced.eval_s.size() +
                        b.prep->train.size();

    report.gate(traced.weights.layers == first.weights.layers &&
                    traced.accuracy == first.accuracy &&
                    traced.energy_mj == first.energy_mj &&
                    same_activity(traced.train_activity, first.train_activity) &&
                    same_activity(traced.eval_activity, first.eval_activity),
                "traced pass differs from the untraced pass");
    report.gate(rep.weights().layers == first.weights.layers,
                "Operation Flow 1 replay is not bit-identical to Session::train");

    const auto& act = traced.train_activity;
    const std::uint64_t n = b.prep->train.size();
    double traced_total_s = 0.0;
    for (double t : traced.train_s) traced_total_s += t;
    const double sweep_s = 1e-9 * static_cast<double>(rep.kernel().sweep_ns);
    const double accum_s = 1e-9 * static_cast<double>(rep.kernel().accum_ns);
    const double step_other_s = rep.step_s - sweep_s - accum_s;
    const double us = 1e6 / static_cast<double>(n);

    // Rows come from the replay; `other` is what Session::train spends
    // beyond the replayed chip calls (core.other_us_per_sample).
    Waterfall w;
    w.name = "train_paper: Session::train, one sample";
    w.unit = "us";
    w.total = traced_total_s * us;
    w.rows = {{"data.encode", rep.encode_s * us},
              {"loihi.program", rep.program_s * us},
              {"loihi.sweep", sweep_s * us},
              {"loihi.accum", accum_s * us},
              {"loihi.step_other", step_other_s * us},
              {"loihi.learn", rep.learn_s * us}};
    report.note(w.render());
    report.gate(w.reconciles(), "train_paper waterfall does not reconcile within 5%");

    const auto& ek = traced.eval_kernel;
    const auto& ea = traced.eval_activity;
    const std::uint64_t ne = b.held_out.size();
    double eval_total_s = 0.0;
    for (double t : traced.eval_s) eval_total_s += t;

    Metrics& m = report.metrics;
    m.set("data.encode_us_per_sample", rep.encode_s * us, "us");
    m.set("loihi.program_us_per_sample", rep.program_s * us, "us");
    m.set("loihi.step_other_us_per_sample", step_other_s * us, "us");
    m.set("loihi.sweep_ns_per_update", per(1e9 * sweep_s, act.compartment_updates), "ns");
    m.set("loihi.accum_ns_per_synop", per(1e9 * accum_s, act.synaptic_ops), "ns");
    m.set("loihi.learn_ns_per_visit", per(1e9 * rep.learn_s, act.learning_synapse_visits), "ns");
    m.set("loihi.learn_share", rep.learn_s / traced_total_s, "fraction");
    m.set("core.other_us_per_sample", w.other(), "us");
    m.set("loihi.steps", per(static_cast<double>(act.steps), n), "count");
    m.set("loihi.updates", per(static_cast<double>(act.compartment_updates), n), "count");
    m.set("loihi.synops", per(static_cast<double>(act.synaptic_ops), n), "count");
    m.set("loihi.spikes", per(static_cast<double>(act.spikes), n), "count");
    m.set("loihi.learn_visits", per(static_cast<double>(act.learning_synapse_visits), n), "count");
    m.set("loihi.host_writes", per(static_cast<double>(act.host_io_writes), n), "count");
    m.set("loihi.infer_us_per_sample", 1e6 * eval_total_s / static_cast<double>(ne), "us");
    m.set("loihi.infer_sweep_ns_per_update",
          per(static_cast<double>(ek.sweep_ns), ea.compartment_updates), "ns");
    m.set("loihi.infer_accum_ns_per_synop",
          per(static_cast<double>(ek.accum_ns), ea.synaptic_ops), "ns");
    m.set("obs.waterfall_other_share", w.other_share(), "fraction");
    m.set("latency_p50_ms", quantile(train_all, 0.5), "ms");
    m.set("latency_p99_ms", quantile(train_all, 0.99), "ms");
    m.set("infer_samples_per_s", static_cast<double>(evals) / eval_s, "1/s");
    m.set("core.prepare_s", b.prepare_s, "s");
    m.set("runtime.compile_ms", b.compile_ms, "ms");
    m.set("obs.trace_tax", rate(traced.train_s) / train_rate, "ratio");
}

}  // namespace perfbench
