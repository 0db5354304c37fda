// serve_wire and serve_learn — the serving stack driven over neurod's wire
// protocol: an in-process netd::Daemon on a Unix socket in front of a
// one-worker serve::Server (micro-batches of up to 8), fed by this file's
// load generator (at most 3 threads, 2 connections).
//
//   serve_wire:  dense 16x16 -> 100 -> 10 model after one online training
//                pass in set-up; phase A is a closed loop (one connection,
//                8 requests in flight), phase B an open loop (a seeded
//                Poisson stream at a fixed rate on one pipelined
//                connection).
//   serve_learn: phase B traffic while a pinned stream of labelled
//                feedback frames on a second connection drives an
//                online::OnlineEngine (DFA learner, replay, shadow eval,
//                on-disk registry).
//
// Open-loop latency runs from each request's due time, so a generator or
// server stall is charged to every request it delays.

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <filesystem>
#include <memory>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include <unistd.h>

#include "core/trainer.hpp"
#include "data/dataset.hpp"
#include "loihi/energy.hpp"
#include "netd/client.hpp"
#include "netd/daemon.hpp"
#include "netd/protocol.hpp"
#include "obs/timer.hpp"
#include "obs/trace.hpp"
#include "online/engine.hpp"
#include "online/registry.hpp"
#include "runtime/compiled_model.hpp"
#include "serve/server.hpp"
#include "workloads.hpp"

namespace perfbench {

namespace {

using namespace neuro;

// Pinned model and data: the request pool, the set-up training pass, the
// feedback stream and the held-out set never change with the seed, so the
// deterministic metrics (accuracy, the learning trajectory) repeat exactly.
// The run seed draws the request order and the Poisson schedule.
constexpr std::uint64_t kPinnedSeed = 20212;
constexpr std::size_t kTrainPass = 300;   ///< serve_wire set-up training pass
constexpr std::size_t kPool = 256;        ///< distinct request images
constexpr std::size_t kHoldout = 200;     ///< shadow-eval / accuracy set
constexpr std::size_t kFeedback = 448;    ///< serve_learn feedback frames
constexpr std::size_t kPublishInterval = 32;
/// Phase A and B request counts are whole cycles over the pool, so every
/// image is asked equally often whatever order the seed draws.
constexpr std::size_t kPhaseA = 8 * kPool;
constexpr std::size_t kInflightA = 8;
constexpr std::size_t kPhaseB = 4 * kPool;
/// Open-loop offered rate: a fixed constant (about a fifth of this host's
/// calm-period capacity), never derived from the run's own capacity.
constexpr double kRateB = 250.0;
constexpr double kSloMs = 10.0;
/// Feedback frames sent but not yet drained by the learner; far below the
/// feedback queue's capacity, so the queue never sheds.
constexpr std::size_t kFeedbackWindow = 8;
constexpr std::size_t kFeedbackCapacity = 64;
constexpr std::size_t kMinEpisodes = 3;
/// Passes of the in-process inference (reference answers, held-out
/// accuracy): more predictions steady infer_samples_per_s.
constexpr std::size_t kInferPasses = 4;

std::atomic<int> g_instance{0};
std::string g_scratch = ".bench_build/run";

std::string scratch_path(const std::string& stem) {
    return g_scratch + "/" + stem + "-" + std::to_string(::getpid()) + "-" +
           std::to_string(g_instance.fetch_add(1));
}

struct Data {
    data::Dataset train, pool, holdout, feedback;
};

Data synthesize() {
    data::GenOptions gen;
    gen.count = kTrainPass + kPool + kHoldout + kFeedback;
    gen.seed = kPinnedSeed;
    gen.height = 16;
    gen.width = 16;
    auto all = data::make_digits(gen);
    Data d;
    auto [train, rest1] = data::split(all, kTrainPass);
    auto [pool, rest2] = data::split(rest1, kPool);
    auto [holdout, feedback] = data::split(rest2, kHoldout);
    d.train = std::move(train);
    d.pool = std::move(pool);
    d.holdout = std::move(holdout);
    d.feedback = std::move(feedback);
    return d;
}

runtime::ModelSpec dense_spec() {
    runtime::ModelSpec spec;
    spec.input(1, 16, 16).hidden_layers({100}).output_classes(10);
    spec.options.seed = 29;
    return spec;
}

// ---- the daemon under test -------------------------------------------------

/// serve::Server + netd::Daemon on a Unix socket, event loop on its own
/// thread. Binding is complete when the constructor returns.
class Wire {
public:
    Wire(std::shared_ptr<const runtime::CompiledModel> model, bool feedback) {
        serve::ServerOptions so;
        so.workers = 1;
        so.queue_capacity = 256;
        so.batch.max_batch = 8;
        so.backpressure = serve::Backpressure::Shed;
        if (feedback) so.admission.feedback_capacity = kFeedbackCapacity;
        server_ = std::make_shared<serve::Server>(model, so);
        server_->start();
        opts_.data_path = scratch_path("s") + ".sock";
        daemon_ = std::make_unique<netd::Daemon>(server_, model, opts_);
        loop_ = std::thread([this] { daemon_->run(); });
        // Readiness: retry the connect until the loop has bound (no sleep).
        const auto t0 = Clock::now();
        for (;;) {
            try {
                netd::Client::connect_unix(opts_.data_path);
                break;
            } catch (const std::exception&) {
                if (seconds_since(t0) > 20.0) {
                    shutdown();
                    throw std::runtime_error("neurod loop never came up");
                }
                std::this_thread::yield();
            }
        }
    }
    ~Wire() { shutdown(); }
    Wire(const Wire&) = delete;
    Wire& operator=(const Wire&) = delete;

    void shutdown() {
        if (daemon_ && !daemon_->finished()) daemon_->request_shutdown();
        if (loop_.joinable()) loop_.join();
        if (server_) server_->shutdown();
        std::error_code ec;
        std::filesystem::remove(opts_.data_path, ec);
    }

    const std::string& path() const { return opts_.data_path; }
    serve::Server& server() { return *server_; }

private:
    std::shared_ptr<serve::Server> server_;
    netd::DaemonOptions opts_;
    std::unique_ptr<netd::Daemon> daemon_;
    std::thread loop_;
};

// ---- the load generator ----------------------------------------------------

/// Phase request accounting (sent = ok + rejected + error once drained).
struct PhaseCounts {
    std::uint64_t sent = 0;
    std::uint64_t ok = 0;
    std::uint64_t rejected = 0;
    std::uint64_t error = 0;
};

/// One request of a phase, as the generator saw it. Times are seconds from
/// the phase start; spans are the v3 echo (microseconds, kernels in ns).
struct Rec {
    double due = 0.0, send = 0.0, recv = -1.0;
    std::size_t image = 0;
    netd::WireStatus status = netd::WireStatus::Rejected;
    std::uint32_t label = 0;
    std::uint32_t batch = 0;
    bool traced = false;
    std::uint64_t queue = 0, batch_us = 0, compute = 0, resolve = 0,
                  sweep_ns = 0, accum_ns = 0, total = 0;
};

/// netd::Client with the request encode and the response decode done here,
/// so both can be timed. One writer thread and one reader thread may share
/// it (a full-duplex socket; only the reader decodes).
class WireClient {
public:
    explicit WireClient(const std::string& path)
        : c_(netd::Client::connect_unix(path)) {}

    void send(const netd::RequestFrame& f) {
        const auto t0 = Clock::now();
        const auto bytes = netd::encode(f);
        encode_s_ += seconds_since(t0);
        ++encoded_;
        c_.send_raw(bytes.data(), bytes.size());
    }

    /// Blocks for the next response; false on EOF.
    bool recv(netd::ResponseFrame& out) {
        for (;;) {
            const auto t0 = Clock::now();
            const auto r = dec_.next_response(out);
            decode_s_ += seconds_since(t0);
            if (r == netd::Decoder::Result::Frame) {
                ++decoded_;
                return true;
            }
            if (r == netd::Decoder::Result::Error)
                throw std::runtime_error(std::string("response decode error: ") +
                                         netd::to_string(dec_.error()));
            const std::size_t n = c_.recv_raw(buf_.data(), buf_.size());
            if (n == 0) return false;
            const auto t1 = Clock::now();
            dec_.feed(buf_.data(), n);
            decode_s_ += seconds_since(t1);
        }
    }

    double encode_ns_per_frame() const {
        return encoded_ == 0 ? 0.0 : 1e9 * encode_s_ / static_cast<double>(encoded_);
    }
    double decode_ns_per_frame() const {
        return decoded_ == 0 ? 0.0 : 1e9 * decode_s_ / static_cast<double>(decoded_);
    }

private:
    netd::Client c_;
    netd::Decoder dec_;
    std::vector<std::uint8_t> buf_ = std::vector<std::uint8_t>(1 << 16);
    double encode_s_ = 0.0, decode_s_ = 0.0;
    std::uint64_t encoded_ = 0, decoded_ = 0;
};

netd::RequestFrame predict_frame(const common::Tensor& img, std::uint64_t id,
                                 bool trace) {
    netd::RequestFrame f;
    f.version = netd::kProtocolVersionV3;
    f.flags = trace ? netd::kFlagTrace : 0;
    f.request_id = id;
    f.shape.assign(img.shape().begin(), img.shape().end());
    f.data.assign(img.data(), img.data() + img.size());
    return f;
}

void fill(Rec& r, const netd::ResponseFrame& resp, double recv_s) {
    r.recv = recv_s;
    r.status = resp.status;
    r.label = resp.label;
    r.batch = resp.batch_size;
    for (const auto& s : resp.trace) {
        r.traced = true;
        switch (static_cast<obs::SpanId>(s.id)) {
            case obs::SpanId::QueueUs: r.queue = s.value; break;
            case obs::SpanId::BatchUs: r.batch_us = s.value; break;
            case obs::SpanId::ComputeUs: r.compute = s.value; break;
            case obs::SpanId::ResolveUs: r.resolve = s.value; break;
            case obs::SpanId::KernelSweepNs: r.sweep_ns = s.value; break;
            case obs::SpanId::KernelAccumNs: r.accum_ns = s.value; break;
            case obs::SpanId::TotalUs: r.total = s.value; break;
        }
    }
}

PhaseCounts count(const std::vector<Rec>& recs) {
    PhaseCounts c;
    c.sent = recs.size();
    for (const auto& r : recs) {
        if (r.recv < 0.0) continue;
        if (r.status == netd::WireStatus::Ok) ++c.ok;
        else if (r.status == netd::WireStatus::Rejected) ++c.rejected;
        else ++c.error;
    }
    return c;
}

struct ClosedLoop {
    std::vector<Rec> recs;
    double wall_s = 0.0;
};

/// Phase A: one connection keeps kInflightA requests in flight.
ClosedLoop run_closed(const std::string& path, const data::Dataset& pool,
                      const std::vector<std::size_t>& order, bool trace) {
    WireClient client(path);
    ClosedLoop out;
    out.recs.resize(order.size());
    const auto t0 = Clock::now();
    std::size_t sent = 0, received = 0;
    auto send_next = [&] {
        Rec& r = out.recs[sent];
        r.image = order[sent];
        r.send = seconds_since(t0);
        r.due = r.send;
        client.send(predict_frame(pool.samples[r.image].image, sent + 1, trace));
        ++sent;
    };
    while (sent < std::min(kInflightA, order.size())) send_next();
    netd::ResponseFrame resp;
    while (received < order.size()) {
        if (!client.recv(resp)) throw std::runtime_error("phase A: daemon closed");
        const double now = seconds_since(t0);
        if (resp.request_id == 0 || resp.request_id > out.recs.size())
            throw std::runtime_error("phase A: unknown request id");
        fill(out.recs[resp.request_id - 1], resp, now);
        ++received;
        if (sent < order.size()) send_next();
    }
    out.wall_s = seconds_since(t0);
    return out;
}

struct OpenLoop {
    std::vector<Rec> recs;
    double cpu_s = 0.0;      ///< process CPU over the phase
    double gen_cpu_s = 0.0;  ///< the writer's and reader's own CPU
    double encode_ns = 0.0, decode_ns = 0.0;
};

/// Phase B: a seeded Poisson stream on one pipelined connection. Runs
/// `limit` requests, or until `stop` flips when limit is 0 (the request in
/// flight when it flips is the last).
OpenLoop run_open(const std::string& path, const data::Dataset& pool,
                  const std::vector<std::size_t>& order, std::uint64_t sched_seed,
                  std::size_t limit, const std::atomic<bool>* stop, bool trace) {
    WireClient client(path);
    OpenLoop out;
    out.recs.resize(limit > 0 ? limit : order.size());
    std::vector<Rec> replies(out.recs.size());
    std::atomic<std::size_t> last_id{0};
    double writer_cpu = 0.0, reader_cpu = 0.0;
    std::string reader_error;
    const auto t0 = Clock::now();
    const double cpu0 = process_cpu_s();

    std::thread reader([&] {
        const double c0 = thread_cpu_s();
        try {
            netd::ResponseFrame resp;
            std::size_t received = 0;
            for (;;) {
                const std::size_t last = last_id.load();
                if (last != 0 && received == last) break;
                if (!client.recv(resp)) throw std::runtime_error("daemon closed");
                const double now = seconds_since(t0);
                if (resp.request_id == 0 || resp.request_id > replies.size())
                    throw std::runtime_error("unknown request id");
                fill(replies[resp.request_id - 1], resp, now);
                ++received;
            }
        } catch (const std::exception& e) {
            reader_error = e.what();
        }
        reader_cpu = thread_cpu_s() - c0;
    });

    try {
        const double c0 = thread_cpu_s();
        PoissonSchedule sched(sched_seed, kRateB);
        std::size_t i = 0;
        for (; i < out.recs.size(); ++i) {
            Rec& r = out.recs[i];
            r.image = order[i];
            r.due = sched.next();
            std::this_thread::sleep_until(
                t0 + std::chrono::duration_cast<Clock::duration>(
                         std::chrono::duration<double>(r.due)));
            const bool last = limit > 0 ? i + 1 == limit
                                        : (stop->load() || i + 1 == out.recs.size());
            if (last) last_id.store(i + 1);
            r.send = seconds_since(t0);
            client.send(predict_frame(pool.samples[r.image].image, i + 1, trace));
            if (last) break;
        }
        out.recs.resize(i + 1);
        writer_cpu = thread_cpu_s() - c0;
    } catch (const std::exception& e) {
        // The reader may be blocked on replies that will never come; a
        // broken connection ends the run here.
        std::fprintf(stderr, "perfbench: phase B send failed: %s\n", e.what());
        std::_Exit(2);
    }
    reader.join();
    if (!reader_error.empty()) throw std::runtime_error("phase B: " + reader_error);
    out.cpu_s = process_cpu_s() - cpu0;
    out.gen_cpu_s = writer_cpu + reader_cpu;
    // The reader filled the reply half of each record; add the request half.
    replies.resize(out.recs.size());
    for (std::size_t i = 0; i < replies.size(); ++i) {
        replies[i].due = out.recs[i].due;
        replies[i].send = out.recs[i].send;
        replies[i].image = out.recs[i].image;
    }
    out.recs = std::move(replies);
    out.encode_ns = client.encode_ns_per_frame();
    out.decode_ns = client.decode_ns_per_frame();
    return out;
}

double mean_batch(const std::vector<Rec>& recs) {
    double s = 0.0;
    std::size_t n = 0;
    for (const auto& r : recs)
        if (r.status == netd::WireStatus::Ok && r.recv >= 0.0) {
            s += r.batch;
            ++n;
        }
    return n == 0 ? 0.0 : s / static_cast<double>(n);
}

/// In-process phase-1 inference, kInferPasses passes over `ds` on
/// `session`: the reference answers, their accuracy, the busy time and the
/// simulated energy per inference. Every pass must repeat the first.
struct InProcess {
    std::vector<std::size_t> labels;
    double accuracy = 0.0;
    std::size_t predictions = 0;
    double busy_s = 0.0;  ///< summed predict time
    double energy_mj = 0.0;
    bool repeatable = true;
};

InProcess infer_all(runtime::Session& session, const data::Dataset& ds) {
    InProcess out;
    auto& chip = session.native_network()->chip();
    chip.reset_activity();
    std::size_t hits = 0;
    for (std::size_t pass = 0; pass < kInferPasses; ++pass)
        for (std::size_t i = 0; i < ds.size(); ++i) {
            const auto t0 = Clock::now();
            const std::size_t y = session.predict(ds.samples[i].image);
            out.busy_s += seconds_since(t0);
            ++out.predictions;
            if (pass > 0) {
                out.repeatable = out.repeatable && y == out.labels[i];
                continue;
            }
            out.labels.push_back(y);
            if (y == ds.samples[i].label) ++hits;
        }
    out.accuracy = static_cast<double>(hits) / static_cast<double>(ds.size());
    out.energy_mj = 1e3 * loihi::estimate_energy(loihi::EnergyModelParams{}, chip,
                                                 chip.activity(), out.predictions)
                              .energy_per_sample_j;
    return out;
}

/// Open-loop latency summary over a set of phase-B records.
struct Latency {
    std::vector<double> from_due_ms;  ///< Ok responses only
    std::vector<double> late_ms;      ///< generator lateness, every request
    std::size_t sent = 0;
    std::size_t ok_within_slo = 0;
};

void add_latency(Latency& l, const std::vector<Rec>& recs) {
    for (const auto& r : recs) {
        ++l.sent;
        l.late_ms.push_back(1e3 * (r.send - r.due));
        if (r.recv < 0.0 || r.status != netd::WireStatus::Ok) continue;
        const double ms = 1e3 * (r.recv - r.due);
        l.from_due_ms.push_back(ms);
        if (ms <= kSloMs) ++l.ok_within_slo;
    }
}

double slo_ok_ratio(const Latency& l) {
    return static_cast<double>(l.ok_within_slo) / static_cast<double>(l.sent);
}

std::string latency_note(const char* what, const Latency& l) {
    const Tail tail = highest_supported(l.from_due_ms);
    char line[320];
    std::snprintf(line, sizeof line,
                  "%s latency from due time: p50 %.3f ms, p90 %.3f ms, p99 %.3f ms, highest "
                  "supported p%.2f = %.3f ms (n=%zu); %zu/%zu within %.0f ms; "
                  "generator late p99 %.3f ms, max %.3f ms",
                  what, quantile(l.from_due_ms, 0.5), quantile(l.from_due_ms, 0.9),
                  quantile(l.from_due_ms, 0.99),
                  tail.percentile, tail.value, tail.n, l.ok_within_slo, l.sent,
                  kSloMs, quantile(l.late_ms, 0.99),
                  *std::max_element(l.late_ms.begin(), l.late_ms.end()));
    return line;
}

/// Per-layer rows and the waterfall of a traced open-loop phase.
void traced_rows(Report& report, const std::vector<Rec>& recs, const char* name) {
    std::vector<double> queue, batch, compute, resolve, wire, sweep, accum;
    double due_sum = 0.0, late_sum = 0.0, rtt_sum = 0.0, total_sum = 0.0;
    double q = 0.0, b = 0.0, c = 0.0, r = 0.0;
    std::size_t n = 0;
    for (const auto& x : recs) {
        if (x.recv < 0.0 || x.status != netd::WireStatus::Ok) continue;
        report.gate(x.traced, "traced request came back without its span echo");
        const double rtt_us = 1e6 * (x.recv - x.send);
        queue.push_back(static_cast<double>(x.queue));
        batch.push_back(static_cast<double>(x.batch_us));
        compute.push_back(static_cast<double>(x.compute));
        resolve.push_back(static_cast<double>(x.resolve));
        wire.push_back(rtt_us - static_cast<double>(x.total));
        sweep.push_back(1e-3 * static_cast<double>(x.sweep_ns));
        accum.push_back(1e-3 * static_cast<double>(x.accum_ns));
        due_sum += 1e6 * (x.recv - x.due);
        late_sum += 1e6 * (x.send - x.due);
        rtt_sum += rtt_us;
        total_sum += static_cast<double>(x.total);
        q += static_cast<double>(x.queue);
        b += static_cast<double>(x.batch_us);
        c += static_cast<double>(x.compute);
        r += static_cast<double>(x.resolve);
        ++n;
    }
    if (n == 0) {
        report.gate(false, "traced phase returned no Ok responses");
        return;
    }
    const double dn = static_cast<double>(n);
    Waterfall w;
    w.name = std::string(name) + ": one open-loop request, due time to response";
    w.unit = "us";
    w.total = due_sum / dn;
    w.rows = {{"gen.late", late_sum / dn},
              {"netd.wire", (rtt_sum - total_sum) / dn},
              {"serve.queue", q / dn},
              {"serve.batch", b / dn},
              {"serve.compute", c / dn},
              {"serve.resolve", r / dn}};
    report.note(w.render());
    report.gate(w.reconciles(), std::string(name) + " waterfall does not reconcile within 5%");

    Metrics& m = report.metrics;
    m.set("serve.queue_us_p50", quantile(queue, 0.5), "us");
    m.set("serve.queue_us_p99", quantile(queue, 0.99), "us");
    m.set("serve.batch_us_p50", quantile(batch, 0.5), "us");
    m.set("serve.compute_us_p50", quantile(compute, 0.5), "us");
    m.set("serve.compute_us_p99", quantile(compute, 0.99), "us");
    m.set("serve.resolve_us_p50", quantile(resolve, 0.5), "us");
    m.set("netd.wire_us_p50", quantile(wire, 0.5), "us");
    m.set("netd.wire_us_p99", quantile(wire, 0.99), "us");
    m.set("loihi.sweep_us_per_request", mean(sweep), "us");
    m.set("loihi.accum_us_per_request", mean(accum), "us");
    m.set("obs.waterfall_other_share", w.other_share(), "fraction");
}

// ---- serve_wire -------------------------------------------------------------

struct WireEpisode {
    double setup_s = 0.0, prepare_s = 0.0, compile_ms = 0.0, bind_ms = 0.0;
    ClosedLoop a;
    OpenLoop b;
    InProcess reference;
    double accuracy = 0.0;
    std::uint64_t mismatches = 0;
};

WireEpisode wire_episode(std::uint64_t seed, std::uint64_t episode, bool trace) {
    WireEpisode ep;
    // ---- set-up (timed): synthesize, compile, one training pass, bind ----
    const auto t0 = Clock::now();
    const Data d = synthesize();
    const auto t1 = Clock::now();
    auto base = runtime::CompiledModel::compile(dense_spec());
    const auto t2 = Clock::now();
    auto trainer = base->open_session();
    for (const auto& s : d.train.samples) trainer->train(s.image, s.label);
    const auto t3 = Clock::now();
    auto served = base->with_weights(trainer->weights());
    const auto t4 = Clock::now();
    Wire wire(served, false);
    const auto t5 = Clock::now();
    ep.setup_s = seconds_between(t0, t5);
    ep.prepare_s = seconds_between(t0, t1) + seconds_between(t2, t3);
    ep.compile_ms = 1e3 * (seconds_between(t1, t2) + seconds_between(t3, t4));
    ep.bind_ms = 1e3 * seconds_between(t4, t5);

    // ---- inputs from the seed (per episode, so episodes differ in order) --
    const std::uint64_t s = derive_seed(seed, 100 + episode);
    const auto order_a = seeded_order(derive_seed(s, 1), kPool, kPhaseA);
    const auto order_b = seeded_order(derive_seed(s, 2), kPool, kPhaseB);

    obs::set_timing(trace);
    ep.a = run_closed(wire.path(), d.pool, order_a, trace);
    ep.b = run_open(wire.path(), d.pool, order_b, derive_seed(s, 3), kPhaseB,
                    nullptr, trace);
    obs::set_timing(false);
    wire.shutdown();

    // ---- correctness: every Ok answer equals in-process Session::predict --
    auto check = served->open_session();
    ep.reference = infer_all(*check, d.pool);
    std::uint64_t ok = 0, right = 0;
    for (const auto* recs : {&ep.a.recs, &ep.b.recs})
        for (const auto& r : *recs) {
            if (r.recv < 0.0 || r.status != netd::WireStatus::Ok) continue;
            ++ok;
            if (r.label != ep.reference.labels[r.image]) ++ep.mismatches;
            if (r.label == d.pool.samples[r.image].label) ++right;
        }
    ep.accuracy = ok == 0 ? 0.0 : static_cast<double>(right) / static_cast<double>(ok);
    return ep;
}

/// Records `c` as a printed line (every run) and as
/// req.<phase>.{sent,ok,rejected,error} (trace runs).
void account(Report& r, const std::string& phase, const PhaseCounts& c,
             bool per_layer) {
    char line[200];
    std::snprintf(line, sizeof line,
                  "phase %s: sent %llu, ok %llu, rejected %llu, error %llu", phase.c_str(),
                  static_cast<unsigned long long>(c.sent),
                  static_cast<unsigned long long>(c.ok),
                  static_cast<unsigned long long>(c.rejected),
                  static_cast<unsigned long long>(c.error));
    r.note(line);
    if (!per_layer) return;
    r.metrics.set("req." + phase + ".sent", static_cast<double>(c.sent), "count");
    r.metrics.set("req." + phase + ".ok", static_cast<double>(c.ok), "count");
    r.metrics.set("req." + phase + ".rejected", static_cast<double>(c.rejected), "count");
    r.metrics.set("req." + phase + ".error", static_cast<double>(c.error), "count");
}

void add_counts(PhaseCounts& total, const PhaseCounts& c) {
    total.sent += c.sent;
    total.ok += c.ok;
    total.rejected += c.rejected;
    total.error += c.error;
}

/// Per-layer rows of the untraced open-loop phase: latency percentiles and
/// the generator's own lateness.
void set_open_loop_rows(Metrics& m, const Latency& l) {
    m.set("latency_p50_ms", quantile(l.from_due_ms, 0.5), "ms");
    m.set("latency_p99_ms", quantile(l.from_due_ms, 0.99), "ms");
    m.set("gen.late_ms_p99", quantile(l.late_ms, 0.99), "ms");
    m.set("gen.late_ms_max", *std::max_element(l.late_ms.begin(), l.late_ms.end()), "ms");
}

}  // namespace

void run_serve_wire(const RunArgs& args, Report& report) {
    const auto t_run = Clock::now();
    std::vector<WireEpisode> eps;
    const double budget = args.trace ? 0.5 * args.seconds : args.seconds;
    const std::size_t min_eps = args.trace ? 1 : kMinEpisodes;
    double rss_after_first = 0.0;
    while (eps.size() < min_eps || seconds_since(t_run) < budget) {
        eps.push_back(wire_episode(args.seed, eps.size(), false));
        if (eps.size() == 1) rss_after_first = peak_rss_mb();
    }

    // Rates pool every episode of the run (work over time): this host
    // alternates between fast and slow spells lasting seconds.
    PhaseCounts a_total, b_total;
    Latency lat;
    std::vector<double> setup;
    double wall_a = 0.0, system_cpu_b = 0.0, infer_busy = 0.0, infer_n = 0.0;
    for (const auto& ep : eps) {
        const auto ca = count(ep.a.recs), cb = count(ep.b.recs);
        add_counts(a_total, ca);
        add_counts(b_total, cb);
        setup.push_back(ep.setup_s);
        wall_a += ep.a.wall_s;
        system_cpu_b += ep.b.cpu_s - ep.b.gen_cpu_s;
        infer_busy += ep.reference.busy_s;
        infer_n += ep.reference.predictions;
        add_latency(lat, ep.b.recs);
        report.gate(ep.reference.repeatable, "repeated in-process inference differed");
        report.gate(ep.mismatches == 0,
                    "an Ok answer differs from in-process Session::predict");
        report.gate(ep.accuracy == eps.front().accuracy &&
                        ep.reference.labels == eps.front().reference.labels,
                    "episodes on the same pinned model disagree");
    }
    const double rate_a = static_cast<double>(a_total.ok) / wall_a;
    report.attempted += a_total.sent + b_total.sent;
    report.failed += a_total.rejected + a_total.error + b_total.rejected + b_total.error;
    account(report, "a", a_total, args.trace);
    account(report, "b", b_total, args.trace);
    report.note(latency_note("phase B", lat));
    char line[200];
    std::snprintf(line, sizeof line,
                  "serve_wire: %zu episode(s); phase A %.1f req/s; "
                  "accuracy %.4f; sim energy %.4f mJ/inference",
                  eps.size(), rate_a, eps.front().accuracy,
                  eps.front().reference.energy_mj);
    report.note(line);

    Metrics& m = report.metrics;
    if (!args.trace) {
        m.set("setup_s", median(setup), "s");
        m.set("samples_per_s", rate_a, "1/s");
        m.set("slo_ok_ratio", slo_ok_ratio(lat), "fraction");
        m.set("accuracy", eps.front().accuracy, "fraction");
        m.set("sim_energy_mj", eps.front().reference.energy_mj, "mJ/sample");
        m.set("cpu_ms_per_sample", 1e3 * system_cpu_b / static_cast<double>(b_total.ok),
              "ms");
        m.set("peak_rss_mb", rss_after_first, "MB");
        return;
    }

    // ---- traced episode: v3 trace flag + kernel timers ---------------------
    const WireEpisode tr = wire_episode(args.seed, 0, true);
    const auto ta = count(tr.a.recs), tb = count(tr.b.recs);
    report.attempted += ta.sent + tb.sent;
    report.failed += ta.rejected + ta.error + tb.rejected + tb.error;
    report.gate(tr.mismatches == 0,
                "traced: an Ok answer differs from in-process Session::predict");
    report.gate(tr.accuracy == eps.front().accuracy &&
                    tr.reference.labels == eps.front().reference.labels &&
                    tr.reference.energy_mj == eps.front().reference.energy_mj,
                "traced episode differs from the untraced one");
    traced_rows(report, tr.b.recs, "serve_wire");
    m.set("serve.batch_size_mean_a", mean_batch(eps.front().a.recs), "count");
    m.set("serve.batch_size_mean_b", mean_batch(eps.front().b.recs), "count");
    m.set("netd.encode_ns_per_frame", tr.b.encode_ns, "ns");
    m.set("netd.decode_ns_per_frame", tr.b.decode_ns, "ns");
    m.set("core.prepare_s", eps.front().prepare_s, "s");
    m.set("runtime.compile_ms", eps.front().compile_ms, "ms");
    m.set("netd.bind_ms", eps.front().bind_ms, "ms");
    m.set("obs.trace_tax", (static_cast<double>(ta.ok) / tr.a.wall_s) / rate_a, "ratio");
    set_open_loop_rows(m, lat);
    m.set("infer_samples_per_s", infer_n / infer_busy, "1/s");
}

// ---- serve_learn ------------------------------------------------------------

namespace {

/// The learning trajectory; must repeat exactly for a pinned stream.
struct Trajectory {
    online::OnlineStats stats;
    std::vector<double> registry_accuracy;

    bool operator==(const Trajectory& o) const {
        const auto& a = stats;
        const auto& b = o.stats;
        return a.feedback_seen == b.feedback_seen && a.trained == b.trained &&
               a.candidates == b.candidates && a.published == b.published &&
               a.rollbacks == b.rollbacks && a.errors == b.errors &&
               a.prequential_hits == b.prequential_hits &&
               a.baseline_accuracy == b.baseline_accuracy &&
               a.last_good_accuracy == b.last_good_accuracy &&
               registry_accuracy == o.registry_accuracy;
    }
};

struct LearnEpisode {
    double setup_s = 0.0, prepare_s = 0.0, compile_ms = 0.0, bind_ms = 0.0,
           start_ms = 0.0;
    double learn_s = 0.0;          ///< first feedback sent -> stream consumed
    double cpu_s = 0.0, gen_cpu_s = 0.0;
    OpenLoop b;
    PhaseCounts fb;
    Trajectory traj;
    std::uint64_t weight_refreshes = 0;
    InProcess published;           ///< last published version on the holdout
    // Traced-only timings of public calls.
    double refresh_us = 0.0, record_ms = 0.0, eval_ms = 0.0;
};

/// Sends the pinned feedback stream in order on its own connection, keeping
/// at most kFeedbackWindow frames ahead of the learner, then waits until
/// the learner has consumed it: every frame drained and the last due
/// candidate evaluated.
PhaseCounts send_feedback(const std::string& path, const data::Dataset& stream,
                          const online::OnlineEngine& engine, double& cpu_s) {
    const double c0 = thread_cpu_s();
    const auto poll = std::chrono::milliseconds(1);
    WireClient client(path);
    PhaseCounts c;
    netd::ResponseFrame resp;
    for (std::size_t i = 0; i < stream.size(); ++i) {
        while (i - std::min<std::size_t>(i, engine.stats().feedback_seen) >=
               kFeedbackWindow)
            std::this_thread::sleep_for(poll);
        const auto& s = stream.samples[i];
        netd::RequestFrame f = predict_frame(s.image, i + 1, false);
        f.kind = netd::MsgKind::Feedback;
        f.label = static_cast<std::uint32_t>(s.label);
        client.send(f);
        ++c.sent;
        if (!client.recv(resp)) throw std::runtime_error("feedback: daemon closed");
        if (resp.status == netd::WireStatus::Ok) ++c.ok;
        else if (resp.status == netd::WireStatus::Rejected) ++c.rejected;
        else ++c.error;
    }
    for (;;) {
        const auto st = engine.stats();
        if (c.rejected + c.error > 0 ||
            (st.feedback_seen == stream.size() &&
             st.candidates == stream.size() / kPublishInterval))
            break;
        std::this_thread::sleep_for(poll);
    }
    cpu_s = thread_cpu_s() - c0;
    return c;
}

template <typename F>
double median_ms(std::size_t reps, F&& f) {
    std::vector<double> ms;
    for (std::size_t i = 0; i < reps; ++i) {
        const auto t0 = Clock::now();
        f();
        ms.push_back(1e3 * seconds_since(t0));
    }
    return median(ms);
}

LearnEpisode learn_episode(std::uint64_t seed, std::uint64_t episode, bool trace) {
    LearnEpisode ep;
    const std::string reg_dir = scratch_path("reg");
    std::filesystem::remove_all(reg_dir);

    // ---- set-up (timed): synthesize, compile, bind, engine start ----------
    const auto t0 = Clock::now();
    const Data d = synthesize();
    const auto t1 = Clock::now();
    auto model = runtime::CompiledModel::compile(dense_spec());
    const auto t2 = Clock::now();
    auto wire = std::make_unique<Wire>(model, true);
    const auto t3 = Clock::now();
    online::OnlineOptions oo;
    oo.publish_interval = kPublishInterval;
    oo.registry_dir = reg_dir;
    oo.seed = kPinnedSeed;
    online::OnlineEngine engine(model, wire->server().feedback_queue(), d.holdout, oo);
    engine.start();
    const auto t4 = Clock::now();
    ep.setup_s = seconds_between(t0, t4);
    ep.prepare_s = seconds_between(t0, t1);
    ep.compile_ms = 1e3 * seconds_between(t1, t2);
    ep.bind_ms = 1e3 * seconds_between(t2, t3);
    ep.start_ms = 1e3 * seconds_between(t3, t4);

    const std::uint64_t s = derive_seed(seed, 200 + episode);
    const auto order_b = seeded_order(derive_seed(s, 2), kPool, 64 * kPool);

    obs::set_timing(trace);
    std::atomic<bool> stop{false};
    double fb_cpu = 0.0;
    std::string fb_error;  // read after the join
    const double cpu0 = process_cpu_s();
    const auto t_learn = Clock::now();
    std::thread feeder([&] {
        try {
            ep.fb = send_feedback(wire->path(), d.feedback, engine, fb_cpu);
        } catch (const std::exception& e) {
            fb_error = e.what();
        }
        ep.learn_s = seconds_since(t_learn);
        stop.store(true);
    });
    std::exception_ptr open_error;
    try {
        ep.b = run_open(wire->path(), d.pool, order_b, derive_seed(s, 3), 0, &stop,
                        trace);
    } catch (...) {
        open_error = std::current_exception();
    }
    feeder.join();
    if (open_error) std::rethrow_exception(open_error);
    ep.cpu_s = process_cpu_s() - cpu0;
    ep.gen_cpu_s = ep.b.gen_cpu_s + fb_cpu;
    obs::set_timing(false);
    if (!fb_error.empty()) throw std::runtime_error("feedback: " + fb_error);

    engine.stop();
    ep.traj.stats = engine.stats();
    if (engine.registry())
        for (const auto& e : engine.registry()->entries())
            ep.traj.registry_accuracy.push_back(e.accuracy);
    ep.weight_refreshes = wire->server().stats().weight_refreshes;
    wire.reset();

    // ---- the last published version on the held-out set --------------------
    auto check = model->open_session();
    check->refresh();
    ep.published = infer_all(*check, d.holdout);

    if (trace) {
        // Public calls the learner and the workers make, timed from outside.
        std::vector<double> refresh_us;
        for (int i = 0; i < 20; ++i) {
            auto fresh = model->open_session();
            const auto r0 = Clock::now();
            fresh->refresh();
            refresh_us.push_back(1e6 * seconds_since(r0));
        }
        ep.refresh_us = median(refresh_us);
        const auto snap = check->weights();
        online::ModelRegistry reg(reg_dir + "-timing");
        std::uint64_t v = 0;
        ep.record_ms = median_ms(10, [&] { reg.record(++v, 0.5, snap); });
        std::filesystem::remove_all(reg_dir + "-timing");
        auto eval = model->open_session();
        ep.eval_ms = median_ms(5, [&] {
            eval->load_weights(snap);
            (void)core::evaluate(*eval, d.holdout);
        });
    }
    std::filesystem::remove_all(reg_dir);
    return ep;
}

}  // namespace

void run_serve_learn(const RunArgs& args, Report& report) {
    const auto t_run = Clock::now();
    std::vector<LearnEpisode> eps;
    const double budget = args.trace ? 0.5 * args.seconds : args.seconds;
    const std::size_t min_eps = args.trace ? 1 : kMinEpisodes;
    double rss_after_first = 0.0;
    while (eps.size() < min_eps || seconds_since(t_run) < budget) {
        eps.push_back(learn_episode(args.seed, eps.size(), false));
        if (eps.size() == 1) rss_after_first = peak_rss_mb();
    }

    PhaseCounts b_total, fb_total;
    Latency lat;
    std::vector<double> setup;
    double trained = 0.0, learn_s = 0.0, system_cpu = 0.0, work = 0.0,
           infer_busy = 0.0, infer_n = 0.0;
    const LearnEpisode& first = eps.front();
    for (const auto& ep : eps) {
        const auto cb = count(ep.b.recs);
        add_counts(b_total, cb);
        add_counts(fb_total, ep.fb);
        setup.push_back(ep.setup_s);
        trained += static_cast<double>(ep.traj.stats.trained);
        learn_s += ep.learn_s;
        system_cpu += ep.cpu_s - ep.gen_cpu_s;
        work += static_cast<double>(cb.ok + ep.traj.stats.trained);
        infer_busy += ep.published.busy_s;
        infer_n += ep.published.predictions;
        add_latency(lat, ep.b.recs);
        report.gate(ep.published.repeatable, "repeated in-process inference differed");
        report.gate(ep.fb.rejected == 0 && ep.fb.error == 0,
                    "a feedback frame was rejected");
        report.gate(ep.traj == first.traj,
                    "the learning trajectory differs between episodes");
        report.gate(ep.published.accuracy == ep.traj.stats.last_good_accuracy,
                    "the published version's held-out accuracy differs from the "
                    "engine's");
    }
    report.attempted += b_total.sent + fb_total.sent;
    report.failed += b_total.rejected + b_total.error + fb_total.rejected + fb_total.error;
    account(report, "b", b_total, args.trace);
    account(report, "fb", fb_total, args.trace);
    report.note(latency_note("phase B while learning", lat));
    const auto& st = first.traj.stats;
    char line[320];
    std::snprintf(line, sizeof line,
                  "serve_learn: %zu episode(s); learner %.1f steps/s; held-out "
                  "accuracy %.4f -> %.4f; trained %llu, candidates %llu, published "
                  "%llu, rollbacks %llu, errors %llu",
                  eps.size(), trained / learn_s, st.baseline_accuracy,
                  st.last_good_accuracy, static_cast<unsigned long long>(st.trained),
                  static_cast<unsigned long long>(st.candidates),
                  static_cast<unsigned long long>(st.published),
                  static_cast<unsigned long long>(st.rollbacks),
                  static_cast<unsigned long long>(st.errors));
    report.note(line);

    Metrics& m = report.metrics;
    if (!args.trace) {
        m.set("setup_s", median(setup), "s");
        m.set("samples_per_s", trained / learn_s, "1/s");
        m.set("slo_ok_ratio", slo_ok_ratio(lat), "fraction");
        m.set("accuracy", first.published.accuracy, "fraction");
        m.set("sim_energy_mj", first.published.energy_mj, "mJ/sample");
        m.set("cpu_ms_per_sample", 1e3 * system_cpu / work, "ms");
        m.set("peak_rss_mb", rss_after_first, "MB");
        return;
    }

    const LearnEpisode tr = learn_episode(args.seed, 0, true);
    const auto tb = count(tr.b.recs);
    report.attempted += tb.sent + tr.fb.sent;
    report.failed += tb.rejected + tb.error + tr.fb.rejected + tr.fb.error;
    report.gate(tr.fb.rejected == 0 && tr.fb.error == 0,
                "traced: a feedback frame was rejected");
    report.gate(tr.traj == first.traj &&
                    tr.published.accuracy == first.published.accuracy &&
                    tr.published.energy_mj == first.published.energy_mj,
                "traced episode's learning trajectory differs from the untraced one");
    traced_rows(report, tr.b.recs, "serve_learn");
    m.set("serve.batch_size_mean_b", mean_batch(first.b.recs), "count");
    m.set("netd.encode_ns_per_frame", tr.b.encode_ns, "ns");
    m.set("netd.decode_ns_per_frame", tr.b.decode_ns, "ns");
    m.set("runtime.refresh_us", tr.refresh_us, "us");
    m.set("serve.weight_refreshes", static_cast<double>(first.weight_refreshes), "count");
    m.set("online.registry_record_ms", tr.record_ms, "ms");
    m.set("online.eval_ms_per_candidate", tr.eval_ms, "ms");
    m.set("online.trained", static_cast<double>(st.trained), "count");
    m.set("online.candidates", static_cast<double>(st.candidates), "count");
    m.set("online.published", static_cast<double>(st.published), "count");
    m.set("online.rollbacks", static_cast<double>(st.rollbacks), "count");
    m.set("online.errors", static_cast<double>(st.errors), "count");
    m.set("core.prepare_s", first.prepare_s, "s");
    m.set("runtime.compile_ms", first.compile_ms, "ms");
    m.set("netd.bind_ms", first.bind_ms, "ms");
    m.set("online.start_ms", first.start_ms, "ms");
    m.set("obs.trace_tax",
          (static_cast<double>(tr.traj.stats.trained) / tr.learn_s) / (trained / learn_s),
          "ratio");
    set_open_loop_rows(m, lat);
    m.set("infer_samples_per_s", infer_n / infer_busy, "1/s");
}

void set_scratch_dir(const std::string& dir) {
    g_scratch = dir;
    std::filesystem::create_directories(dir);
}

}  // namespace perfbench
