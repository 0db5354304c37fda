// Example: asynchronous request serving with neuro::serve.
//
// Where examples/serving_sessions.cpp hands each thread its own Session
// and a slice of the data (good for batch jobs), this example runs the
// request/response shape of a live service:
//   1. Train a model and freeze it into a servable CompiledModel.
//   2. Stand up a serve::Server — worker sessions, a bounded request
//      queue, and a micro-batching scheduler (a free worker takes what is
//      queued, up to max_batch, and never waits for more).
//   3. Fire-and-forget submit() from the client side; each call returns a
//      future-backed InferenceHandle immediately.
//   4. Collect results, then read the server's latency histogram
//      (p50/p95/p99), batch shapes, and throughput from ServerStats.
//   5. Overload a tiny-queue Shed-policy server to see backpressure
//      reject the overflow instead of queueing without bound.
//   6. Admission control: submit with a priority class and an SLO
//      deadline, and watch an expired request get rejected at the queue
//      head instead of wasting a session slot — on a ManualClock, so the
//      expiry is deterministic (docs/ARCHITECTURE.md §10).
//
// Run:  ./example_serving_async [--workers=N] [--batch=B] [--requests=R]

#include <cstdio>
#include <memory>
#include <vector>

#include "common/cli.hpp"
#include "common/rng.hpp"
#include "core/trainer.hpp"
#include "data/dataset.hpp"
#include "runtime/compiled_model.hpp"
#include "serve/server.hpp"

using namespace neuro;

int main(int argc, char** argv) {
    common::Cli cli(argc, argv);
    const auto workers = static_cast<std::size_t>(cli.get_int("workers", 4));
    const auto batch = static_cast<std::size_t>(cli.get_int("batch", 8));
    const auto requests = static_cast<std::size_t>(cli.get_int("requests", 400));

    // ---- 1. train, then freeze a servable model ----------------------------
    data::GenOptions gen;
    gen.count = 700;
    gen.seed = 3;
    gen.height = 16;
    gen.width = 16;
    const auto all = data::make_digits(gen);
    const auto [train, test] = data::split(all, 500);

    runtime::ModelSpec spec;
    spec.input(1, 16, 16).hidden_layers({100}).output_classes(10);
    const auto model = runtime::CompiledModel::compile(spec);
    auto trainer = model->open_session();
    common::Rng rng(42);
    core::train_epoch(*trainer, train, rng);
    const auto servable = model->with_weights(trainer->weights());

    // ---- 2. the serving engine ---------------------------------------------
    serve::ServerOptions opt;
    opt.workers = workers;
    opt.queue_capacity = 256;
    opt.batch.max_batch = batch;
    opt.backpressure = serve::Backpressure::Block;
    serve::Server server(servable, opt);
    server.start();
    std::printf("server up: %zu workers, queue %zu, micro-batch <=%zu\n",
                opt.workers, opt.queue_capacity, opt.batch.max_batch);

    // ---- 3. async submission, 4. results + stats ---------------------------
    std::vector<serve::InferenceHandle> handles;
    handles.reserve(requests);
    for (std::size_t i = 0; i < requests; ++i)
        handles.push_back(server.submit(test.samples[i % test.size()].image));

    std::size_t hits = 0;
    for (std::size_t i = 0; i < requests; ++i) {
        const auto r = handles[i].get();
        if (r.status == serve::Status::Ok &&
            r.label == test.samples[i % test.size()].label)
            ++hits;
    }
    server.shutdown();
    const auto s = server.stats();
    std::printf("served %llu requests: %.1f%% accuracy\n",
                static_cast<unsigned long long>(s.completed),
                100.0 * static_cast<double>(hits) /
                    static_cast<double>(requests));
    std::printf("throughput %.0f req/s   latency p50 %.0f / p95 %.0f / "
                "p99 %.0f us (max %.0f)\n",
                s.throughput_rps, s.p50_us, s.p95_us, s.p99_us, s.max_us);
    std::printf("%llu micro-batches, mean %.1f req/batch (max %zu), peak "
                "queue depth %zu\n",
                static_cast<unsigned long long>(s.batches), s.mean_batch,
                s.max_batch, s.peak_queue_depth);

    // ---- 5. backpressure: shed instead of queueing without bound -----------
    serve::ServerOptions shed_opt = opt;
    shed_opt.workers = 1;
    shed_opt.queue_capacity = 8;
    shed_opt.backpressure = serve::Backpressure::Shed;
    serve::Server shedding(servable, shed_opt);
    // No start() yet: with the queue full, every extra submit is refused
    // immediately with status Rejected rather than blocking the client.
    std::vector<serve::InferenceHandle> burst;
    for (std::size_t i = 0; i < 32; ++i)
        burst.push_back(shedding.submit(test.samples[i % test.size()].image));
    shedding.shutdown();  // drains the 8 accepted requests
    std::size_t ok = 0, shed = 0;
    for (auto& h : burst)
        (h.get().status == serve::Status::Ok ? ok : shed)++;
    std::printf("overloaded shed-policy server (queue 8): %zu served, %zu "
                "rejected of %zu — bounded memory, bounded latency\n",
                ok, shed, burst.size());

    // ---- 6. admission control: priority classes + SLO deadlines ------------
    auto clock = std::make_shared<serve::ManualClock>();
    serve::ServerOptions adm_opt = opt;
    adm_opt.workers = 1;
    adm_opt.clock = clock;  // virtual time: the expiry below is deterministic
    adm_opt.admission.codel.enabled = true;
    serve::Server admitting(servable, adm_opt);
    serve::SubmitOptions slo;
    slo.priority = serve::Priority::Batch;
    slo.deadline_us = 500;  // relative SLO, stamped absolute at submit()
    auto stale = admitting.submit(test.samples[0].image, slo);
    auto live = admitting.submit(test.samples[1].image);  // Interactive, no SLO
    clock->advance_us(1'000);  // the Batch request's deadline passes in-queue
    admitting.start();
    admitting.shutdown();
    const auto r_stale = stale.get();
    const auto r_live = live.get();
    std::printf("deadline demo: stale request -> %s (%s, sojourn %llu us), "
                "live request -> %s\n",
                serve::to_string(r_stale.status), serve::to_string(r_stale.reject),
                static_cast<unsigned long long>(r_stale.sojourn_us),
                serve::to_string(r_live.status));
    return 0;
}
