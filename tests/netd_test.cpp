// End-to-end loopback tests for the neurod daemon (netd/daemon.hpp):
//   * predictions over the wire are bit-identical to in-process serving
//     (which is itself bit-identical to sequential Session inference),
//   * pipelined requests resolve out-of-order-safe by request id,
//   * admission metadata survives the wire: a deadline that expires while
//     queued comes back Rejected{DeadlineExceeded}, pinned on a ManualClock,
//   * malformed/oversized frames close that connection and ONLY that
//     connection — the daemon keeps serving,
//   * a client that disconnects mid-flight leaks nothing (ASan-enforced)
//     and never wedges the drain,
//   * drain/shutdown semantics: accepted-implies-responded, control socket
//     survives a pure drain,
//   * control commands: ping/stats/version, and registry pin/rollback
//     round-trips through online::ModelRegistry into live published weights,
//   * multi-model (v2): one connection routes to several fleet entries
//     bit-identically to dedicated sessions, responses echo version+model,
//     and the fleet control commands (models/load/pin/canary/unload)
//     drive the router end-to-end,
//   * golden names: the metric families (with label keys) of a `metrics`
//     scrape and the key lists of the `stats`, `stats <name>` and `models`
//     JSON replies are pinned, so a refactor cannot rename them silently.

#include <gtest/gtest.h>

#include <unistd.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <filesystem>
#include <map>
#include <memory>
#include <set>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "data/dataset.hpp"
#include "netd/client.hpp"
#include "netd/daemon.hpp"
#include "obs/flight_recorder.hpp"
#include "obs/trace.hpp"
#include "online/registry.hpp"
#include "runtime/compiled_model.hpp"
#include "serve/clock.hpp"
#include "serve/server.hpp"

using namespace neuro;
using netd::MsgKind;
using netd::RequestFrame;
using netd::ResponseFrame;
using netd::WireStatus;

namespace {

constexpr std::size_t kSide = 12;
constexpr std::size_t kClasses = 10;

std::shared_ptr<const runtime::CompiledModel> make_model() {
    runtime::ModelSpec spec;
    spec.input(1, kSide, kSide).hidden_layers({40}).output_classes(kClasses);
    return runtime::CompiledModel::compile(spec,
                                           runtime::BackendKind::LoihiSim);
}

data::Dataset make_images(std::size_t n) {
    data::GenOptions gen;
    gen.count = n;
    gen.seed = 33;
    gen.height = kSide;
    gen.width = kSide;
    return data::make_digits(gen);
}

RequestFrame make_frame(const common::Tensor& img, std::uint64_t id,
                        MsgKind kind = MsgKind::Predict) {
    RequestFrame f;
    f.kind = kind;
    f.request_id = id;
    f.shape.assign(img.shape().begin(), img.shape().end());
    f.data.assign(img.data(), img.data() + img.size());
    return f;
}

/// A v2 frame addressed to a fleet entry ("" = default model).
RequestFrame make_v2_frame(const common::Tensor& img, std::uint64_t id,
                           const std::string& model,
                           MsgKind kind = MsgKind::Predict) {
    RequestFrame f = make_frame(img, id, kind);
    f.version = netd::kProtocolVersionV2;
    f.model = model;
    return f;
}

/// Polls `cond` generously (sized for TSan's slowdown; real waits are ms).
template <typename F>
bool eventually(F cond) {
    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(90);
    while (std::chrono::steady_clock::now() < deadline) {
        if (cond()) return true;
        std::this_thread::sleep_for(std::chrono::milliseconds(2));
    }
    return cond();
}

/// A weight image whose output layer always predicts `winner` — makes
/// control-socket weight pinning observable through the data socket.
runtime::WeightSnapshot forced_snapshot(const runtime::CompiledModel& model,
                                        std::size_t winner) {
    runtime::WeightSnapshot snap = model.initial_weights();
    auto& out = snap.layers.back();
    const std::size_t fan_in = out.size() / kClasses;
    for (std::size_t c = 0; c < kClasses; ++c)
        for (std::size_t i = 0; i < fan_in; ++i)
            out[c * fan_in + i] = c == winner ? 60 : -60;
    return snap;
}

/// A fleet root with one single-version registry per (name, winner).
std::string make_fleet(
    const std::string& tag, const runtime::CompiledModel& model,
    const std::vector<std::pair<std::string, std::size_t>>& entries) {
    const auto root = std::filesystem::temp_directory_path() /
                      ("neuro_netd_fleet_" + std::to_string(::getpid()) +
                       "_" + tag);
    std::filesystem::remove_all(root);
    std::filesystem::create_directories(root);
    for (const auto& [name, winner] : entries) {
        online::ModelRegistry reg((root / name).string());
        reg.record(1, 0.9, forced_snapshot(model, winner));
    }
    return root.string();
}

/// One daemon on unique Unix socket paths, run on a dedicated thread.
/// Tests tweak the public option fields before start().
struct Harness {
    std::shared_ptr<const runtime::CompiledModel> model = make_model();
    serve::ServerOptions sopt;
    netd::DaemonOptions dopt;
    std::shared_ptr<online::ModelRegistry> registry;
    /// When set, start() gives the router this fleet and builds the
    /// router-native Daemon instead of the single-model form.
    std::string fleet_dir;
    std::size_t budget_bytes = 0;
    /// Observability knobs (RouterOptions).
    obs::FlightRecorder* recorder = nullptr;
    std::uint64_t slow_request_us = 0;

    std::shared_ptr<serve::ModelRouter> router;
    std::unique_ptr<netd::Daemon> daemon;
    std::thread thread;

    Harness() {
        static std::atomic<int> counter{0};
        const auto base =
            std::filesystem::temp_directory_path() /
            ("neuro_netd_" + std::to_string(::getpid()) + "_" +
             std::to_string(counter.fetch_add(1)));
        dopt.data_path = base.string() + ".sock";
        dopt.control_path = base.string() + ".ctl";
        sopt.workers = 2;
        sopt.queue_capacity = 64;
        sopt.backpressure = serve::Backpressure::Shed;
    }

    void start(bool start_server = true) {
        serve::RouterOptions ropt = sopt;
        ropt.fleet_dir = fleet_dir;
        ropt.resident_budget_bytes = budget_bytes;
        ropt.recorder = recorder;
        ropt.slow_request_us = slow_request_us;
        router = std::make_shared<serve::ModelRouter>(model, ropt);
        if (start_server) router->start();
        if (fleet_dir.empty())
            daemon =
                std::make_unique<netd::Daemon>(router, model, dopt, registry);
        else
            daemon = std::make_unique<netd::Daemon>(router, dopt, registry);
        thread = std::thread([this] { daemon->run(); });
        // The daemon binds on its own thread; wait until it answers.
        ASSERT_TRUE(eventually([&] {
            try {
                netd::Client::connect_unix(dopt.data_path);
                return true;
            } catch (const std::exception&) {
                return false;
            }
        }));
    }

    netd::Client connect() { return netd::Client::connect_unix(dopt.data_path); }
    std::string control(const std::string& cmd) {
        return netd::control_request(dopt.control_path, cmd);
    }

    void stop() {
        if (daemon && !daemon->finished()) daemon->request_shutdown();
        if (thread.joinable()) thread.join();
        if (router) router->shutdown();
    }

    ~Harness() {
        stop();
        std::filesystem::remove(dopt.data_path);
        std::filesystem::remove(dopt.control_path);
    }
};

}  // namespace

// ---- data path --------------------------------------------------------------

TEST(Netd, PredictAndCountsBitIdenticalToInProcess) {
    Harness h;
    h.start();
    const auto images = make_images(16);
    const auto session = h.model->open_session();
    auto client = h.connect();

    std::uint64_t id = 1;
    for (const auto& sample : images.samples) {
        const auto resp = client.call(make_frame(sample.image, id++));
        ASSERT_EQ(resp.status, WireStatus::Ok) << resp.error;
        EXPECT_EQ(resp.label, session->predict(sample.image));
        EXPECT_GE(resp.batch_size, 1u);

        const auto counts =
            client.call(make_frame(sample.image, id++, MsgKind::Counts));
        ASSERT_EQ(counts.status, WireStatus::Ok) << counts.error;
        EXPECT_EQ(counts.counts, session->output_counts(sample.image));
    }
}

TEST(Netd, PipelinedRequestsResolveByRequestId) {
    Harness h;
    h.start();
    const auto images = make_images(12);
    const auto session = h.model->open_session();

    std::map<std::uint64_t, std::size_t> expected;
    auto client = h.connect();
    std::uint64_t id = 100;
    for (const auto& sample : images.samples) {
        client.send(make_frame(sample.image, id));
        expected[id++] = session->predict(sample.image);
    }
    // Responses may arrive in any order (each is written back the moment
    // its completion fires) — match them by echoed id.
    const std::size_t total = expected.size();
    for (std::size_t i = 0; i < total; ++i) {
        ResponseFrame resp;
        ASSERT_TRUE(client.recv_response(resp));
        ASSERT_EQ(resp.status, WireStatus::Ok) << resp.error;
        auto it = expected.find(resp.request_id);
        ASSERT_NE(it, expected.end());
        EXPECT_EQ(resp.label, it->second);
        expected.erase(it);
    }
    EXPECT_TRUE(expected.empty());
}

TEST(Netd, WireDeadlineExpiresIntoRejectedFrame) {
    // ManualClock + a not-yet-started server pin the race: the request is
    // accepted over the wire, virtual time jumps past its deadline, and
    // only then do workers run — the head drop must come back as a frame.
    Harness h;
    const auto clock = std::make_shared<serve::ManualClock>();
    h.sopt.clock = clock;
    h.start(/*start_server=*/false);

    auto client = h.connect();
    auto frame = make_frame(make_images(1).samples[0].image, 77);
    frame.deadline_us = 1'000;
    client.send(frame);
    ASSERT_TRUE(eventually([&] { return h.router->stats().accepted >= 1; }));

    clock->advance_us(2'000);  // the SLO passes while queued
    h.router->start();

    ResponseFrame resp;
    ASSERT_TRUE(client.recv_response(resp));
    EXPECT_EQ(resp.request_id, 77u);
    EXPECT_EQ(resp.status, WireStatus::Rejected);
    EXPECT_EQ(resp.reject_reason,
              static_cast<std::uint8_t>(serve::RejectReason::DeadlineExceeded));
    EXPECT_GE(resp.sojourn_us, 1'000u);
}

TEST(Netd, FeedbackFramesFeedTheLearnerQueue) {
    Harness h;
    h.sopt.admission.feedback_capacity = 8;
    h.start();
    const auto img = make_images(1).samples[0].image;

    auto client = h.connect();
    auto frame = make_frame(img, 5, MsgKind::Feedback);
    frame.label = 3;
    const auto resp = client.call(frame);
    EXPECT_EQ(resp.status, WireStatus::Ok);
    EXPECT_EQ(resp.label, 3u);
    EXPECT_EQ(resp.priority,
              static_cast<std::uint8_t>(serve::Priority::Feedback));

    // With the feedback intake disabled the same frame is refused, not
    // dropped silently.
    Harness off;
    off.start();
    auto client2 = off.connect();
    const auto refused = client2.call(frame);
    EXPECT_EQ(refused.status, WireStatus::Rejected);
    EXPECT_EQ(refused.reject_reason,
              static_cast<std::uint8_t>(serve::RejectReason::QueueFull));
}

// ---- fault containment ------------------------------------------------------

TEST(Netd, MalformedFrameClosesOnlyThatConnection) {
    Harness h;
    h.start();

    auto bad = h.connect();
    const std::uint8_t garbage[] = {0x10, 0x00, 0x00, 0x00,  // 16-byte body
                                    0xFF, 0xFF, 0xFF, 0xFF,  // bad version...
                                    0,    0,    0,    0,
                                    0,    0,    0,    0,
                                    0,    0,    0,    0};
    bad.send_raw(garbage, sizeof(garbage));
    std::uint8_t buf[16];
    EXPECT_EQ(bad.recv_raw(buf, sizeof(buf)), 0u);  // EOF, no reply
    EXPECT_TRUE(
        eventually([&] { return h.daemon->stats().malformed_closed >= 1; }));

    // The daemon itself is healthy: a fresh connection serves normally.
    auto good = h.connect();
    const auto resp = good.call(make_frame(make_images(1).samples[0].image, 1));
    EXPECT_EQ(resp.status, WireStatus::Ok) << resp.error;
}

TEST(Netd, OversizedLengthPrefixClosesTheConnection) {
    Harness h;
    h.start();
    auto client = h.connect();
    const std::uint8_t huge[] = {0x00, 0x00, 0x00, 0x10};  // 256 MiB body
    client.send_raw(huge, sizeof(huge));
    std::uint8_t buf[16];
    EXPECT_EQ(client.recv_raw(buf, sizeof(buf)), 0u);
    EXPECT_TRUE(
        eventually([&] { return h.daemon->stats().malformed_closed >= 1; }));
}

TEST(Netd, ClientDisconnectMidFlightDoesNotWedgeTheDaemon) {
    Harness h;
    h.start();
    const auto img = make_images(1).samples[0].image;
    {
        auto client = h.connect();
        for (std::uint64_t id = 0; id < 8; ++id)
            client.send(make_frame(img, id));
        // Destructor closes the socket with every request still in flight;
        // completions hit a closed connection and must be discarded.
    }
    EXPECT_TRUE(eventually([&] {
        const auto s = h.daemon->stats();
        return s.inflight == 0 && s.connections_open == 0;
    }));
    auto client = h.connect();
    const auto resp = client.call(make_frame(img, 99));
    EXPECT_EQ(resp.status, WireStatus::Ok) << resp.error;
}

// ---- drain / shutdown -------------------------------------------------------

TEST(Netd, GracefulShutdownAnswersEverythingItRead) {
    Harness h;
    h.start();
    const auto img = make_images(1).samples[0].image;
    auto client = h.connect();
    constexpr std::uint64_t kRequests = 16;
    for (std::uint64_t id = 0; id < kRequests; ++id)
        client.send(make_frame(img, id));
    // Wait until every frame is in the daemon before pulling the plug, so
    // "accepted" is exact; then every accepted request must still answer.
    ASSERT_TRUE(
        eventually([&] { return h.daemon->stats().frames_in == kRequests; }));
    h.daemon->request_shutdown();

    std::size_t answered = 0;
    ResponseFrame resp;
    while (client.recv_response(resp)) ++answered;  // reads until EOF
    EXPECT_EQ(answered, kRequests);
    EXPECT_TRUE(eventually([&] { return h.daemon->finished(); }));
    h.thread.join();
}

TEST(Netd, DrainClosesDataPlaneButKeepsControlUp) {
    Harness h;
    h.start();
    EXPECT_EQ(h.control("drain"), "ok draining");

    // The data listener goes away (its socket file is unlinked)...
    EXPECT_TRUE(eventually([&] {
        try {
            h.connect();
            return false;
        } catch (const std::exception&) {
            return true;
        }
    }));
    // ...while the control plane still answers, and can then escalate.
    EXPECT_EQ(h.control("ping"), "ok pong");
    EXPECT_EQ(h.control("shutdown"), "ok shutting-down");
    EXPECT_TRUE(eventually([&] { return h.daemon->finished(); }));
    h.thread.join();
}

// ---- control socket ---------------------------------------------------------

TEST(Netd, ControlPingStatsAndVersion) {
    Harness h;
    h.start();
    EXPECT_EQ(h.control("ping"), "ok pong");
    EXPECT_EQ(h.control("version"), "ok 0");
    EXPECT_EQ(h.control("bogus"), "err unknown command: bogus");
    EXPECT_EQ(h.control("load 1"), "err no registry");

    const std::string stats = h.control("stats");
    ASSERT_EQ(stats.rfind("ok {", 0), 0u) << stats;
    EXPECT_NE(stats.find("\"server\":{"), std::string::npos);
    EXPECT_NE(stats.find("\"daemon\":{"), std::string::npos);
    EXPECT_NE(stats.find("\"connections\":["), std::string::npos);
    EXPECT_NE(stats.find("\"control_commands\""), std::string::npos);
}

// The single-model constructor names the model its legacy commands
// (version/load/unload/pin/rollback/stats) publish to. A model the router
// does not serve would take those publishes while every worker kept the
// old weights — so construction refuses it.
TEST(Netd, SingleModelDaemonRefusesAModelTheRouterDoesNotServe) {
    Harness h;
    const auto router = std::make_shared<serve::ModelRouter>(h.model, h.sopt);
    const auto other = make_model();  // same spec, a different CompiledModel
    EXPECT_THROW(std::make_unique<netd::Daemon>(router, other, h.dopt),
                 std::invalid_argument);
    EXPECT_THROW(std::make_unique<netd::Daemon>(router, nullptr, h.dopt),
                 std::invalid_argument);
    EXPECT_NO_THROW(std::make_unique<netd::Daemon>(router, h.model, h.dopt));
}

TEST(Netd, RegistryPinAndRollbackRoundTrip) {
    Harness h;
    const auto dir = std::filesystem::temp_directory_path() /
                     ("neuro_netd_reg_" + std::to_string(::getpid()));
    std::filesystem::remove_all(dir);
    h.registry = std::make_shared<online::ModelRegistry>(dir.string());
    h.registry->record(1, 0.81, forced_snapshot(*h.model, 1));
    h.registry->record(2, 0.86, forced_snapshot(*h.model, 2));
    h.start();

    const auto img = make_images(1).samples[0].image;
    auto client = h.connect();

    EXPECT_EQ(h.control("load latest"), "ok pinned 2 published 1");
    // Worker sessions adopt the published image at their next batch
    // boundary; the forced output layer then predicts the winner.
    EXPECT_TRUE(eventually([&] {
        static std::uint64_t id = 1000;
        return client.call(make_frame(img, id++)).label == 2u;
    }));

    EXPECT_EQ(h.control("rollback"), "ok pinned 1 published 2");
    EXPECT_TRUE(eventually([&] {
        static std::uint64_t id = 2000;
        return client.call(make_frame(img, id++)).label == 1u;
    }));

    EXPECT_EQ(h.control("rollback"), "err nothing to roll back to");
    EXPECT_EQ(h.control("load 9"), "err unknown version: 9");
    EXPECT_EQ(h.control("version"), "ok 2");
    EXPECT_EQ(h.control("unload"), "ok unloaded");
    EXPECT_EQ(h.control("version"), "ok 3");

    const std::string versions = h.control("versions");
    EXPECT_NE(versions.find("\"version\":1"), std::string::npos);
    EXPECT_NE(versions.find("\"version\":2"), std::string::npos);

    h.stop();
    std::filesystem::remove_all(dir);
}

// ---- multi-model (protocol v2) ----------------------------------------------

TEST(Netd, V2RoutesToMultipleModelsBitIdentically) {
    Harness h;
    h.fleet_dir = make_fleet("route", *h.model, {{"alpha", 1}, {"beta", 2}});
    h.start();
    const auto images = make_images(8);

    // Ground truth: dedicated sessions per weight image, outside the daemon.
    const auto plain = h.model->open_session();
    const auto alpha =
        h.model->with_weights(forced_snapshot(*h.model, 1))->open_session();
    const auto beta =
        h.model->with_weights(forced_snapshot(*h.model, 2))->open_session();

    // Pipeline all three tenants interleaved over ONE connection and match
    // replies by id — routing must never bleed one model's weights into
    // another's answers.
    auto client = h.connect();
    std::map<std::uint64_t, std::pair<std::string, std::size_t>> expected;
    std::uint64_t id = 1;
    for (const auto& sample : images.samples) {
        client.send(make_v2_frame(sample.image, id, ""));
        expected[id++] = {"", plain->predict(sample.image)};
        client.send(make_v2_frame(sample.image, id, "alpha"));
        expected[id++] = {"alpha", alpha->predict(sample.image)};
        client.send(make_v2_frame(sample.image, id, "beta"));
        expected[id++] = {"beta", beta->predict(sample.image)};
    }
    const std::size_t total = expected.size();
    for (std::size_t i = 0; i < total; ++i) {
        ResponseFrame resp;
        ASSERT_TRUE(client.recv_response(resp));
        ASSERT_EQ(resp.status, WireStatus::Ok) << resp.error;
        auto it = expected.find(resp.request_id);
        ASSERT_NE(it, expected.end());
        EXPECT_EQ(resp.version, netd::kProtocolVersionV2);
        EXPECT_EQ(resp.model, it->second.first);
        EXPECT_EQ(resp.label, it->second.second);
        expected.erase(it);
    }
    EXPECT_TRUE(expected.empty());

    // Counts go through the same per-model sessions, bit-identically.
    const auto& img = images.samples[0].image;
    const auto counts =
        client.call(make_v2_frame(img, 9000, "alpha", MsgKind::Counts));
    ASSERT_EQ(counts.status, WireStatus::Ok) << counts.error;
    EXPECT_EQ(counts.counts, alpha->output_counts(img));
}

TEST(Netd, V2UnknownModelRejectsOnTheWire) {
    Harness h;
    h.fleet_dir = make_fleet("ghost", *h.model, {{"alpha", 1}});
    h.start();
    auto client = h.connect();

    const auto resp =
        client.call(make_v2_frame(make_images(1).samples[0].image, 7, "nope"));
    EXPECT_EQ(resp.status, WireStatus::Rejected);
    EXPECT_EQ(resp.reject_reason,
              static_cast<std::uint8_t>(serve::RejectReason::UnknownModel));
    EXPECT_EQ(resp.version, netd::kProtocolVersionV2);
    EXPECT_EQ(resp.model, "nope");
}

TEST(Netd, V1FramesStillServeTheDefaultModelOnAFleetDaemon) {
    // A v1 client pointed at a fleet-enabled daemon must see exactly what it
    // saw before multi-model existed: default-model answers in v1 frames.
    Harness h;
    h.fleet_dir = make_fleet("compat", *h.model, {{"alpha", 1}});
    h.start();
    const auto img = make_images(1).samples[0].image;
    const auto session = h.model->open_session();

    auto client = h.connect();
    const auto resp = client.call(make_frame(img, 42));
    ASSERT_EQ(resp.status, WireStatus::Ok) << resp.error;
    EXPECT_EQ(resp.version, netd::kProtocolVersion);
    EXPECT_TRUE(resp.model.empty());
    EXPECT_EQ(resp.label, session->predict(img));
}

TEST(Netd, FleetControlCommandsDriveTheRouter) {
    Harness h;
    h.fleet_dir = make_fleet("ctl", *h.model, {{"alpha", 1}, {"beta", 2}});
    // A second alpha version with a different forced winner makes pin and
    // canary switches observable through the data socket.
    {
        online::ModelRegistry reg(
            (std::filesystem::path(h.fleet_dir) / "alpha").string());
        reg.record(2, 0.95, forced_snapshot(*h.model, 3));
    }
    h.start();
    const auto img = make_images(1).samples[0].image;
    auto client = h.connect();

    // Discovery before anything is resident.
    const std::string cold = h.control("models");
    ASSERT_EQ(cold.rfind("ok [", 0), 0u) << cold;
    EXPECT_NE(cold.find("\"name\":\"alpha\""), std::string::npos);
    EXPECT_NE(cold.find("\"name\":\"beta\""), std::string::npos);
    EXPECT_NE(cold.find("\"resident\":false"), std::string::npos);

    // Explicit load picks the registry's last good version (2).
    EXPECT_EQ(h.control("load alpha"), "ok loaded alpha version 2");
    EXPECT_TRUE(eventually([&] {
        static std::uint64_t id = 1000;
        return client.call(make_v2_frame(img, id++, "alpha")).label == 3u;
    }));

    // Pin rolls the base arm back to version 1 on the live entry.
    EXPECT_EQ(h.control("pin alpha 1"), "ok pinned alpha 1");
    EXPECT_TRUE(eventually([&] {
        static std::uint64_t id = 2000;
        return client.call(make_v2_frame(img, id++, "alpha")).label == 1u;
    }));

    // Canary at 100% sends every request to version 2's arm...
    EXPECT_EQ(h.control("canary alpha 2 100"), "ok canary alpha version 2 pct 100");
    EXPECT_TRUE(eventually([&] {
        static std::uint64_t id = 3000;
        return client.call(make_v2_frame(img, id++, "alpha")).label == 3u;
    }));
    // ...and clearing it restores the pinned base.
    EXPECT_EQ(h.control("canary alpha 0 0"), "ok canary alpha version 0 pct 0");
    EXPECT_TRUE(eventually([&] {
        static std::uint64_t id = 4000;
        return client.call(make_v2_frame(img, id++, "alpha")).label == 1u;
    }));

    // Per-entry stats narrow to one JSON object with live counters.
    const std::string stats = h.control("stats alpha");
    ASSERT_EQ(stats.rfind("ok {", 0), 0u) << stats;
    EXPECT_NE(stats.find("\"name\":\"alpha\""), std::string::npos);
    EXPECT_NE(stats.find("\"resident\":true"), std::string::npos);
    // The daemon-wide stats JSON now carries the fleet too.
    const std::string all = h.control("stats");
    EXPECT_NE(all.find("\"models\":["), std::string::npos);

    EXPECT_EQ(h.control("unload alpha"), "ok unloaded alpha");
    const std::string after = h.control("models");
    EXPECT_NE(after.find("\"name\":\"alpha\""), std::string::npos);

    std::filesystem::remove_all(h.fleet_dir);
}

// ---- observability (docs/ARCHITECTURE.md §14) -------------------------------

TEST(Netd, MetricsScrapeExposesServerAndDaemonFamilies) {
    Harness h;  // default options: the scrape needs no wiring
    h.start();
    const auto img = make_images(1).samples[0].image;
    auto client = h.connect();
    for (std::uint64_t id = 1; id <= 4; ++id) {
        const auto resp = client.call(make_frame(img, id));
        ASSERT_EQ(resp.status, WireStatus::Ok) << resp.error;
    }

    // A worker counts a batch completed just after resolving its requests,
    // so the fourth response can reach the client before the count does.
    std::string text;
    ASSERT_TRUE(eventually([&] {
        text = netd::control_request_multiline(h.dopt.control_path, "metrics");
        return text.find("neuro_server_completed_total 4") != std::string::npos;
    })) << text;
    // Well-formed exposition: HELP/TYPE headers, the absorbed ServerStats
    // and DaemonStats families with live values, "# EOF" terminator line.
    EXPECT_NE(text.find("# TYPE "), std::string::npos) << text;
    EXPECT_NE(text.find("# HELP "), std::string::npos);
    EXPECT_NE(text.find("neuro_server_accepted_total 4"), std::string::npos)
        << text;
    EXPECT_NE(text.find("neuro_daemon_frames_in_total 4"), std::string::npos);
    EXPECT_NE(text.find("neuro_daemon_connections_open "), std::string::npos);
    EXPECT_NE(text.find("neuro_server_latency_us{quantile=\"0.99\"}"),
              std::string::npos);
    ASSERT_GE(text.size(), 6u);
    EXPECT_EQ(text.substr(text.size() - 6), "# EOF\n");
    // Scrapes are deterministic in shape: a second one still terminates.
    const std::string again =
        netd::control_request_multiline(h.dopt.control_path, "metrics");
    EXPECT_EQ(again.substr(again.size() - 6), "# EOF\n");
}

TEST(Netd, MetricsScrapeCoversTheFleetPerModelFamilies) {
    Harness h;
    h.fleet_dir = make_fleet("metrics", *h.model, {{"alpha", 1}});
    h.start();
    EXPECT_EQ(h.control("load alpha"), "ok loaded alpha version 1");
    const auto img = make_images(1).samples[0].image;
    auto client = h.connect();
    const auto resp = client.call(make_v2_frame(img, 1, "alpha"));
    ASSERT_EQ(resp.status, WireStatus::Ok) << resp.error;

    const std::string text =
        netd::control_request_multiline(h.dopt.control_path, "metrics");
    EXPECT_NE(text.find("{model=\"alpha\""), std::string::npos) << text;
    EXPECT_NE(text.find("neuro_model_dispatched_total"), std::string::npos);
    EXPECT_NE(text.find("neuro_model_weight_bytes{model=\"alpha\"}"),
              std::string::npos);
    std::filesystem::remove_all(h.fleet_dir);
}

TEST(Netd, EventsWithoutRecorderErr) {
    Harness h;
    h.start();
    EXPECT_EQ(h.control("events"), "err no recorder");
    // The multiline client returns a bare err line without waiting for a
    // terminator that will never come.
    EXPECT_EQ(netd::control_request_multiline(h.dopt.control_path, "events"),
              "err no recorder");
}

TEST(Netd, EventsDumpRecordsControlPlaneHistory) {
    obs::FlightRecorder rec(64);
    Harness h;
    h.fleet_dir = make_fleet("events", *h.model, {{"alpha", 1}});
    h.recorder = &rec;
    h.start();
    EXPECT_EQ(h.control("load alpha"), "ok loaded alpha version 1");
    EXPECT_EQ(h.control("pin alpha 1"), "ok pinned alpha 1");

    const std::string events = h.control("events");
    ASSERT_EQ(events.rfind("ok [", 0), 0u) << events;
    EXPECT_NE(events.find("\"kind\":\"model_load\""), std::string::npos)
        << events;
    EXPECT_NE(events.find("\"kind\":\"weight_publish\""), std::string::npos);
    EXPECT_NE(events.find("\"detail\":\"alpha\""), std::string::npos);

    // `events N` narrows the dump to the newest N.
    const std::string one = h.control("events 1");
    ASSERT_EQ(one.rfind("ok [", 0), 0u) << one;
    EXPECT_EQ(one.find("\"kind\":\"model_load\""), std::string::npos) << one;
    std::filesystem::remove_all(h.fleet_dir);
}

TEST(Netd, SlowRequestEventsCarryTheSpanBreakdown) {
    obs::FlightRecorder rec(64);
    Harness h;
    h.fleet_dir = make_fleet("slow", *h.model, {{"alpha", 1}});
    h.recorder = &rec;
    h.slow_request_us = 1;  // every dispatched request is "slow"
    h.start();
    const auto img = make_images(1).samples[0].image;
    auto client = h.connect();
    const auto resp = client.call(make_v2_frame(img, 31, "alpha"));
    ASSERT_EQ(resp.status, WireStatus::Ok) << resp.error;

    ASSERT_TRUE(eventually([&] {
        return h.control("events").find("\"kind\":\"slow_request\"") !=
               std::string::npos;
    }));
    const std::string events = h.control("events");
    EXPECT_NE(events.find("\"spans\":{"), std::string::npos) << events;
    EXPECT_NE(events.find("\"compute_us\":"), std::string::npos);
    std::filesystem::remove_all(h.fleet_dir);
}

TEST(Netd, V3TraceEchoTelescopesToTheWireLatency) {
    Harness h;
    h.start();
    const auto img = make_images(1).samples[0].image;
    auto client = h.connect();

    RequestFrame f = make_frame(img, 41);
    f.version = netd::kProtocolVersionV3;
    f.flags = netd::kFlagTrace;
    const auto resp = client.call(f);
    ASSERT_EQ(resp.status, WireStatus::Ok) << resp.error;
    EXPECT_EQ(resp.version, netd::kProtocolVersionV3);
    ASSERT_FALSE(resp.trace.empty());

    std::map<std::uint8_t, std::uint64_t> spans;
    for (const auto& s : resp.trace) {
        EXPECT_GE(s.id, 1);
        EXPECT_LE(s.id, 7);
        EXPECT_TRUE(spans.emplace(s.id, s.value).second)
            << "duplicate span id " << int(s.id);
    }
    const std::uint64_t total =
        spans[static_cast<std::uint8_t>(obs::SpanId::TotalUs)];
    const std::uint64_t sum =
        spans[static_cast<std::uint8_t>(obs::SpanId::QueueUs)] +
        spans[static_cast<std::uint8_t>(obs::SpanId::BatchUs)] +
        spans[static_cast<std::uint8_t>(obs::SpanId::ComputeUs)] +
        spans[static_cast<std::uint8_t>(obs::SpanId::ResolveUs)];
    // The phases telescope by construction: their sum IS the total span.
    EXPECT_EQ(sum, total);
    // And the total reconciles with the latency the server measured — the
    // end-to-end acceptance criterion (5% plus clock-coarseness slack).
    const double slack =
        std::max(0.05 * static_cast<double>(resp.latency_us), 200.0);
    EXPECT_LE(static_cast<double>(total),
              static_cast<double>(resp.latency_us) + slack);
    EXPECT_GE(static_cast<double>(total) + slack,
              static_cast<double>(resp.latency_us));
}

TEST(Netd, V3WithoutTheFlagAndOlderVersionsGetNoTraceBlock) {
    Harness h;
    h.start();
    const auto img = make_images(1).samples[0].image;
    auto client = h.connect();

    RequestFrame v3 = make_frame(img, 51);
    v3.version = netd::kProtocolVersionV3;  // flags stay 0
    const auto resp3 = client.call(v3);
    ASSERT_EQ(resp3.status, WireStatus::Ok) << resp3.error;
    EXPECT_EQ(resp3.version, netd::kProtocolVersionV3);
    EXPECT_TRUE(resp3.trace.empty());

    const auto resp1 = client.call(make_frame(img, 52));
    ASSERT_EQ(resp1.status, WireStatus::Ok) << resp1.error;
    EXPECT_EQ(resp1.version, netd::kProtocolVersion);
    EXPECT_TRUE(resp1.trace.empty());
}

// ---- golden names -------------------------------------------------------------

namespace {

/// "<family> <type> {<label keys>}" for every family of a scrape. The label
/// keys are the union over the family's sample lines; a sample without a
/// `# TYPE` header shows up with an empty type.
std::set<std::string> metric_families(const std::string& text) {
    std::map<std::string, std::string> type_of;
    std::map<std::string, std::set<std::string>> keys_of;
    std::istringstream in(text);
    std::string line;
    while (std::getline(in, line)) {
        if (line.rfind("# TYPE ", 0) == 0) {
            std::istringstream t(line.substr(7));
            std::string name, type;
            t >> name >> type;
            type_of[name] = type;
            keys_of[name];
            continue;
        }
        if (line.empty() || line[0] == '#') continue;
        const std::size_t brace = line.find('{');
        const std::size_t space = line.find(' ');
        auto& keys = keys_of[line.substr(0, std::min(brace, space))];
        if (brace > space) continue;
        // {k="v",k2="v2"}: a key ends at '=', its value is a quoted string
        // (label values here never contain quotes).
        std::size_t i = brace + 1;
        while (i < line.size() && line[i] != '}') {
            const std::size_t eq = line.find('=', i);
            if (eq == std::string::npos) break;
            keys.insert(line.substr(i, eq - i));
            i = line.find('"', eq + 2) + 1;
            if (i < line.size() && line[i] == ',') ++i;
        }
    }
    std::set<std::string> out;
    for (const auto& [name, keys] : keys_of) {
        std::string row = name + " " + type_of[name] + " {";
        for (const auto& k : keys) row += (row.back() == '{' ? "" : ",") + k;
        out.insert(row + "}");
    }
    return out;
}

/// Adds every key path of the JSON value at s[i] to `out` ("daemon.inflight",
/// "models[].name"); `where` is the value's own path ("" at the root).
void json_keys(const std::string& s, std::size_t& i, const std::string& where,
               std::set<std::string>& out) {
    const auto skip_string = [&] {  // s[i] is the opening quote
        for (++i; i < s.size() && s[i] != '"'; ++i)
            if (s[i] == '\\') ++i;
        ++i;
    };
    if (i >= s.size()) return;
    if (s[i] == '{') {
        ++i;
        while (i < s.size() && s[i] != '}') {
            const std::size_t start = i + 1;
            skip_string();
            const std::string key = s.substr(start, i - 1 - start);
            const std::string path = where.empty() ? key : where + "." + key;
            out.insert(path);
            ++i;  // ':'
            json_keys(s, i, path, out);
            if (i < s.size() && s[i] == ',') ++i;
        }
        ++i;
    } else if (s[i] == '[') {
        ++i;
        while (i < s.size() && s[i] != ']') {
            json_keys(s, i, where + "[]", out);
            if (i < s.size() && s[i] == ',') ++i;
        }
        ++i;
    } else if (s[i] == '"') {
        skip_string();
    } else {
        while (i < s.size() && s[i] != ',' && s[i] != '}' && s[i] != ']') ++i;
    }
}

/// The key paths of an "ok <json>" control reply.
std::set<std::string> reply_keys(const std::string& reply) {
    std::set<std::string> out;
    if (reply.rfind("ok ", 0) != 0) return out;
    std::size_t i = 3;
    json_keys(reply, i, "", out);
    return out;
}

}  // namespace

// Pins every name the control plane exposes against a fleet whose one
// entry carries a canary arm — the names scrapers and dashboards key on.
TEST(Netd, GoldenMetricFamiliesAndControlJsonKeys) {
    Harness h;
    h.fleet_dir = make_fleet("golden", *h.model, {{"alpha", 1}});
    {
        online::ModelRegistry reg(
            (std::filesystem::path(h.fleet_dir) / "alpha").string());
        reg.record(2, 0.95, forced_snapshot(*h.model, 3));
    }
    h.start();
    EXPECT_EQ(h.control("load alpha"), "ok loaded alpha version 2");
    EXPECT_EQ(h.control("canary alpha 1 50"),
              "ok canary alpha version 1 pct 50");
    const auto img = make_images(1).samples[0].image;
    auto client = h.connect();
    for (std::uint64_t id = 1; id <= 8; ++id) {
        ASSERT_EQ(client.call(make_v2_frame(img, id, "alpha")).status,
                  WireStatus::Ok);
        ASSERT_EQ(client.call(make_frame(img, 100 + id)).status,
                  WireStatus::Ok);
    }

    const std::string text =
        netd::control_request_multiline(h.dopt.control_path, "metrics");
    EXPECT_EQ(metric_families(text), (std::set<std::string>{
        "neuro_daemon_backpressure_pauses_total counter {}",
        "neuro_daemon_bytes_in_total counter {}",
        "neuro_daemon_bytes_out_total counter {}",
        "neuro_daemon_connections_accepted_total counter {}",
        "neuro_daemon_connections_open gauge {}",
        "neuro_daemon_control_commands_total counter {}",
        "neuro_daemon_feedback_frames_total counter {}",
        "neuro_daemon_frames_in_total counter {}",
        "neuro_daemon_inflight gauge {}",
        "neuro_daemon_malformed_closed_total counter {}",
        "neuro_daemon_resident_bytes gauge {}",
        "neuro_daemon_responses_out_total counter {}",
        "neuro_model_codel_dropped_total counter {model}",
        "neuro_model_deadline_dropped_total counter {model}",
        "neuro_model_dispatched_total counter {arm,model}",
        "neuro_model_errors_total counter {model}",
        "neuro_model_latency_us gauge {model,quantile}",
        "neuro_model_resident gauge {model}",
        "neuro_model_weight_bytes gauge {model}",
        "neuro_server_accepted_total counter {}",
        "neuro_server_batches_total counter {}",
        "neuro_server_class_accepted_total counter {class}",
        "neuro_server_class_codel_dropped_total counter {class}",
        "neuro_server_class_deadline_dropped_total counter {class}",
        "neuro_server_codel_dropped_total counter {}",
        "neuro_server_completed_total counter {}",
        "neuro_server_deadline_dropped_total counter {}",
        "neuro_server_drop_state_entries_total counter {}",
        "neuro_server_errors_total counter {}",
        "neuro_server_feedback_dropped_total counter {}",
        "neuro_server_latency_us gauge {quantile}",
        "neuro_server_rejected_total counter {}",
        "neuro_server_sojourn_us gauge {quantile}",
        "neuro_server_throughput_rps gauge {}",
        "neuro_server_weight_refreshes_total counter {}",
    })) << text;

    EXPECT_EQ(reply_keys(h.control("stats")), (std::set<std::string>{
        "connections",
        "connections[].bytes_in",
        "connections[].bytes_out",
        "connections[].control",
        "connections[].fd",
        "connections[].feedback_frames",
        "connections[].frames_in",
        "connections[].inflight",
        "connections[].paused",
        "connections[].responses_out",
        "daemon",
        "daemon.backpressure_pauses",
        "daemon.bytes_in",
        "daemon.bytes_out",
        "daemon.connections_accepted",
        "daemon.connections_open",
        "daemon.control_commands",
        "daemon.draining",
        "daemon.feedback_frames",
        "daemon.frames_in",
        "daemon.inflight",
        "daemon.malformed_closed",
        "daemon.pinned_version",
        "daemon.published_version",
        "daemon.resident_bytes",
        "daemon.responses_out",
        "models",
        "models[].base_dispatched",
        "models[].base_errors",
        "models[].base_ok",
        "models[].base_version",
        "models[].canary_dispatched",
        "models[].canary_errors",
        "models[].canary_ok",
        "models[].canary_pct",
        "models[].canary_version",
        "models[].codel_dropped",
        "models[].deadline_dropped",
        "models[].evictions",
        "models[].inflight",
        "models[].last_used",
        "models[].latency_count",
        "models[].loads",
        "models[].max_us",
        "models[].mean_us",
        "models[].name",
        "models[].p50_us",
        "models[].p95_us",
        "models[].p99_us",
        "models[].pinned",
        "models[].resident",
        "models[].weight_bytes",
        "server",
        "server.accepted",
        "server.batches",
        "server.class_accepted",
        "server.class_codel_dropped",
        "server.class_deadline_dropped",
        "server.codel_dropped",
        "server.completed",
        "server.deadline_dropped",
        "server.drop_state_entries",
        "server.elapsed_s",
        "server.errors",
        "server.feedback_dropped",
        "server.max_batch",
        "server.max_us",
        "server.mean_batch",
        "server.mean_us",
        "server.p50_us",
        "server.p95_us",
        "server.p99_us",
        "server.peak_queue_depth",
        "server.rejected",
        "server.sojourn_max_us",
        "server.sojourn_p50_us",
        "server.sojourn_p95_us",
        "server.sojourn_p99_us",
        "server.throughput_rps",
        "server.weight_refreshes",
    }));
    EXPECT_EQ(reply_keys(h.control("stats alpha")), (std::set<std::string>{
        "base_dispatched",
        "base_errors",
        "base_ok",
        "base_version",
        "canary_dispatched",
        "canary_errors",
        "canary_ok",
        "canary_pct",
        "canary_version",
        "codel_dropped",
        "deadline_dropped",
        "evictions",
        "inflight",
        "last_used",
        "latency_count",
        "loads",
        "max_us",
        "mean_us",
        "name",
        "p50_us",
        "p95_us",
        "p99_us",
        "pinned",
        "resident",
        "weight_bytes",
    }));
    EXPECT_EQ(reply_keys(h.control("models")), (std::set<std::string>{
        "[].base_dispatched",
        "[].base_errors",
        "[].base_ok",
        "[].base_version",
        "[].canary_dispatched",
        "[].canary_errors",
        "[].canary_ok",
        "[].canary_pct",
        "[].canary_version",
        "[].codel_dropped",
        "[].deadline_dropped",
        "[].evictions",
        "[].inflight",
        "[].last_used",
        "[].latency_count",
        "[].loads",
        "[].max_us",
        "[].mean_us",
        "[].name",
        "[].p50_us",
        "[].p95_us",
        "[].p99_us",
        "[].pinned",
        "[].resident",
        "[].weight_bytes",
    }));
    std::filesystem::remove_all(h.fleet_dir);
}
