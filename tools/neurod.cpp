// neurod — the network serving daemon (docs/ARCHITECTURE.md §11–12).
//
// Compiles a model, fronts it with a serve::ModelRouter (Shed
// backpressure — the event loop must never block), and runs a
// netd::Daemon on a Unix-domain data socket (plus an optional loopback
// TCP listener) with a dinit-style admin control socket next to it.
// SIGTERM/SIGINT trigger the graceful drain: stop accepting, resolve
// everything in flight, flush every response, exit 0.
//
// Multi-model: --fleet points at a directory holding one
// online::ModelRegistry subdirectory per model name; v2 clients address
// entries by name, the router lazy-loads them, and --budget_mb caps the
// resident plastic-weight bytes (LRU eviction above it; 0 = unlimited).
//
//   ./neurod --listen=/tmp/neurod.sock --control=/tmp/neurod.ctl
//            --workers=2 --batch=8 --queue=256 --registry=registry_dir
//            --fleet=fleet_dir --budget_mb=64

#include <csignal>
#include <cstdio>
#include <exception>
#include <memory>
#include <string>
#include <vector>

#include "common/cli.hpp"
#include "netd/daemon.hpp"
#include "obs/flight_recorder.hpp"
#include "obs/timer.hpp"
#include "online/registry.hpp"
#include "runtime/compiled_model.hpp"
#include "runtime/model_spec.hpp"
#include "serve/router.hpp"

namespace {

neuro::netd::Daemon* g_daemon = nullptr;

void on_signal(int) {
    if (g_daemon) g_daemon->request_shutdown();  // async-signal-safe
}

std::vector<std::size_t> parse_hidden(const std::string& csv) {
    std::vector<std::size_t> out;
    std::size_t pos = 0;
    while (pos < csv.size()) {
        const std::size_t comma = csv.find(',', pos);
        const std::string tok =
            csv.substr(pos, comma == std::string::npos ? comma : comma - pos);
        out.push_back(static_cast<std::size_t>(std::stoul(tok)));
        if (comma == std::string::npos) break;
        pos = comma + 1;
    }
    return out;
}

}  // namespace

int main(int argc, char** argv) {
    using namespace neuro;

    const common::Cli cli(argc, argv);
    if (cli.error()) return 2;

    const std::string listen = cli.get("listen", "/tmp/neurod.sock");
    const std::string control = cli.get("control", "/tmp/neurod.ctl");
    const std::string registry_dir = cli.get("registry", "");
    const std::string fleet_dir = cli.get("fleet", "");

    netd::DaemonOptions dopt;
    dopt.data_path = listen;
    dopt.control_path = control;
    dopt.tcp_port = static_cast<std::uint16_t>(cli.get_int("tcp", 0));
    dopt.max_frame_bytes =
        static_cast<std::size_t>(cli.get_int("max_frame", 1 << 20));
    dopt.write_buffer_limit =
        static_cast<std::size_t>(cli.get_int("write_buffer", 4 << 20));
    dopt.max_inflight_per_conn =
        static_cast<std::size_t>(cli.get_int("max_inflight", 256));
    dopt.drain_timeout_ms =
        static_cast<std::uint64_t>(cli.get_int("drain_timeout_ms", 10'000));

    serve::RouterOptions ropt;
    ropt.workers = static_cast<std::size_t>(cli.get_int("workers", 2));
    ropt.queue_capacity = static_cast<std::size_t>(cli.get_int("queue", 256));
    ropt.batch.max_batch = static_cast<std::size_t>(cli.get_int("batch", 8));
    ropt.batch.max_delay_us =
        static_cast<std::uint64_t>(cli.get_int("delay_us", 200));
    ropt.backpressure = serve::Backpressure::Shed;
    ropt.admission.codel.enabled = cli.get_bool("codel", true);
    ropt.admission.codel.target_us =
        static_cast<std::uint64_t>(cli.get_int("codel_target_us", 5'000));
    ropt.admission.codel.interval_us =
        static_cast<std::uint64_t>(cli.get_int("codel_interval_us", 100'000));
    ropt.admission.feedback_capacity =
        static_cast<std::size_t>(cli.get_int("feedback_capacity", 0));
    ropt.fleet_dir = fleet_dir;
    ropt.registry_dir = registry_dir;
    ropt.resident_budget_bytes =
        static_cast<std::size_t>(cli.get_int("budget_mb", 0)) * (1u << 20);

    // Observability (docs/ARCHITECTURE.md §14): the process-lifetime
    // default recorder backs the control socket's `events` command (the
    // `metrics` scrape needs no wiring); --slow_request_us arms the
    // slow-request log (0 disables), --timing enables the obs::Timer
    // instrumentation.
    ropt.recorder = &obs::default_recorder();
    ropt.slow_request_us =
        static_cast<std::uint64_t>(cli.get_int("slow_request_us", 0));
    obs::set_timing(cli.get_bool("timing", false));

    const auto side = static_cast<std::size_t>(cli.get_int("side", 16));
    const auto classes = static_cast<std::size_t>(cli.get_int("classes", 10));
    const auto hidden = parse_hidden(cli.get("hidden", "100"));

    try {
        const auto spec = runtime::ModelSpec{}
                              .input(1, side, side)
                              .hidden_layers(hidden)
                              .output_classes(classes);
        auto model = runtime::CompiledModel::compile(
            spec, runtime::BackendKind::LoihiSim);

        std::shared_ptr<online::ModelRegistry> registry;
        if (!registry_dir.empty()) {
            registry = std::make_shared<online::ModelRegistry>(registry_dir);
            // Boot from the last weight version that passed the shadow-eval
            // gate, exactly like a restarted online engine would.
            if (const auto last = registry->last_good()) {
                model->publish_weights(registry->load(last->version));
                std::fprintf(stderr, "neurod: booted registry v%llu\n",
                             static_cast<unsigned long long>(last->version));
            }
        }

        auto router = std::make_shared<serve::ModelRouter>(model, ropt);
        router->start();

        netd::Daemon daemon(router, dopt, registry);
        g_daemon = &daemon;
        struct sigaction sa{};
        sa.sa_handler = on_signal;
        ::sigaction(SIGTERM, &sa, nullptr);
        ::sigaction(SIGINT, &sa, nullptr);
        ::signal(SIGPIPE, SIG_IGN);

        std::fprintf(stderr,
                     "neurod: serving on %s (control %s)%s, %zu workers%s\n",
                     listen.c_str(),
                     control.empty() ? "disabled" : control.c_str(),
                     dopt.tcp_port ? " + tcp" : "", ropt.workers,
                     fleet_dir.empty() ? "" : ", fleet enabled");
        daemon.run();  // returns after the graceful drain
        g_daemon = nullptr;

        router->shutdown();
        const auto d = daemon.stats();
        std::fprintf(stderr,
                     "neurod: drained — %llu frames in, %llu responses out, "
                     "%llu connections\n",
                     static_cast<unsigned long long>(d.frames_in),
                     static_cast<unsigned long long>(d.responses_out),
                     static_cast<unsigned long long>(d.connections_accepted));
        return 0;
    } catch (const std::exception& e) {
        std::fprintf(stderr, "neurod: fatal: %s\n", e.what());
        return 1;
    }
}
