#pragma once
// Configuration of the learning-while-serving engine (online::OnlineEngine,
// docs/ARCHITECTURE.md §9). Defaults are tuned for the digits task at test
// scale; benches and production deployments override per workload.

#include <cstddef>
#include <cstdint>
#include <string>

namespace neuro::obs {
class FlightRecorder;
}

namespace neuro::online {

struct OnlineOptions {
    /// Feedback samples trained between candidate publications (the
    /// publish interval — also the cadence of the shadow-eval gate).
    std::size_t publish_interval = 32;

    /// Replay-pool capacity per class (bounded reservoir); 0 disables
    /// replay entirely (pure streaming updates).
    std::size_t replay_per_class = 64;

    /// Replay samples mixed in per feedback sample (class-balanced draws,
    /// the iol::sample_replay contract); 0 disables replay training.
    std::size_t replay_per_sample = 1;

    /// Shadow-eval gate: a candidate may trail the last good version's
    /// held-out accuracy by at most this much...
    double max_regression = 0.02;
    /// ...and must clear this absolute accuracy floor (0 disables).
    double min_accuracy = 0.0;

    /// Directory of the on-disk model registry (created if missing); empty
    /// disables persistence — accepted versions then live only in memory.
    std::string registry_dir;

    /// Seed of the replay pool's draw/reservoir streams; the whole learning
    /// trajectory is deterministic given the seed and the feedback order.
    std::uint64_t seed = 17;

    /// Extra learning shift applied to the learner session (each unit
    /// halves the learning rate — conservative online updates on top of an
    /// already-good model, paper Sec. IV-B's step-1 spirit).
    int learning_shift_offset = 0;

    /// Flight recorder for WeightPublish / Rollback events at the shadow-
    /// eval gate (docs/ARCHITECTURE.md §14). Non-owning; must outlive the
    /// engine. Null disables recording; determinism is unaffected either
    /// way (events carry wall timestamps but never feed the learner).
    obs::FlightRecorder* recorder = nullptr;
};

}  // namespace neuro::online
