#pragma once
// A Session is the only mutable object in the runtime API: it owns the
// dynamic state of one executing model instance (membranes, spike counters,
// RNG streams, and — once it diverges — its own weight image) while reading
// the immutable CompiledModel it was opened from.
//
// Threading rules (docs/ARCHITECTURE.md §5):
//   * A CompiledModel is immutable — share one across any number of threads.
//   * A Session is NOT thread-safe — open one per thread. Opening is cheap:
//     sessions share the compiled structure, and the weight image is
//     copy-on-write (an inference-only session never copies it).
//   * Sessions outlive their model safely (shared structure is refcounted).

#include <cstdint>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "common/tensor.hpp"
#include "runtime/model_spec.hpp"
#include "runtime/weights.hpp"

namespace neuro::loihi {
struct ActivityTotals;
struct KernelPhaseTimes;
}
namespace neuro::core {
class EmstdpNetwork;
class ShardedEmstdpNetwork;
}

namespace neuro::runtime {

class WeightChannel;

class Session {
public:
    virtual ~Session() = default;

    Session(const Session&) = delete;
    Session& operator=(const Session&) = delete;

    virtual BackendKind backend() const = 0;

    // ---- the workload ------------------------------------------------------
    /// One online EMSTDP training step (phase 1 + phase 2 + weight update).
    virtual void train(const common::Tensor& image, std::size_t label) = 0;
    /// Phase-1 inference; argmax of output spike counts.
    virtual std::size_t predict(const common::Tensor& image) = 0;
    /// Phase-1 output spike counts (probing).
    virtual std::vector<std::int32_t> output_counts(const common::Tensor& image) = 0;

    // ---- weights -----------------------------------------------------------
    /// Current plastic weights in the canonical (chip-grid) representation.
    virtual WeightSnapshot weights() const = 0;
    /// Reprograms the plastic weights from a canonical snapshot.
    virtual void load_weights(const WeightSnapshot& snap) = 0;
    /// Checkpoints weights() to a file (load with runtime::load_snapshot +
    /// Session::load_weights or CompiledModel::with_weights).
    void save(const std::string& path) const;

    // ---- published-weights stream (learning-while-serving, §9) -------------
    /// If the model this session was opened from has published a weight
    /// image newer than the one this session runs on, loads it and returns
    /// true. Call only at batch boundaries — never mid-phase — so results
    /// stay bit-deterministic against the version each request started on.
    /// When nothing new was published this is one cheap version check.
    bool refresh();

    /// Version of the published image this session last loaded; 0 while it
    /// still runs on the weights it was opened with (or weights it loaded
    /// itself through load_weights).
    std::uint64_t weights_version() const { return seen_version_; }

    /// Wiring used by CompiledModel::open_session; not for callers.
    void attach_weight_channel(std::shared_ptr<const WeightChannel> channel) {
        channel_ = std::move(channel);
    }

    // ---- online-learning knobs (paper Sec. IV-B) ---------------------------
    virtual void set_class_mask(const std::vector<bool>& mask) = 0;
    /// Adds `offset` to the learning shift — halves the learning rate per
    /// unit. The Reference backend realizes it as an eta scale of 2^-offset.
    virtual void set_learning_shift_offset(int offset) = 0;

    // ---- determinism -------------------------------------------------------
    /// Reseeds the backend's stochastic streams (stochastic rounding on the
    /// chip). Backends without noise accept and ignore it, so seeded
    /// protocols like ParallelTrainer run unchanged on every backend.
    virtual void seed_noise(std::uint64_t seed) = 0;

    // ---- optional capabilities ---------------------------------------------
    /// Activity counters for the energy model as of this call (valid until
    /// the next); null when the backend does not model events (Reference).
    virtual const loihi::ActivityTotals* activity() const { return nullptr; }
    /// Cumulative kernel phase-timer sinks (sweep/accumulation wall time,
    /// obs/timer.hpp — advance only while obs::set_timing(true)); null when
    /// the backend has none. Read on the session's own thread only: the
    /// serving workers snapshot before/after a request to attribute its
    /// compute span (ARCHITECTURE §14).
    virtual const loihi::KernelPhaseTimes* kernel_phases() const {
        return nullptr;
    }
    /// Escape hatch to the underlying simulated network for probing tools
    /// that predate the runtime API; null on non-chip backends and on
    /// sessions that run on several chips.
    virtual core::EmstdpNetwork* native_network() { return nullptr; }
    /// The multi-chip counterpart: non-null exactly when a LoihiSim model
    /// compiled to two or more chips (ModelSpec::shards).
    virtual core::ShardedEmstdpNetwork* native_sharded_network() {
        return nullptr;
    }

protected:
    Session() = default;

private:
    std::shared_ptr<const WeightChannel> channel_;
    std::uint64_t seen_version_ = 0;
};

}  // namespace neuro::runtime
