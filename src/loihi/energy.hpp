#pragma once
// Power / execution-time / energy model of the chip (Table II and Fig. 3).
//
// Structure (DESIGN.md Sec. 2): the numbers the paper reports decompose as
//
//   energy/sample = power * time/sample
//   power         = base + occupied_cores * per-core power (+ event power)
//   time/sample   = steps/sample * step time
//   step time     = max(100 us floor, alpha * compartments on the busiest
//                   core + beta * average synops per core per step)
//
// Idle cores are power-gated ("the active power decreases as the cores that
// are not in use are power gated"), so power falls as neurons-per-core rises
// while the barrier-synchronised step time grows with the busiest core —
// the product is the U-shaped energy curve of Fig. 3.
//
// Constants are calibrated so the paper network at 10 neurons/core lands on
// Table II's operating point (50 FPS / 0.42 W training, 97 FPS / 0.24 W
// testing); see tests/loihi/energy_test.cpp.

#include <cstdint>
#include <string>
#include <vector>

#include "loihi/chip.hpp"

namespace neuro::loihi {

struct EnergyModelParams {
    double base_power_w = 0.101;          ///< always-on chip overhead
    double core_power_w = 8.35e-3;        ///< per occupied (non-gated) core
    double step_floor_s = 100e-6;         ///< Loihi's 10 kHz barrier ceiling
    double per_compartment_s = 40e-9;     ///< compartment scan on the busiest core
    /// Synaptic-memory scan per fan-in entry of *plastic* projections on the
    /// busiest core. Present in training and testing alike: once learning is
    /// configured the engine walks the synapse tables every epoch, and the
    /// paper's matching train/test step times (Table II: 50 FPS over 2T vs
    /// 97 FPS over T) show this term dominates for the swept dense cores.
    double per_plastic_synapse_s = 75e-9;
    double per_synop_s = 4.0e-9;          ///< spike handling contribution
    double synop_energy_j = 23.6e-12;     ///< per synaptic event
    double update_energy_j = 30.0e-12;    ///< per compartment update
    double spike_energy_j = 1.8e-12;      ///< per emitted spike
    double learn_energy_j = 60.0e-12;     ///< per synapse visit at an epoch
};

/// One population's share of the event energy, per sample: the paper's
/// per-synaptic-op accounting (Table II) reported layer by layer. Synaptic
/// ops are charged to the emitting population (Chip::population_activity);
/// learning visits belong to projections and appear only in the total.
struct PopulationEnergy {
    std::string name;
    double synaptic_ops = 0.0;         ///< per sample
    double compartment_updates = 0.0;  ///< per sample
    double spikes = 0.0;               ///< per sample
    double event_energy_j = 0.0;       ///< per sample
    /// event_energy_j / synaptic_ops (0 for a population that emits none).
    double energy_per_synop_j = 0.0;
};

/// A complete Table-II-style operating point derived from measured activity.
struct EnergyReport {
    double step_seconds = 0.0;
    double sample_seconds = 0.0;
    double fps = 0.0;
    double power_w = 0.0;              ///< static + event power
    double energy_per_sample_j = 0.0;
    std::size_t cores = 0;
    std::uint64_t steps_per_sample = 0;
    /// Event-energy breakdown by population, from the chip's own counters
    /// (Chip::population_activity over the same `samples`). With `totals`
    /// = chip.activity(), the entries plus learning-visit energy add up to
    /// the run's event energy.
    std::vector<PopulationEnergy> populations;
};

/// Derives the operating point from activity totals accumulated over
/// `samples` samples on a finalized chip.
EnergyReport estimate_energy(const EnergyModelParams& params, const Chip& chip,
                             const ActivityTotals& totals, std::uint64_t samples);

}  // namespace neuro::loihi
