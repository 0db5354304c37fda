#include "loihi/energy.hpp"

#include <algorithm>
#include <stdexcept>

namespace neuro::loihi {

EnergyReport estimate_energy(const EnergyModelParams& params, const Chip& chip,
                             const ActivityTotals& totals, std::uint64_t samples) {
    if (samples == 0) throw std::invalid_argument("estimate_energy: zero samples");
    if (totals.steps == 0) throw std::invalid_argument("estimate_energy: no steps run");

    EnergyReport r;
    r.cores = chip.mapping().total_cores;
    r.steps_per_sample = totals.steps / samples;

    const double steps = static_cast<double>(totals.steps);
    const double synops_per_core_step =
        static_cast<double>(totals.synaptic_ops) /
        (steps * static_cast<double>(std::max<std::size_t>(1, r.cores)));

    // Barrier-synchronised step: the slowest core sets the pace, and a step
    // can never beat the 10 kHz silicon ceiling. Each layer's cores are
    // homogeneous, so the busiest core is the max over layers of its
    // compartment-scan plus synaptic-memory-scan cost.
    double busiest = 0.0;
    for (const auto& layer : chip.mapping().layers) {
        const double cost =
            params.per_compartment_s *
                static_cast<double>(layer.compartments_per_core) +
            params.per_plastic_synapse_s *
                static_cast<double>(layer.plastic_synapses_per_core);
        busiest = std::max(busiest, cost);
    }
    r.step_seconds = std::max(
        params.step_floor_s, busiest + params.per_synop_s * synops_per_core_step);

    r.sample_seconds = r.step_seconds * static_cast<double>(r.steps_per_sample);
    r.fps = r.sample_seconds > 0.0 ? 1.0 / r.sample_seconds : 0.0;

    // Event energy, averaged into power over the run.
    const double event_energy =
        params.synop_energy_j * static_cast<double>(totals.synaptic_ops) +
        params.update_energy_j * static_cast<double>(totals.compartment_updates) +
        params.spike_energy_j * static_cast<double>(totals.spikes) +
        params.learn_energy_j * static_cast<double>(totals.learning_synapse_visits);
    const double run_seconds = r.step_seconds * steps;
    const double event_power = run_seconds > 0.0 ? event_energy / run_seconds : 0.0;

    r.power_w = params.base_power_w +
                params.core_power_w * static_cast<double>(r.cores) + event_power;
    r.energy_per_sample_j = r.power_w * r.sample_seconds;

    const auto n = static_cast<double>(samples);
    const auto& pops = chip.population_activity();
    r.populations.reserve(pops.size());
    for (std::size_t p = 0; p < pops.size(); ++p) {
        PopulationEnergy e;
        e.name = chip.population_config(p).name;
        e.synaptic_ops = static_cast<double>(pops[p].synaptic_ops) / n;
        e.compartment_updates = static_cast<double>(pops[p].compartment_updates) / n;
        e.spikes = static_cast<double>(pops[p].spikes) / n;
        e.event_energy_j = params.synop_energy_j * e.synaptic_ops +
                           params.update_energy_j * e.compartment_updates +
                           params.spike_energy_j * e.spikes;
        if (e.synaptic_ops > 0.0) e.energy_per_synop_j = e.event_energy_j / e.synaptic_ops;
        r.populations.push_back(std::move(e));
    }
    return r;
}

}  // namespace neuro::loihi
