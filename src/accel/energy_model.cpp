#include "accel/energy_model.hpp"

#include "approx/approx_conv.hpp"
#include "tensor/tensor.hpp"

#include <algorithm>
#include <cassert>

namespace amret::accel {

std::int64_t NetworkWorkload::conv_macs() const {
    std::int64_t total = 0;
    for (const auto& layer : layers)
        if (layer.name == "ApproxConv2d") total += layer.macs;
    return total;
}

NetworkWorkload analyze_workload(nn::Module& model, std::int64_t in_channels,
                                 std::int64_t in_size) {
    // Probe with a real forward pass so every layer records its geometry,
    // including strided/downsample paths inside residual blocks. Run in
    // float mode (no multiplier needed) and restore each layer's mode after.
    std::vector<std::pair<approx::ApproxLayer*, approx::ComputeMode>> modes;
    model.visit([&](nn::Module& m) {
        if (auto* layer = dynamic_cast<approx::ApproxLayer*>(&m)) {
            modes.emplace_back(layer, layer->mode());
            layer->set_mode(approx::ComputeMode::kFloat);
        }
    });

    const bool was_training = model.training();
    model.set_training(false);
    const tensor::Tensor probe(tensor::Shape{1, in_channels, in_size, in_size});
    // The probe context holds each layer's recorded geometry until the MAC
    // counts are read back below.
    nn::Context probe_ctx;
    model.forward(probe, probe_ctx);
    model.set_training(was_training);

    NetworkWorkload workload;
    for (const auto& [layer, mode] : modes) {
        LayerWorkload entry;
        entry.name = layer->name();
        entry.macs = layer->last_forward_macs(probe_ctx);
        entry.params = layer->weight.value.numel() + layer->bias.value.numel();
        workload.layers.push_back(entry);
        workload.total_macs += entry.macs;
        layer->set_mode(mode);
    }
    return workload;
}

EnergyReport estimate_energy(const NetworkWorkload& workload,
                             const netlist::HardwareReport& multiplier,
                             const AcceleratorConfig& config) {
    assert(config.array_rows > 0 && config.array_cols > 0);
    EnergyReport report;

    // The Table I power numbers are measured at 1 GHz under uniform inputs,
    // so energy per multiplication = power / 1 GHz (frequency-independent
    // dynamic energy).
    const double energy_per_mac_fj = multiplier.power_uw / 1.0;
    report.mult_energy_nj =
        static_cast<double>(workload.total_macs) * energy_per_mac_fj * 1e-6;
    report.total_energy_nj = report.mult_energy_nj * (1.0 + config.non_mult_overhead);

    const double max_clock_ghz =
        multiplier.delay_ps > 0.0 ? 1000.0 / multiplier.delay_ps : config.clock_ghz;
    report.effective_clock_ghz = std::min(config.clock_ghz, max_clock_ghz);

    const double macs_per_cycle =
        static_cast<double>(config.array_rows) * config.array_cols;
    const double cycles = static_cast<double>(workload.total_macs) / macs_per_cycle;
    report.latency_us = cycles / (report.effective_clock_ghz * 1e3);

    report.array_area_um2 = multiplier.area_um2 * macs_per_cycle;
    return report;
}

netlist::HardwareReport discount_constant_gates(netlist::HardwareReport report,
                                                std::size_t constant_gates,
                                                double constant_area_um2) {
    report.gates -= std::min(report.gates, constant_gates);
    report.area_um2 = std::max(0.0, report.area_um2 - constant_area_um2);
    return report;
}

double energy_ratio(const NetworkWorkload& workload,
                    const netlist::HardwareReport& approx,
                    const netlist::HardwareReport& baseline,
                    const AcceleratorConfig& config) {
    const double a = estimate_energy(workload, approx, config).mult_energy_nj;
    const double b = estimate_energy(workload, baseline, config).mult_energy_nj;
    return b > 0.0 ? a / b : 0.0;
}

} // namespace amret::accel
