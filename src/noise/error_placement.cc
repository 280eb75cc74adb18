#include "noise/error_placement.h"

#include <stdexcept>
#include <utility>

namespace qd::noise {

std::vector<std::vector<ErrorSite>>
enumerate_error_sites(const Circuit& circuit, const NoiseModel& model)
{
    std::vector<std::vector<ErrorSite>> sites(circuit.num_ops());
    for (std::size_t i = 0; i < circuit.num_ops(); ++i) {
        const Operation& op = circuit.ops()[i];
        const int arity = op.gate.arity();
        if (arity == 1) {
            if (model.p1 <= 0) {
                continue;
            }
            const int d = op.gate.dims()[0];
            sites[i].push_back(
                ErrorSite{op.wires, {d}, model.per_channel_1q(d)});
            continue;
        }
        if (model.p2 <= 0) {
            continue;
        }
        if (arity == 2) {
            sites[i].push_back(ErrorSite{
                op.wires, op.gate.dims(),
                model.per_channel_2q(op.gate.dims()[0],
                                     op.gate.dims()[1])});
            continue;
        }
        // Three-or-more-qudit gates: an independent two-qudit error on
        // each adjacent operand pair (conservative count for undecomposed
        // circuits, matching the paper's per-gate accounting).
        for (std::size_t j = 0; j + 1 < op.wires.size(); j += 2) {
            const std::vector<int> pair_dims = {op.gate.dims()[j],
                                                op.gate.dims()[j + 1]};
            sites[i].push_back(ErrorSite{
                {op.wires[j], op.wires[j + 1]},
                pair_dims,
                model.per_channel_2q(pair_dims[0], pair_dims[1])});
        }
    }
    return sites;
}

std::vector<std::uint8_t>
error_fences(const std::vector<std::vector<ErrorSite>>& sites)
{
    std::vector<std::uint8_t> fences(sites.size(), 0);
    for (std::size_t i = 0; i < sites.size(); ++i) {
        fences[i] = sites[i].empty() ? 0 : 1;
    }
    return fences;
}

IdleStretches
idle_stretches(const Circuit& circuit, const NoiseModel& model)
{
    const bool idle = model.has_damping() || model.has_dephasing();
    if (idle && (model.dt_1q < 0 || model.dt_2q < 0)) {
        throw std::invalid_argument(
            "idle_stretches: negative moment duration under idle noise");
    }
    IdleStretches out;
    out.moments = schedule_asap(circuit);
    out.before.resize(circuit.num_ops());
    // Each wire's idle time since its last op's moment began.
    std::vector<Real> tau(static_cast<std::size_t>(circuit.num_wires()),
                          0.0);
    for (const Moment& moment : out.moments) {
        for (const std::size_t i : moment.op_indices) {
            for (const int w : circuit.ops()[i].wires) {
                Real& t = tau[static_cast<std::size_t>(w)];
                out.before[i].push_back(t);
                t = 0;
            }
        }
        const Real dt =
            idle ? model.moment_duration(moment.has_multi_qudit) : 0.0;
        out.durations.push_back(dt);
        for (Real& t : tau) {
            t += dt;
        }
    }
    out.trailing = std::move(tau);
    return out;
}

}  // namespace qd::noise
