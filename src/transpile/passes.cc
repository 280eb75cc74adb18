#include "transpile/passes.h"

#include <cstddef>
#include <vector>

#include "constructions/qutrit_toffoli.h"
#include "qdsim/gate_library.h"
#include "qdsim/moments.h"
#include "transpile/lift.h"

namespace qd::transpile {

namespace {

/** Tolerance for identity / gate-matching tests inside passes. Rewrites
 *  accumulate at most a handful of matrix products, so kTol would also
 *  work; the slack guards long fusion chains. */
constexpr Real kPassTol = 1e-9;

bool
is_identity_up_to_phase(const Matrix& m, Real tol)
{
    return m.approx_equal_up_to_phase(Matrix::identity(m.rows()), tol);
}

}  // namespace

Circuit
FuseSingleQuditGates::run(const Circuit& circuit) const
{
    // Per wire, the index in `out` of the live single-qudit gate that is
    // the latest op on it, or none once an op on more wires follows it.
    constexpr std::size_t none = static_cast<std::size_t>(-1);
    std::vector<std::size_t> last(
        static_cast<std::size_t>(circuit.num_wires()), none);
    std::vector<Operation> out;
    std::vector<bool> dead;
    for (const Operation& op : circuit.ops()) {
        const bool single = op.gate.arity() == 1;
        const std::size_t j =
            single ? last[static_cast<std::size_t>(op.wires[0])] : none;
        if (j == none) {
            for (const int w : op.wires) {
                last[static_cast<std::size_t>(w)] = single ? out.size() : none;
            }
            out.push_back(op);
            dead.push_back(false);
            continue;
        }
        // op comes after out[j], so the fused unitary is M_op * M_prev.
        Matrix fused = op.gate.matrix() * out[j].gate.matrix();
        if (is_identity_up_to_phase(fused, kPassTol)) {
            dead[j] = true;
            last[static_cast<std::size_t>(op.wires[0])] = none;
            continue;
        }
        std::string name = "(";
        name += op.gate.name();
        name += "·";
        name += out[j].gate.name();
        name += ")";
        out[j].gate = gates::from_matrix(std::move(name), op.gate.dims(),
                                         std::move(fused));
    }
    Circuit fused_circuit(circuit.dims());
    for (std::size_t i = 0; i < out.size(); ++i) {
        if (!dead[i]) {
            fused_circuit.append(out[i].gate, out[i].wires);
        }
    }
    return fused_circuit;
}

Circuit
CancelInversePairs::run(const Circuit& circuit) const
{
    std::vector<std::size_t> erased;
    for (const auto& [i, j] :
         inverse_pairs(circuit.ops(), circuit.num_wires(), kPassTol)) {
        erased.push_back(i);
        erased.push_back(j);
    }
    Circuit out = circuit;
    out.erase_ops(std::move(erased));
    return out;
}

Circuit
CompactMoments::run(const Circuit& circuit) const
{
    Circuit out(circuit.dims());
    for (const Moment& moment : schedule_asap(circuit)) {
        for (const std::size_t idx : moment.op_indices) {
            const Operation& op = circuit.ops()[idx];
            out.append(op.gate, op.wires);
        }
    }
    return out;
}

Circuit
SubstituteToffoli::run(const Circuit& circuit) const
{
    const Matrix lifted_ccx = lift_gate(gates::CCX(), 3).matrix();

    // The Figure 4 replacement on a standalone 3-qutrit register; spliced
    // into each match with the match's wire binding.
    Circuit replacement(WireDims::uniform(3, 3));
    ctor::append_qutrit_tree_toffoli(
        replacement, {ctor::on1(0), ctor::on1(1)}, 2,
        gates::embed(gates::X(), 3), ctor::QutritTreeOptions{true});

    Circuit out = circuit;
    std::size_t i = 0;
    while (i < out.num_ops()) {
        const Operation& op = out.ops()[i];
        const bool is_lifted_toffoli =
            op.gate.arity() == 3 &&
            op.gate.dims() == std::vector<int>{3, 3, 3} &&
            op.gate.matrix().approx_equal(lifted_ccx, kPassTol);
        if (is_lifted_toffoli) {
            // Copy: op aliases the element splice() erases.
            const std::vector<int> wires = op.wires;
            out.splice(i, replacement, wires);
            i += replacement.num_ops();
        } else {
            ++i;
        }
    }
    return out;
}

}  // namespace qd::transpile
