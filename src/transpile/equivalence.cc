#include "transpile/equivalence.h"

#include <cmath>

#include "qdsim/exec/compiled_circuit.h"
#include "qdsim/simulator.h"
#include "qdsim/state_vector.h"
#include "transpile/lift.h"

namespace qd::transpile {

namespace {

/** All digit tuples over `dims` with every digit < 2, in register order. */
std::vector<std::vector<int>>
qubit_subspace_inputs(const WireDims& dims)
{
    const int n = dims.num_wires();
    std::vector<std::vector<int>> inputs;
    inputs.reserve(std::size_t{1} << n);
    std::vector<int> digits(static_cast<std::size_t>(n), 0);
    for (Index x = 0; x < (Index{1} << n); ++x) {
        for (int w = 0; w < n; ++w) {
            digits[static_cast<std::size_t>(w)] =
                static_cast<int>((x >> (n - 1 - w)) & 1);
        }
        inputs.push_back(digits);
    }
    return inputs;
}

/** Output states for the given basis inputs, packed as matrix columns.
 *  Compiles the circuit once (fusion on: equivalence probing amortises
 *  the fused compilation across every input) and reuses the plans. */
Matrix
transfer_matrix(const Circuit& c,
                const std::vector<std::vector<int>>& inputs)
{
    const exec::CompiledCircuit compiled(c, exec::FusionOptions{});
    exec::BatchedScratch scratch;
    Matrix t(static_cast<std::size_t>(c.dims().size()), inputs.size());
    for (std::size_t col = 0; col < inputs.size(); ++col) {
        StateVector psi(c.dims(), inputs[col]);
        compiled.run(psi, scratch);
        for (Index r = 0; r < psi.size(); ++r) {
            t(static_cast<std::size_t>(r), col) = psi[r];
        }
    }
    return t;
}

}  // namespace

bool
equivalent_up_to_phase(const Circuit& a, const Circuit& b, Real tol)
{
    if (!(a.dims() == b.dims())) {
        return false;
    }
    return circuit_unitary(a).approx_equal_up_to_phase(circuit_unitary(b),
                                                       tol);
}

bool
equal_on_qubit_subspace(const Circuit& a, const Circuit& b, Real tol)
{
    if (!(a.dims() == b.dims())) {
        return false;
    }
    const auto inputs = qubit_subspace_inputs(a.dims());
    return transfer_matrix(a, inputs)
        .approx_equal_up_to_phase(transfer_matrix(b, inputs), tol);
}

bool
lift_preserves_semantics(const Circuit& original, const Circuit& lifted,
                         Real tol)
{
    if (!(lifted.dims() == lift_dims(original.dims()))) {
        return false;
    }
    const WireDims& small = original.dims();
    const WireDims& big = lifted.dims();
    const exec::CompiledCircuit compiled_original(original);
    const exec::CompiledCircuit compiled_lifted(lifted);
    exec::BatchedScratch scratch;
    for (Index in = 0; in < small.size(); ++in) {
        const std::vector<int> digits = small.unpack(in);
        StateVector ref(small, digits);
        compiled_original.run(ref, scratch);
        StateVector up(big, digits);
        compiled_lifted.run(up, scratch);
        // Embedded indices must carry the original amplitudes; everything
        // else must stay empty (lifting never populates level 2).
        std::vector<bool> embedded(static_cast<std::size_t>(big.size()),
                                   false);
        for (Index i = 0; i < small.size(); ++i) {
            const Index j = big.pack(small.unpack(i));
            embedded[static_cast<std::size_t>(j)] = true;
            if (std::abs(up[j] - ref[i]) > tol) {
                return false;
            }
        }
        for (Index j = 0; j < big.size(); ++j) {
            if (!embedded[static_cast<std::size_t>(j)] &&
                std::abs(up[j]) > tol) {
                return false;
            }
        }
    }
    return true;
}

}  // namespace qd::transpile
