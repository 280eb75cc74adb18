#include "qdsim/simulator.h"

#include <algorithm>
#include <memory>

#include "qdsim/exec/compile_service.h"
#include "qdsim/obs/trace.h"

namespace qd {

// Noiseless compilation has no channel boundaries to respect, so the
// circuit-taking entry points compile with the fusion stage enabled
// (exec::FusionOptions defaults). Compilation routes through the
// CompileService's global artifact cache, which also runs the verify
// admission gate under QD_VERIFY=strict; callers needing the unfused
// reference compile an exec::CompiledCircuit(circuit) themselves.

namespace {

std::shared_ptr<const exec::CompiledArtifact>
compile_state(const Circuit& circuit)
{
    return exec::CompileService::global().compile(circuit,
                                                  exec::FusionOptions{});
}

}  // namespace

void
apply_circuit(const Circuit& circuit, StateVector& psi)
{
    compile_state(circuit)->state->run(psi);
}

StateVector
simulate(const Circuit& circuit)
{
    // The compile phase (CompiledCircuit ctor) and the execute phase
    // (CompiledCircuit::run) each emit their own span.
    obs::ScopedSpan span("sim", "simulate");
    return simulate(*compile_state(circuit)->state);
}

StateVector
simulate(const Circuit& circuit, const StateVector& initial)
{
    obs::ScopedSpan span("sim", "simulate");
    return simulate(*compile_state(circuit)->state, initial);
}

StateVector
simulate(const exec::CompiledCircuit& compiled)
{
    StateVector psi(compiled.dims());
    compiled.run(psi);
    return psi;
}

StateVector
simulate(const exec::CompiledCircuit& compiled, const StateVector& initial)
{
    StateVector psi = initial;
    compiled.run(psi);
    return psi;
}

Matrix
circuit_unitary(const Circuit& circuit)
{
    return circuit_unitary(*compile_state(circuit)->state);
}

Matrix
circuit_unitary(const exec::CompiledCircuit& compiled)
{
    obs::ScopedSpan span("sim", "circuit_unitary");
    span.arg("columns", static_cast<std::int64_t>(compiled.dims().size()));
    const Index n = compiled.dims().size();
    Matrix u(n, n);
    exec::BatchedScratch scratch;
    StateVector psi(compiled.dims());
    for (Index col = 0; col < n; ++col) {
        // Reset the reusable state to basis column `col` in place.
        std::fill(psi.amplitudes().begin(), psi.amplitudes().end(),
                  Complex(0, 0));
        psi[col] = Complex(1, 0);
        compiled.run(psi, scratch);
        for (Index row = 0; row < n; ++row) {
            u(row, col) = psi[row];
        }
    }
    return u;
}

}  // namespace qd
