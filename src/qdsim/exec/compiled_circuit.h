/**
 * @file compiled_circuit.h
 * A circuit lowered to specialized kernels, compiled once and executed many
 * times.
 *
 * This is the execution-engine entry point the rest of the stack consumes:
 * `simulate`/`apply_circuit` compile-and-run, `circuit_unitary` reuses one
 * compilation across all basis columns, the noise trajectory engine
 * compiles once and runs thousands of shots against the same plans, and
 * the transpiler's equivalence checkers amortise compilation across all
 * probed inputs.
 */
#ifndef QDSIM_EXEC_COMPILED_CIRCUIT_H
#define QDSIM_EXEC_COMPILED_CIRCUIT_H

#include "qdsim/circuit.h"
#include "qdsim/exec/fusion.h"
#include "qdsim/exec/kernels.h"

namespace qd::exec {

/**
 * An immutable sequence of compiled operations over a fixed register.
 * Without fusion, operation i corresponds to `circuit.ops()[i]`; with
 * fusion, each compiled op lists the circuit operations it realises in
 * `CompiledOp::source_ops` (every circuit op appears in exactly one
 * compiled op). Thread-safe to execute concurrently as long as each
 * thread uses its own BatchedScratch and state.
 */
class CompiledCircuit {
  public:
    CompiledCircuit() = default;

    /** Compiles every operation separately (no fusion), sharing offset
     *  tables between operations on the same wires. */
    explicit CompiledCircuit(const Circuit& circuit);

    /**
     * Compiles with the fusion stage (see fusion.h): adjacent operations
     * on identical or nested wire sets merge into one block before kernel
     * classification. `fence_after` (empty, or circuit.num_ops() flags)
     * pins op boundaries noise channels attach to. `cache` (optional)
     * shares ApplyPlans with other compilations over the same register;
     * fused-group plans are keyed by the fusion cap inside it.
     */
    CompiledCircuit(const Circuit& circuit, const FusionOptions& options,
                    std::span<const std::uint8_t> fence_after = {},
                    PlanCache* cache = nullptr);

    const WireDims& dims() const { return dims_; }
    const std::vector<CompiledOp>& ops() const { return ops_; }
    std::size_t num_ops() const { return ops_.size(); }

    /** Number of circuit operations this compilation realises (equals
     *  num_ops() when nothing fused). */
    std::size_t num_source_ops() const { return num_source_ops_; }

    /** Number of compiled ops that merged two or more circuit ops. */
    std::size_t num_fused_groups() const { return num_fused_groups_; }

    /** Largest gather block of any compiled op (scratch sizing hint). */
    Index max_block() const { return max_block_; }

    /** Applies all operations to `psi` in order, reusing `scratch` between
     *  gates. `psi` must be over dims(). */
    void run(StateVector& psi, BatchedScratch& scratch) const;

    /** Convenience overload with a call-local scratch. */
    void run(StateVector& psi) const;

    /** How many operations were routed to each kernel (bench/telemetry). */
    struct KernelCounts {
        std::size_t permutation = 0;
        std::size_t diagonal = 0;
        std::size_t monomial = 0;
        std::size_t single_wire = 0;
        std::size_t controlled = 0;
        std::size_t dense = 0;
    };
    KernelCounts kernel_counts() const;

  private:
    void compile_plain(const Circuit& circuit, PlanCache& cache);

    WireDims dims_;
    std::vector<CompiledOp> ops_;
    std::size_t num_source_ops_ = 0;
    std::size_t num_fused_groups_ = 0;
    Index max_block_ = 0;
};

}  // namespace qd::exec

#endif  // QDSIM_EXEC_COMPILED_CIRCUIT_H
