/**
 * @file verify.h
 * Static circuit verification: analyze circuits (and, via plan_audit.h /
 * fusion_audit.h, their compiled artifacts) without executing them.
 *
 * Checker families:
 *  - circuit legality: wire bounds, duplicate wires, gate/wire dimension
 *    agreement, unitarity (with a hermitian/diagonal/permutation/monomial
 *    classification pass behind Options::classify);
 *  - dead code: identity-up-to-phase gates, and the inverse pairs the
 *    transpiler's CancelInversePairs and the builders'
 *    ctor::cancel_inverse_pairs erase — all three find them through
 *    qd::inverse_pairs (circuit.h), so a reported pair is an erased one;
 *  - domain lint (paper discipline): circuits built purely from
 *    permutation gates are propagated classically over qubit-subspace
 *    basis inputs (the paper's Section 6 fast-verification path) to prove
 *    that declared ancilla wires return to their input value and that no
 *    |2> population survives to the output — mid-circuit |2> occupancy is
 *    the paper's mechanism (lifted regions) and stays legal;
 *  - compiled-artifact audits (plan_audit.h, fusion_audit.h) re-derive
 *    kernel dispatch and fusion partitions and prove their offset tables
 *    and class algebra.
 *
 * Strict mode: `strict()` reads QD_VERIFY=strict (overridable with
 * set_strict). The circuit-taking simulation entry points (`simulate`,
 * `apply_circuit`, `circuit_unitary`, `run_noisy_trials`,
 * `run_single_trajectory`, `density_matrix_fidelity`) compile through the
 * CompileService, whose kDefault admission analyzes under strict mode
 * (exec/compile_service.h), so a Debug CI leg exporting QD_VERIFY=strict
 * turns the whole test suite into a verifier fuzz corpus. Off by default;
 * precompiled-circuit overloads (the per-shot hot paths) are never
 * re-verified.
 */
#ifndef QDSIM_VERIFY_VERIFY_H
#define QDSIM_VERIFY_VERIFY_H

#include <span>
#include <stdexcept>
#include <vector>

#include "qdsim/circuit.h"
#include "qdsim/exec/fusion.h"
#include "qdsim/verify/report.h"

namespace qd::verify {

/** What `analyze` checks and how strictly. */
struct Options {
    /** Wire bounds / duplicates / dimension agreement / unitarity. */
    bool legality = true;
    /** Identity-up-to-phase gates and adjacent inverse pairs. */
    bool dead_code = true;
    /** Emit an info finding classifying each distinct gate matrix
     *  (unitary/hermitian/diagonal/permutation/monomial). */
    bool classify = false;
    /** Compile the circuit and audit every plan/kernel assignment
     *  (plan_audit.h). Skipped when legality found structural errors. */
    bool plan_audit = true;
    /** Re-derive the fusion partition under `fusion`/`fences` and audit
     *  its invariants (fusion_audit.h). Skipped like plan_audit. */
    bool fusion_audit = true;
    /** Fusion settings the audited compilation would run under. */
    exec::FusionOptions fusion{};
    /** fence_after flags for the fusion audit (empty or one per op). */
    std::vector<std::uint8_t> fences{};

    /** Wires that must return to their input value on every qubit-subspace
     *  basis input (clean ancilla enter as |0>; dirty borrows restore any
     *  input). Empty disables the check. Permutation circuits only. */
    std::vector<int> ancilla_wires{};
    /** Enforce the paper's qubit-I/O protocol: no output digit may be 2
     *  on any qubit-subspace basis input. Permutation circuits only. */
    bool expect_qubit_io = false;
    /** Cap on propagated basis inputs; wider registers are sampled with a
     *  deterministic stride so both ends of the index space are covered. */
    Index max_domain_inputs = 4096;

    /** Downgrade circuit.non-unitary to a warning: the simulator applies
     *  non-unitary matrices by design (Kraus operators, linearity tests),
     *  so strict-mode enforcement must not reject them. */
    bool allow_nonunitary = false;

    /** Numeric tolerance for unitarity / identity comparisons. */
    Real tol = kLooseTol;
};

/** Analyzes a circuit; never throws on findings. */
[[nodiscard]] Report analyze(const Circuit& circuit,
                             const Options& options = {});

/**
 * Analyzes a raw operation sequence over `dims`. Unlike Circuit (whose
 * append/mutators validate), an Operation span can encode arbitrary
 * malformed sites, which is what the legality rules are for: wire
 * out-of-range, duplicate wires, gate/wire dimension mismatch, arity
 * mismatch, empty gates.
 */
[[nodiscard]] Report analyze_ops(const WireDims& dims,
                                 std::span<const Operation> ops,
                                 const Options& options = {});

// ------------------------------------------------------------ strict mode

/** True when strict verification is on: QD_VERIFY=strict in the
 *  environment (read once), unless overridden by set_strict. */
[[nodiscard]] bool strict();

/** Overrides the environment (tests); clear_strict() restores it. */
void set_strict(bool on);
void clear_strict();

/** Thrown by the CompileService when its admission analysis finds
 *  errors. */
class VerificationError : public std::runtime_error {
  public:
    explicit VerificationError(Report report);
    [[nodiscard]] const Report& report() const { return report_; }

  private:
    Report report_;
};

}  // namespace qd::verify

#endif  // QDSIM_VERIFY_VERIFY_H
