#include "qdsim/verify/verify.h"

#include <algorithm>
#include <atomic>
#include <cstdlib>
#include <cstring>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "qdsim/exec/compiled_circuit.h"
#include "qdsim/exec/kernels.h"
#include "qdsim/verify/fusion_audit.h"
#include "qdsim/verify/plan_audit.h"

namespace qd::verify {

namespace {

std::string
wires_str(std::span<const int> wires)
{
    std::string s = "[";
    for (std::size_t i = 0; i < wires.size(); ++i) {
        if (i > 0) {
            s += ',';
        }
        s += std::to_string(wires[i]);
    }
    return s + "]";
}

std::string
op_label(const Operation& op)
{
    return (op.gate.empty() ? std::string("<empty>") : op.gate.name()) +
           " on " + wires_str(op.wires);
}

/**
 * Legality pass: wire bounds/duplicates, gate-vs-wire dimension
 * agreement, arity, unitarity. Returns true when the sequence is
 * structurally sound (compile_op would accept every site), which gates
 * the compiled-artifact audits.
 */
bool
check_legality(const WireDims& dims, std::span<const Operation> ops,
               const Options& options, Report& report)
{
    bool structural_ok = true;
    // One unitarity/classification finding per distinct matrix payload:
    // circuits share gate flyweights, so per-op reporting would flood.
    std::unordered_map<const Matrix*, bool> matrix_seen;

    for (std::size_t i = 0; i < ops.size(); ++i) {
        const Operation& op = ops[i];
        const auto idx = static_cast<std::ptrdiff_t>(i);
        if (op.gate.empty()) {
            report.add("circuit.empty-gate", Severity::kError, idx,
                       "operation holds a default-constructed gate");
            structural_ok = false;
            continue;
        }
        if (op.wires.size() != static_cast<std::size_t>(op.gate.arity())) {
            report.add("circuit.arity-mismatch", Severity::kError, idx,
                       op_label(op) + ": gate arity " +
                           std::to_string(op.gate.arity()) + " but " +
                           std::to_string(op.wires.size()) +
                           " wires bound");
            structural_ok = false;
            continue;
        }
        bool wires_ok = true;
        std::vector<int> sorted = op.wires;
        std::sort(sorted.begin(), sorted.end());
        for (std::size_t j = 0; j + 1 < sorted.size(); ++j) {
            if (sorted[j] == sorted[j + 1]) {
                report.add("circuit.duplicate-wire", Severity::kError, idx,
                           op_label(op) + ": wire " +
                               std::to_string(sorted[j]) + " bound twice");
                wires_ok = false;
                break;
            }
        }
        for (std::size_t j = 0; j < op.wires.size(); ++j) {
            const int w = op.wires[j];
            if (w < 0 || w >= dims.num_wires()) {
                report.add("circuit.wire-bounds", Severity::kError, idx,
                           op_label(op) + ": wire " + std::to_string(w) +
                               " outside the " +
                               std::to_string(dims.num_wires()) +
                               "-wire register");
                wires_ok = false;
            } else if (op.gate.dims()[j] != dims.dim(w)) {
                report.add("circuit.dim-mismatch", Severity::kError, idx,
                           op_label(op) + ": operand " + std::to_string(j) +
                               " has dimension " +
                               std::to_string(op.gate.dims()[j]) +
                               " but wire " + std::to_string(w) +
                               " has dimension " +
                               std::to_string(dims.dim(w)));
                wires_ok = false;
            }
        }
        structural_ok = structural_ok && wires_ok;

        const Matrix* key = &op.gate.matrix();
        if (matrix_seen.emplace(key, true).second) {
            if (!key->is_unitary(options.tol)) {
                report.add("circuit.non-unitary",
                           options.allow_nonunitary ? Severity::kWarning
                                                    : Severity::kError,
                           idx,
                           op_label(op) +
                               ": gate matrix is not unitary within tol");
            }
            if (options.classify) {
                std::vector<Index> perm;
                std::vector<Complex> phase;
                std::string cls;
                cls += key->is_unitary(options.tol) ? "unitary" : "non-unitary";
                if (key->approx_equal(key->dagger(), options.tol)) {
                    cls += " hermitian";
                }
                if (op.gate.is_permutation()) {
                    cls += " permutation";
                } else if (op.gate.is_diagonal_gate()) {
                    cls += " diagonal";
                } else if (exec::monomial_action(*key, perm, phase)) {
                    cls += " monomial";
                } else if (op.gate.has_controlled_structure()) {
                    cls += " controlled";
                } else {
                    cls += " dense";
                }
                report.add("circuit.classify", Severity::kInfo, idx,
                           op.gate.name() + ": " + cls);
            }
        }
    }
    return structural_ok;
}

/** Dead-code pass: identity-up-to-phase gates, and the inverse pairs the
 *  rewriters erase (qd::inverse_pairs at options.tol). */
void
check_dead_code(const WireDims& dims, std::span<const Operation> ops,
                const Options& options, Report& report)
{
    for (std::size_t i = 0; i < ops.size(); ++i) {
        const Operation& op = ops[i];
        if (!op.gate.empty() &&
            op.gate.matrix().approx_equal_up_to_phase(
                Matrix::identity(op.gate.matrix().rows()), options.tol)) {
            report.add("dead.identity", Severity::kWarning,
                       static_cast<std::ptrdiff_t>(i),
                       op_label(op) + ": identity up to global phase");
        }
    }
    for (const auto& [i, j] :
         inverse_pairs(ops, dims.num_wires(), options.tol)) {
        report.add("dead.inverse-pair", Severity::kWarning,
                   static_cast<std::ptrdiff_t>(j),
                   op_label(ops[j]) + ": cancels op " + std::to_string(i) +
                       " (" + op_label(ops[i]) +
                       "), with only cancelling pairs between them on "
                       "these wires");
    }
}

std::string
digits_str(const std::vector<int>& digits)
{
    std::string s = "|";
    for (const int d : digits) {
        s += std::to_string(d);
    }
    return s + ">";
}

/**
 * Domain lint (paper Section 6 discipline): propagate qubit-subspace
 * basis inputs through permutation-only circuits and prove that declared
 * ancilla wires return to their input value and (expect_qubit_io) that
 * no output digit is 2. Mid-circuit |2> occupancy is the paper's lifted
 * intermediate state and stays legal.
 */
void
check_domain(const WireDims& dims, std::span<const Operation> ops,
             const Options& options, Report& report)
{
    const bool wants = options.expect_qubit_io ||
                       !options.ancilla_wires.empty();
    if (!wants) {
        return;
    }
    for (const int w : options.ancilla_wires) {
        if (w < 0 || w >= dims.num_wires()) {
            report.add("qutrit.dirty-ancilla", Severity::kError, -1,
                       "declared ancilla wire " + std::to_string(w) +
                           " outside the register");
            return;
        }
    }
    for (const Operation& op : ops) {
        if (op.gate.empty() || !op.gate.is_permutation()) {
            report.add("domain.not-classical", Severity::kWarning, -1,
                       "domain lint skipped: circuit contains "
                       "non-permutation gates (no classical propagation)");
            return;
        }
    }

    const int n = dims.num_wires();
    // Qubit-subspace inputs: every wire starts in {0, 1}. Wider registers
    // sample the 2^n patterns with a deterministic stride so both ends of
    // the index space (all-zeros through all-ones) are exercised.
    const Index total = n < 63 ? (Index{1} << n) : options.max_domain_inputs;
    const Index count = std::min<Index>(total, options.max_domain_inputs);
    const Index step = count > 0 ? std::max<Index>(1, total / count) : 1;

    std::vector<int> digits(static_cast<std::size_t>(n), 0);
    std::vector<int> initial(static_cast<std::size_t>(n), 0);
    std::vector<std::uint8_t> reported_dirty(static_cast<std::size_t>(n), 0);
    std::vector<std::uint8_t> reported_leak(static_cast<std::size_t>(n), 0);

    for (Index k = 0; k < count; ++k) {
        const Index pattern = std::min(k * step, total - 1);
        for (int w = 0; w < n; ++w) {
            digits[static_cast<std::size_t>(w)] =
                static_cast<int>((pattern >> w) & 1);
        }
        initial = digits;

        for (const Operation& op : ops) {
            Index local = 0;
            for (std::size_t j = 0; j < op.wires.size(); ++j) {
                local = local * static_cast<Index>(op.gate.dims()[j]) +
                        static_cast<Index>(
                            digits[static_cast<std::size_t>(op.wires[j])]);
            }
            Index out = op.gate.permute(local);
            for (std::size_t j = op.wires.size(); j-- > 0;) {
                const auto d = static_cast<Index>(op.gate.dims()[j]);
                digits[static_cast<std::size_t>(op.wires[j])] =
                    static_cast<int>(out % d);
                out /= d;
            }
        }

        for (const int w : options.ancilla_wires) {
            const auto wi = static_cast<std::size_t>(w);
            if (digits[wi] != initial[wi] && !reported_dirty[wi]) {
                reported_dirty[wi] = 1;
                report.add("qutrit.dirty-ancilla", Severity::kError, -1,
                           "ancilla wire " + std::to_string(w) +
                               " ends in |" + std::to_string(digits[wi]) +
                               "> instead of its input |" +
                               std::to_string(initial[wi]) + "> on input " +
                               digits_str(initial));
            }
        }
        if (options.expect_qubit_io) {
            for (int w = 0; w < n; ++w) {
                const auto wi = static_cast<std::size_t>(w);
                if (digits[wi] >= 2 && !reported_leak[wi]) {
                    reported_leak[wi] = 1;
                    report.add("qutrit.leaked-two", Severity::kError, -1,
                               "wire " + std::to_string(w) +
                                   " ends outside the qubit subspace (|" +
                                   std::to_string(digits[wi]) +
                                   ">) on input " + digits_str(initial));
                }
            }
        }
    }
}

/** Core analysis over a raw op sequence; returns structural soundness so
 *  callers know whether compiled-artifact audits are safe to run. */
bool
analyze_core(const WireDims& dims, std::span<const Operation> ops,
             const Options& options, Report& report)
{
    bool structural_ok = true;
    if (options.legality) {
        structural_ok = check_legality(dims, ops, options, report);
    }
    if (options.dead_code) {
        check_dead_code(dims, ops, options, report);
    }
    check_domain(dims, ops, options, report);
    if (!options.fences.empty() && options.fences.size() != ops.size()) {
        report.add("verify.options", Severity::kError, -1,
                   "fence flags length " +
                       std::to_string(options.fences.size()) +
                       " does not match op count " +
                       std::to_string(ops.size()));
        structural_ok = false;
    }
    return structural_ok;
}

void
audit_artifacts(const Circuit& circuit, const Options& options,
                Report& report)
{
    if (options.fusion_audit) {
        audit_fusion(circuit.dims(), circuit.ops(), options.fences,
                     options.fusion, report);
        check_salt_coverage(report);
    }
    if (options.plan_audit) {
        const exec::CompiledCircuit compiled(circuit, options.fusion,
                                             options.fences);
        audit_compiled(compiled, report);
    }
}

}  // namespace

Report
analyze(const Circuit& circuit, const Options& options)
{
    Report report;
    const bool structural_ok =
        analyze_core(circuit.dims(), circuit.ops(), options, report);
    if (structural_ok && (options.plan_audit || options.fusion_audit)) {
        audit_artifacts(circuit, options, report);
    }
    return report;
}

Report
analyze_ops(const WireDims& dims, std::span<const Operation> ops,
            const Options& options)
{
    Report report;
    const bool structural_ok = analyze_core(dims, ops, options, report);
    if (structural_ok && (options.plan_audit || options.fusion_audit)) {
        // Structurally sound, so the validating append cannot throw.
        Circuit rebuilt{dims};
        for (const Operation& op : ops) {
            rebuilt.append(op.gate, op.wires);
        }
        audit_artifacts(rebuilt, options, report);
    }
    return report;
}

// --------------------------------------------------------------- strict

namespace {

/** -1 = follow the environment; 0/1 = explicit override (tests). */
std::atomic<int> g_strict_override{-1};

bool
env_strict()
{
    static const bool value = [] {
        const char* v = std::getenv("QD_VERIFY");
        return v != nullptr && std::strcmp(v, "strict") == 0;
    }();
    return value;
}

}  // namespace

bool
strict()
{
    const int override_value = g_strict_override.load();
    return override_value >= 0 ? override_value != 0 : env_strict();
}

void
set_strict(bool on)
{
    g_strict_override.store(on ? 1 : 0);
}

void
clear_strict()
{
    g_strict_override.store(-1);
}

VerificationError::VerificationError(Report report)
    : std::runtime_error("static verification failed:\n" +
                         report.to_string()),
      report_(std::move(report))
{
}

}  // namespace qd::verify
