/**
 * @file plan_audit.h
 * Static audit of compiled execution artifacts (exec/): proves every
 * ApplyPlan offset table stays within state bounds for its register, that
 * controlled-kernel masks agree with the gate's derived
 * ControlledStructure, and that each CompiledOp's kernel class matches
 * what a fresh compile_op dispatch would choose — all without running a
 * single kernel. The kernels index raw amplitude storage through these
 * tables, so a corrupted plan is silent memory corruption; this audit is
 * the static counterpart of the sanitizer CI legs.
 */
#ifndef QDSIM_VERIFY_PLAN_AUDIT_H
#define QDSIM_VERIFY_PLAN_AUDIT_H

#include <span>

#include "qdsim/exec/compiled_circuit.h"
#include "qdsim/verify/report.h"

namespace qd::verify {

/**
 * Audits one ApplyPlan against its register and wires: block/outer
 * geometry consistent with `dims` (plan.block-mismatch,
 * plan.outer-mismatch, plan.table-size), every local offset equal to the
 * canonical local_offsets table (plan.offset-mismatch), and every
 * reachable amplitude index base_of(o) + local_offset[b] provably inside
 * [0, dims.size()) (plan.offset-bounds) — for both the materialised
 * base table and the split tables base_of falls back on.
 */
void audit_plan(const WireDims& dims, std::span<const int> wires,
                const exec::ApplyPlan& plan, Report& report,
                std::ptrdiff_t op_index = -1);

/**
 * Audits one compiled operation: its plan (audit_plan), its kernel-class
 * assignment against a fresh compile_op dispatch (plan.kernel-class), and
 * per-kernel data consistency — controlled masks/offsets re-derived from
 * the gate's ControlledStructure (plan.ctrl-mask), single-wire run
 * geometry, the diagonal table, and the cycle, phase and block tables of
 * the monomial and block-monomial kernels (plan.kernel-data), whose slot
 * offsets must stay inside the register (plan.offset-bounds).
 */
void audit_compiled_op(const WireDims& dims, const exec::CompiledOp& op,
                       Report& report, std::ptrdiff_t op_index = -1);

/**
 * Audits a whole compiled circuit: every op via audit_compiled_op plus
 * the source-op cover — each source index in exactly one compiled op,
 * ascending within an op (plan.source-cover).
 */
void audit_compiled(const exec::CompiledCircuit& compiled, Report& report);

}  // namespace qd::verify

#endif  // QDSIM_VERIFY_PLAN_AUDIT_H
