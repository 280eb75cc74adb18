#include "qdsim/exec/compiled_circuit.h"

#include <algorithm>
#include <stdexcept>
#include <string>

#include "qdsim/obs/trace.h"

namespace qd::exec {

void
CompiledCircuit::compile_plain(const Circuit& circuit, PlanCache& cache)
{
    ops_.reserve(circuit.num_ops());
    std::uint32_t index = 0;
    for (const Operation& op : circuit.ops()) {
        ops_.push_back(compile_op(dims_, op.gate, op.wires, &cache));
        ops_.back().source_ops.assign(1, index++);
        max_block_ = std::max(max_block_, op.gate.block_size());
    }
    num_source_ops_ = circuit.num_ops();
}

CompiledCircuit::CompiledCircuit(const Circuit& circuit)
    : dims_(circuit.dims())
{
    obs::ScopedSpan span("exec", "compile_circuit");
    span.arg("ops", static_cast<std::int64_t>(circuit.num_ops()));
    PlanCache cache(dims_);
    compile_plain(circuit, cache);
}

CompiledCircuit::CompiledCircuit(const Circuit& circuit,
                                 const FusionOptions& options,
                                 std::span<const std::uint8_t> fence_after,
                                 PlanCache* cache)
    : dims_(circuit.dims())
{
    obs::ScopedSpan span("exec", "compile_circuit_fused");
    span.arg("ops", static_cast<std::int64_t>(circuit.num_ops()));
    PlanCache local(dims_);
    PlanCache& use = cache != nullptr ? *cache : local;
    if (!options.enabled) {
        compile_plain(circuit, use);
        return;
    }
    const std::span<const Operation> ops(circuit.ops());
    const std::vector<FusedGroup> groups =
        fuse_sites(dims_, ops, fence_after, options);
    ops_.reserve(groups.size());
    for (const FusedGroup& group : groups) {
        if (group.members.size() == 1) {
            // Singleton: compile exactly like the unfused path (same plan
            // key, same kernel), so disabled-fusion and unfused-group
            // execution stay bitwise identical.
            const Operation& op = ops[group.members[0]];
            ops_.push_back(compile_op(dims_, op.gate, op.wires, &use));
            max_block_ = std::max(max_block_, op.gate.block_size());
        } else {
            std::vector<int> gate_dims;
            gate_dims.reserve(group.wires.size());
            for (const int w : group.wires) {
                gate_dims.push_back(dims_.dim(w));
            }
            const Gate fused(
                "fused[" + std::to_string(group.members.size()) + "]",
                std::move(gate_dims), fused_matrix(dims_, ops, group));
            // Fused-group plans are keyed by the full option salt (see
            // FusionOptions::plan_salt) so a shared cache across
            // compilations with different fusion settings — cap, cost
            // model, ratio, per-class caps — can never hand back a stale
            // variant.
            ops_.push_back(compile_op(dims_, fused, group.wires, &use,
                                      options.plan_salt()));
            max_block_ = std::max(max_block_, fused.block_size());
            ++num_fused_groups_;
        }
        ops_.back().source_ops = group.members;
        num_source_ops_ += group.members.size();
    }
    span.arg("blocks", static_cast<std::int64_t>(ops_.size()));
}

void
CompiledCircuit::run(StateVector& psi, BatchedScratch& scratch) const
{
    if (!(psi.dims() == dims_)) {
        throw std::invalid_argument(
            "CompiledCircuit::run: state dims mismatch");
    }
    obs::ScopedSpan span("exec", "run_circuit");
    span.arg("ops", static_cast<std::int64_t>(ops_.size()));
    for (const CompiledOp& op : ops_) {
        apply_op(op, psi, scratch);
    }
}

void
CompiledCircuit::run(StateVector& psi) const
{
    BatchedScratch scratch;
    run(psi, scratch);
}

CompiledCircuit::KernelCounts
CompiledCircuit::kernel_counts() const
{
    KernelCounts counts;
    for (const CompiledOp& op : ops_) {
        switch (op.kind) {
            case KernelKind::kPermutation:
                ++counts.permutation;
                break;
            case KernelKind::kDiagonal:
                ++counts.diagonal;
                break;
            case KernelKind::kMonomial:
                ++counts.monomial;
                break;
            case KernelKind::kSingleWireD2:
            case KernelKind::kSingleWireD3:
                ++counts.single_wire;
                break;
            case KernelKind::kControlled:
                ++counts.controlled;
                break;
            case KernelKind::kDense:
                ++counts.dense;
                break;
        }
    }
    return counts;
}

}  // namespace qd::exec
