/**
 * @file fusion.h
 * Compile-time operator fusion: merge adjacent operations into one block
 * before kernel classification — identical/nested wire sets by class
 * algebra, overlapping (and even disjoint) wire sets by a flop-count cost
 * model with look-ahead.
 *
 * The paper's circuit constructions (Generalized Toffoli decompositions,
 * incrementers, lifted qubit networks) produce long runs of small gates on
 * shared wires. Every engine pays per-op plan/dispatch and a full pass
 * over the state for work that one fused block can do in a single pass,
 * so the fusion stage matrix-multiplies such runs into one operator at
 * compile time. Two stages:
 *
 * Stage 1 — greedy class-algebra partition (identical/nested sets only):
 *  - Adjacency is dependency adjacency, not list adjacency: an operation
 *    may slide back past any group acting on disjoint wires (they
 *    commute), so `H(t); CNOT(b,t); T(t)` fuses even when scheduled
 *    around unrelated gates.
 *  - Wire sets must be identical or nested; a subset operand embeds into
 *    the larger block (kron with identity on the extra wires), so the
 *    fused block never exceeds the largest block already in the run.
 *  - Kernel-class algebra keeps fusions on fast paths: permutation ∘
 *    permutation stays a permutation cycle walk, diagonal ∘ diagonal a
 *    fused diagonal, phase ∘ permutation a monomial — these
 *    "light" classes fuse unconditionally because their kernels cost
 *    O(block) per block; controlled ∘ controlled merges only on identical
 *    control signatures, and only existing dense blocks absorb nested
 *    ops, so stage 1 never densifies a cheaper kernel.
 *
 * Stage 2 — cost-model look-ahead over OVERLAPPING wire sets
 * (FusionOptions::cost_model): the paper's log-depth gen-Toffoli trees
 * are built from short runs on overlapping-but-not-nested pairs
 * ({b,t};{a,b};{b,t};...), which stage 1 cannot touch. Stage 2 slides a
 * window over consecutive stage-1 groups, maintains the running product
 * over the UNION of their wires (via embed_into_block), classifies the
 * candidate block exactly the way compile_op will (permutation /
 * diagonal / monomial / controlled-subspace — control wires are
 * reordered to the front so controlled structure is recognised; a
 * block-monomial product is priced as dense, so the partition does not
 * depend on that class, see estimate_block_cost), and
 * admits a window when its estimated per-pass cost (op_flop_estimate
 * formulas + a memory-traffic term) is no more than cost_ratio × the
 * summed cost of its parts. A backwards dynamic program then picks the
 * minimum-total-cost partition into admissible windows, so raising
 * cost_ratio or a cap (which only enlarges the admissible set) never
 * increases the estimated total. The look-ahead matters: every prefix
 * of a decomposed doubly-controlled-U run is dense and inadmissible,
 * while the full seven-gate run collapses to ONE cheap block (a
 * permutation block for X-type targets, a controlled-subspace block
 * otherwise). Merges accepted / rejected-by-cost / rejected-by-cap are
 * observable via obs:: counters (fusion_cost_accepted /
 * fusion_cost_rejected / fusion_cap_truncations).
 *
 * Caps are per kernel class (max_block_light / _controlled / _dense, 0 =
 * inherit max_block), so a workload can e.g. let permutation unions grow
 * past the dense cap. Every option field folds into plan_salt(), the
 * PlanCache salt for fused-group plans: toggling any knob at runtime on a
 * shared cache can never alias plan variants.
 *
 *  - Fences pin operation boundaries that noise must observe: the
 *    density-matrix engine fences every operation that draws a
 *    gate-error channel, so errors always attach to pre-fusion op
 *    boundaries and never migrate into a fused block. (The trajectory
 *    engine needs no fences: a lane that fires an error inside a fused
 *    block replays the block's source ops.) Stage 2 windows
 *    never span a fence (a fenced op stays the last member of its merged
 *    group, so this holds even when groups span wire-set unions).
 *
 * The partition (fuse_sites) is engine-agnostic: CompiledCircuit lowers
 * groups to state-vector kernels, which the batched lane engine and the
 * density-matrix engine (rho's columns as lanes) run as well.
 */
#ifndef QDSIM_EXEC_FUSION_H
#define QDSIM_EXEC_FUSION_H

#include <cstdint>
#include <span>
#include <vector>

#include "qdsim/circuit.h"
#include "qdsim/matrix.h"

namespace qd::exec {

/** Settings for the compile-time fusion stage. */
struct FusionOptions {
    /** Master switch; disabled compiles every operation separately
     *  (bitwise identical to the pre-fusion engines). */
    bool enabled = true;
    /**
     * Largest block any multi-wire fused group may reach: 27 admits
     * three-qutrit and up-to-four-qubit blocks. The cap bounds both the
     * runtime dense-blowup (a dense matvec costs O(block) multiplies per
     * amplitude) and the compile-time cost of building the fused matrix
     * (O(block^3) per member — an uncapped chain of nested permutations
     * like X; CX; CCX; ... would otherwise compile full-register
     * products). Only single-wire collapses are exempt (their block is
     * the wire dimension). Runtime-toggleable and shapes the partition,
     * so it folds into plan_salt() by contract (see PlanCache) even
     * though plan geometry itself is cap-independent today.
     */
    Index max_block = 27;
    /**
     * Stage 2: merge consecutive groups on overlapping (or disjoint) wire
     * sets into union blocks when the flop-count cost model says the
     * union pass is cheaper than the separate passes. Disabling leaves
     * exactly the stage-1 identical/nested partition.
     */
    bool cost_model = true;
    /**
     * Acceptance threshold for a stage-2 merge: commit when
     * est(union block) <= cost_ratio * sum(est(parts)). 1.0 accepts only
     * merges the model says never lose; values < 1 demand a strict win,
     * values > 1 trade flops for fewer passes (may increase estimated
     * work).
     */
    double cost_ratio = 1.0;
    /**
     * Per-class block caps for the class the MERGED block lands in
     * (light = permutation/diagonal/monomial, controlled = one active
     * control subspace, dense = everything else); 0 inherits max_block.
     * These replace the single global cap for per-workload tuning: e.g.
     * max_block_light = 81 lets permutation unions grow to four qutrits
     * while dense blocks stay capped at 27. The largest of the three
     * (effective) caps bounds stage-2 compile cost: the look-ahead pays
     * O(union^3) per member considered.
     */
    Index max_block_light = 0;
    Index max_block_controlled = 0;
    Index max_block_dense = 0;

    /**
     * PlanCache salt folding EVERY field above (FNV-1a over their bit
     * patterns). Engines compiling fused groups against a shared cache
     * must key plans by this value so runtime option toggles can never
     * alias cached plan variants (see PlanCache's salt contract).
     */
    Index plan_salt() const;
};

/** One fused group: operations `members` (indices into the compiled
 *  sequence, ascending application order) merged into a single operator
 *  over `wires` (operand order of the matrix basis, wires[0] most
 *  significant). */
struct FusedGroup {
    std::vector<int> wires;
    std::vector<std::uint32_t> members;
};

/**
 * Partitions an operation sequence into fused groups.
 *
 * `fence_after[i] != 0` (when non-empty; must match ops.size()) closes
 * every open group after placing op i: nothing later may fuse with, or
 * slide past, anything at or before i. Engines fence the ops whose
 * boundaries carry noise channels.
 *
 * With fusion disabled (or an empty sequence) every op is its own group.
 * Groups are returned in application order; every op index appears in
 * exactly one group.
 */
std::vector<FusedGroup> fuse_sites(const WireDims& dims,
                                   std::span<const Operation> ops,
                                   std::span<const std::uint8_t> fence_after,
                                   const FusionOptions& options);

/**
 * Embeds a k-local operator `m` over `op_wires` into the block over
 * `group_wires` (every op wire must appear among the group wires; both in
 * operand order, wires[0] most significant). Handles operand reordering:
 * the same wire set in a different order embeds through the digit map.
 */
Matrix embed_into_block(const WireDims& dims,
                        std::span<const int> group_wires,
                        std::span<const int> op_wires, const Matrix& m);

/** Product of the group's operator matrices over the group block —
 *  members applied in order, i.e. matrix(last) * ... * matrix(first). */
Matrix fused_matrix(const WireDims& dims, std::span<const Operation> ops,
                    const FusedGroup& group);

/**
 * Decision-time estimate of one pass of `gate` over `wires` on a register
 * of `total` amplitudes, in real flops plus a memory-traffic term (2 per
 * amplitude actually touched). Mirrors compile_op's kernel dispatch on
 * the gate's cached structure, using the op_flop_estimate formulas:
 * permutation 0, diagonal 6·total, monomial 6 per non-identity slot,
 * controlled 8·nb² per active outer block, dense 8·block per amplitude.
 * A gate compile_op routes to kBlockMonomial is priced as dense: teaching
 * the estimator that class would move stage-2 partitions (and every
 * engine's fused program) for a class that only the damped trajectory
 * program, compiled on the ideal's partition, produces today.
 * This is the cost model the stage-2 fusion look-ahead compares merge
 * candidates with (exposed for the monotonicity property tests).
 */
std::uint64_t estimate_block_cost(const WireDims& dims,
                                  std::span<const int> wires,
                                  const Gate& gate, Index total);

}  // namespace qd::exec

#endif  // QDSIM_EXEC_FUSION_H
