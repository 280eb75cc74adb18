/**
 * Compile-time operator fusion: fused vs unfused compiled execution.
 *
 * Workloads (the paper's two serial gate streams, where runs of small
 * gates share wires):
 *   1. Generalized Toffoli, QUBIT method (ancilla-free baseline of
 *      Table 1), decomposed to the H/T/CNOT Toffoli network — the
 *      phase∘permutation runs fuse to monomial blocks and the single-wire
 *      runs collapse onto the unrolled kernels.
 *   2. The paper's qutrit incrementer (Figure 7) at two-qutrit
 *      granularity — permutation∘permutation fusion (bitwise exact).
 *   3. The paper's headline log-depth qutrit gen-Toffoli TREE (Figure 3),
 *      decomposed to two-qutrit gates: adjacent ops act on
 *      overlapping-but-not-nested pairs, so only the stage-2 cost-model
 *      look-ahead fuses it — each decomposed doubly-controlled-U run
 *      collapses to one controlled-subspace block.
 *
 * For each workload: ms per circuit pass unfused (PR 2 engine) vs fused,
 * min-of-reps timing, plus a correctness check (max amplitude deviation
 * fused vs unfused). Emits BENCH_fusion.json; the `speedup`
 * (gen-Toffoli), `speedup_incrementer`, and `speedup_tree` ratios are
 * gated in CI via scripts/compare_bench.py, as is the instrumented
 * section's obs_fusion_cost_rejected counter.
 *
 * Knobs: QD_FUSION_CONTROLS (default 11), QD_FUSION_INC_BITS (default
 * 11), QD_FUSION_TREE_CONTROLS (default 6), QD_FUSION_REPS (default 7).
 */
#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>

#include "bench_util.h"
#include "constructions/gen_toffoli.h"
#include "constructions/incrementer.h"
#include "qdsim/exec/compiled_circuit.h"
#include "qdsim/random_state.h"

namespace {

using namespace qd;

double
now_ms()
{
    return std::chrono::duration<double, std::milli>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

struct Measurement {
    double unfused_ms = 0;
    double fused_ms = 0;
    double speedup = 0;
    double max_dev = 0;
    std::size_t ops_unfused = 0;
    std::size_t ops_fused = 0;
    std::size_t fused_groups = 0;
};

/** Times one circuit fused vs unfused (min over reps of a full compiled
 *  pass from the same random state) and cross-checks the outputs. */
Measurement
measure(const Circuit& circuit, int reps)
{
    const exec::CompiledCircuit unfused(circuit);
    const exec::CompiledCircuit fused(circuit, exec::FusionOptions{});

    Rng rng(2019);
    const StateVector init = haar_random_state(circuit.dims(), rng);
    exec::BatchedScratch scratch;
    StateVector sink = init;

    Measurement m;
    m.ops_unfused = unfused.num_ops();
    m.ops_fused = fused.num_ops();
    m.fused_groups = fused.num_fused_groups();

    // Warm both paths once, then take the min over reps (robust against
    // scheduler noise on shared runners).
    sink = init;
    unfused.run(sink, scratch);
    sink = init;
    fused.run(sink, scratch);

    m.unfused_ms = 1e300;
    for (int r = 0; r < reps; ++r) {
        sink = init;
        const double t0 = now_ms();
        unfused.run(sink, scratch);
        m.unfused_ms = std::min(m.unfused_ms, now_ms() - t0);
    }
    m.fused_ms = 1e300;
    for (int r = 0; r < reps; ++r) {
        sink = init;
        const double t0 = now_ms();
        fused.run(sink, scratch);
        m.fused_ms = std::min(m.fused_ms, now_ms() - t0);
    }
    m.speedup = m.unfused_ms / m.fused_ms;

    StateVector a = init, b = init;
    unfused.run(a, scratch);
    fused.run(b, scratch);
    for (Index i = 0; i < a.size(); ++i) {
        m.max_dev = std::max(m.max_dev, std::abs(a[i] - b[i]));
    }
    return m;
}

void
report(const char* label, const Circuit& circuit, const Measurement& m)
{
    std::printf("%s\n", circuit.summary(label).c_str());
    std::printf("  ops: %zu -> %zu compiled blocks (%zu fused groups)\n",
                m.ops_unfused, m.ops_fused, m.fused_groups);
    std::printf("  unfused pass: %9.3f ms\n", m.unfused_ms);
    std::printf("  fused pass:   %9.3f ms\n", m.fused_ms);
    std::printf("  speedup:      %9.2fx %s\n", m.speedup,
                m.speedup >= 1.3 ? "(>= 1.3x target met)"
                                 : "(below 1.3x target)");
    std::printf("  max |fused - unfused| amplitude deviation: %.3e\n\n",
                m.max_dev);
}

}  // namespace

int
main(int argc, char** argv)
{
    bench::banner("bench_fusion: compile-time operator fusion",
                  "fused vs unfused compiled passes; gen-Toffoli (QUBIT "
                  "network) + qutrit incrementer workloads");

    const int n_controls = bench::env_int("QD_FUSION_CONTROLS", 11);
    const int inc_bits = bench::env_int("QD_FUSION_INC_BITS", 11);
    const int tree_controls = bench::env_int("QD_FUSION_TREE_CONTROLS", 6);
    const int reps = bench::env_int("QD_FUSION_REPS", 7);

    const auto toff =
        ctor::build_gen_toffoli(ctor::Method::kQubitNoAncilla, n_controls);
    const Measurement mt = measure(toff.circuit, reps);
    report("gen_toffoli_qubit", toff.circuit, mt);

    const Circuit inc = ctor::build_qutrit_incrementer(
        inc_bits, ctor::IncGranularity::kTwoQutrit);
    const Measurement mi = measure(inc, reps);
    report("qutrit_incrementer", inc, mi);

    // The paper's depth-parallel qutrit tree, decomposed to two-qutrit
    // gates (overlapping operand pairs throughout).
    const auto tree =
        ctor::build_gen_toffoli(ctor::Method::kQutrit, tree_controls);
    const Measurement mq = measure(tree.circuit, reps);
    report("gen_toffoli_qutrit_tree", tree.circuit, mq);

    // Instrumented section: a fused compile + one pass of the Toffoli
    // network and of the qutrit tree with counters on (fusion in/out
    // stats, cost-model accepts/rejects, cap truncations) and optional
    // --trace spans.
    bench::ObsSection obs_section(bench::trace_flag(argc, argv));
    {
        Rng rng(2019);
        exec::BatchedScratch scratch;
        const exec::CompiledCircuit fused(toff.circuit,
                                          exec::FusionOptions{});
        StateVector probe = haar_random_state(toff.circuit.dims(), rng);
        fused.run(probe, scratch);
        const exec::CompiledCircuit fused_tree(tree.circuit,
                                               exec::FusionOptions{});
        StateVector tprobe = haar_random_state(tree.circuit.dims(), rng);
        fused_tree.run(tprobe, scratch);
    }
    const obs::SimReport rep = obs_section.finish();
    std::printf("\n%s\n", rep.to_string().c_str());

    bench::JsonWriter jw;
    jw.str("workload", "gen_toffoli_qubit+qutrit_incrementer")
        .integer("n_controls", n_controls)
        .integer("inc_bits", inc_bits)
        .integer("reps", reps)
        .integer("toffoli_ops_unfused",
                 static_cast<long long>(mt.ops_unfused))
        .integer("toffoli_ops_fused", static_cast<long long>(mt.ops_fused))
        .num("toffoli_unfused_ms", mt.unfused_ms)
        .num("toffoli_fused_ms", mt.fused_ms)
        .num("toffoli_max_dev", mt.max_dev, "%.3e")
        .num("speedup", mt.speedup, "%.4f")
        .integer("incrementer_ops_unfused",
                 static_cast<long long>(mi.ops_unfused))
        .integer("incrementer_ops_fused",
                 static_cast<long long>(mi.ops_fused))
        .num("incrementer_unfused_ms", mi.unfused_ms)
        .num("incrementer_fused_ms", mi.fused_ms)
        .num("incrementer_max_dev", mi.max_dev, "%.3e")
        .num("speedup_incrementer", mi.speedup, "%.4f")
        .integer("tree_controls", tree_controls)
        .integer("tree_ops_unfused", static_cast<long long>(mq.ops_unfused))
        .integer("tree_ops_fused", static_cast<long long>(mq.ops_fused))
        .num("tree_unfused_ms", mq.unfused_ms)
        .num("tree_fused_ms", mq.fused_ms)
        .num("tree_max_dev", mq.max_dev, "%.3e")
        .num("speedup_tree", mq.speedup, "%.4f")
        .report(rep);
    jw.write("BENCH_fusion.json");
    return 0;
}
