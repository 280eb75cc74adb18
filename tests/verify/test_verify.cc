/**
 * Property tests for the static verification subsystem (verify/): every
 * legality rule fires on a malformed construct built for it, the whole
 * construction corpus reports zero findings (the regression tests for the
 * dead-code fixes the analyzers surfaced), compiled artifacts audit clean
 * across the fusion option grid while corrupted artifacts are caught, the
 * plan_salt coverage contract holds, and strict mode round-trips the
 * state-vector, trajectory/batched, and density-matrix engines.
 */
#include "qdsim/verify/verify.h"

#include <set>

#include <gtest/gtest.h>

#include "apps/arithmetic.h"
#include "apps/neuron.h"
#include "constructions/gen_toffoli.h"
#include "constructions/incrementer.h"
#include "constructions/peephole.h"
#include "noise/channels.h"
#include "noise/density_matrix.h"
#include "noise/models.h"
#include "noise/trajectory.h"
#include "qdsim/exec/kernels.h"
#include "qdsim/gate_library.h"
#include "qdsim/random_state.h"
#include "qdsim/simulator.h"
#include "qdsim/verify/fusion_audit.h"
#include "qdsim/verify/noise_audit.h"
#include "qdsim/verify/plan_audit.h"
#include "transpile/passes.h"

namespace qd {
namespace {

using verify::Options;
using verify::Report;
using verify::Severity;

/** Scoped strict-mode override. */
struct StrictGuard {
    explicit StrictGuard(bool on) { verify::set_strict(on); }
    ~StrictGuard() { verify::clear_strict(); }
    StrictGuard(const StrictGuard&) = delete;
    StrictGuard& operator=(const StrictGuard&) = delete;
};

Circuit
small_mixed_circuit()
{
    Circuit c(WireDims({2, 3, 3}));
    c.append(gates::H(), {0});
    c.append(gates::H3(), {1});
    c.append(gates::Xplus1().controlled(2, 1), {0, 1});
    c.append(gates::shift(3).controlled(3, 2), {1, 2});
    c.append(gates::Z3(), {2});
    return c;
}

// ------------------------------------------------------------- legality

TEST(VerifyLegality, EachRuleFiresOnItsMalformedConstruct) {
    const WireDims dims = WireDims::uniform(2, 3);
    const auto expect_rule = [&](std::vector<Operation> ops,
                                 const char* rule) {
        const Report r = verify::analyze_ops(dims, ops);
        EXPECT_TRUE(r.has_rule(rule)) << rule << "\n" << r.to_string();
        EXPECT_TRUE(r.has_errors()) << rule;
    };
    expect_rule({{gates::H3(), {7}}}, "circuit.wire-bounds");
    expect_rule({{gates::H3(), {-1}}}, "circuit.wire-bounds");
    expect_rule({{gates::Xplus1().controlled(3, 1), {1, 1}}},
                "circuit.duplicate-wire");
    expect_rule({{gates::Xplus1().controlled(3, 1), {0}}},
                "circuit.arity-mismatch");
    expect_rule({{gates::X(), {0}}}, "circuit.dim-mismatch");
    expect_rule({{Gate{}, {0}}}, "circuit.empty-gate");
}

TEST(VerifyLegality, NonUnitarySeverityFollowsOptions) {
    const WireDims dims = WireDims::uniform(1, 2);
    const Gate lossy =
        gates::from_matrix("lossy", {2}, Matrix{{1, 0}, {0, Real(0.5)}});
    const std::vector<Operation> ops = {{lossy, {0}}};
    const Report strict_r = verify::analyze_ops(dims, ops);
    EXPECT_TRUE(strict_r.has_rule("circuit.non-unitary"));
    EXPECT_TRUE(strict_r.has_errors());
    Options lax;
    lax.allow_nonunitary = true;
    const Report lax_r = verify::analyze_ops(dims, ops, lax);
    EXPECT_TRUE(lax_r.has_rule("circuit.non-unitary"));
    EXPECT_FALSE(lax_r.has_errors());
}

TEST(VerifyLegality, CleanCircuitHasNoFindings) {
    EXPECT_TRUE(verify::analyze(small_mixed_circuit()).clean());
}

// ------------------------------------------------------------ dead code

TEST(VerifyDeadCode, FlagsIdentityAndInversePairs) {
    Circuit c(WireDims::uniform(2, 2));
    const Complex i01(0, 1);
    c.append(gates::from_matrix("gphase", {2},
                                Matrix{{i01, 0}, {0, i01}}),
             {0});
    c.append(gates::H(), {1});
    c.append(gates::H(), {1});
    const Report r = verify::analyze(c);
    EXPECT_EQ(r.count_rule("dead.identity"), 1u);
    EXPECT_EQ(r.count_rule("dead.inverse-pair"), 1u);
    EXPECT_FALSE(r.has_errors());  // warnings only
}

TEST(VerifyDeadCode, OutOfRangeWireReadsNoPerWireState) {
    // analyze_ops takes ops from outside the program; the pair rule keeps
    // per-wire stacks, so a wire past the register must not index them.
    const Gate h = gates::H();
    const std::vector<Operation> ops = {{h, {0}}, {h, {9}}, {h, {9}},
                                        {Gate{}, {1}}, {h, {0}}};
    Options options;
    options.dead_code = true;
    const Report r =
        verify::analyze_ops(WireDims::uniform(2, 2), ops, options);
    EXPECT_EQ(r.count_rule("circuit.wire-bounds"), 2u);
    EXPECT_EQ(r.count_rule("circuit.empty-gate"), 1u);
    EXPECT_EQ(r.count_rule("dead.inverse-pair"), 1u);  // ops 0 and 4
}

/** A gate with its own name, so the ops a rewriter keeps can be told
 *  apart; every product of two of these is within 1e-15 of the identity
 *  or farther than 1e-2 from it, so the rewriters' tolerances agree. */
Gate
tagged(const Gate& g, std::size_t tag) {
    return gates::from_matrix(g.name() + "#" + std::to_string(tag), g.dims(),
                              g.matrix());
}

std::set<std::size_t>
kept_tags(const Circuit& c) {
    std::set<std::size_t> tags;
    for (const Operation& op : c.ops()) {
        tags.insert(std::stoul(op.gate.name().substr(
            op.gate.name().rfind('#') + 1)));
    }
    return tags;
}

TEST(VerifyDeadCode, RewritersAndVerifyAgreePairForPair) {
    Rng rng(25);
    for (int trial = 0; trial < 400; ++trial) {
        const int d = trial % 2 == 0 ? 2 : 3;
        const int n = 2 + static_cast<int>(rng.uniform_int(3));
        const std::vector<Gate> singles =
            d == 2 ? std::vector<Gate>{gates::H(), gates::X(), gates::S(),
                                       gates::T(), gates::S().inverse()}
                   : std::vector<Gate>{gates::H3(), gates::X01(),
                                       gates::Xplus1(), gates::Xminus1()};
        const Gate two = d == 2 ? gates::CNOT()
                                : gates::Xplus1().controlled(3, 1);
        Circuit c(WireDims::uniform(n, d));
        std::size_t tag = 0;
        const auto add = [&](const Gate& g, std::vector<int> wires) {
            c.append(tagged(g, tag++), wires);
        };
        const int len = 4 + static_cast<int>(rng.uniform_int(12));
        for (int k = 0; k < len; ++k) {
            const int w = static_cast<int>(rng.uniform_int(n));
            const int v = (w + 1 + static_cast<int>(rng.uniform_int(n - 1))) % n;
            const Gate& g = singles[rng.uniform_int(singles.size())];
            switch (rng.uniform_int(5)) {
            case 0:  // planted pair
                add(g, {w});
                add(g.inverse(), {w});
                break;
            case 1:  // nested: H X X H
                add(g, {w});
                add(gates::embed(gates::X(), d).inverse(), {w});
                add(gates::embed(gates::X(), d), {w});
                add(g.inverse(), {w});
                break;
            case 2:  // overlapping: H H H
                add(gates::embed(gates::X(), d), {w});
                add(gates::embed(gates::X(), d), {w});
                add(gates::embed(gates::X(), d), {w});
                break;
            case 3:
                add(two, {w, v});
                break;
            default:
                add(g, {w});
                break;
            }
        }
        const std::size_t first = trial % 3 == 0 ? c.num_ops() / 2 : 0;
        const std::vector<Operation> suffix(
            c.ops().begin() + static_cast<std::ptrdiff_t>(first),
            c.ops().end());

        // verify: the pairs it reports, as tags (suffix op k is tag
        // first + k).
        Options options;
        options.plan_audit = false;
        options.fusion_audit = false;
        const Report r = verify::analyze_ops(c.dims(), suffix, options);
        std::set<std::size_t> reported;
        std::size_t pair_findings = 0;
        for (const auto& f : r.findings()) {
            if (f.rule != "dead.inverse-pair") {
                continue;
            }
            ++pair_findings;
            const std::size_t at = f.message.find("cancels op ") + 11;
            reported.insert(first + static_cast<std::size_t>(f.op_index));
            reported.insert(first + std::stoul(f.message.substr(at)));
        }
        EXPECT_EQ(reported.size(), 2 * pair_findings) << "trial " << trial;

        std::set<std::size_t> all;
        for (std::size_t t = first; t < c.num_ops(); ++t) {
            all.insert(t);
        }
        const auto erased = [&](const std::set<std::size_t>& kept) {
            std::set<std::size_t> out;
            for (const std::size_t t : all) {
                if (!kept.contains(t)) {
                    out.insert(t);
                }
            }
            return out;
        };

        Circuit built = c;
        const std::size_t pairs = ctor::cancel_inverse_pairs(built, first);
        EXPECT_EQ(pairs, pair_findings) << "trial " << trial;
        std::set<std::size_t> ctor_kept = kept_tags(built);
        EXPECT_EQ(erased(ctor_kept), reported) << "trial " << trial;

        Circuit tail(c.dims());
        for (const Operation& op : suffix) {
            tail.append(op.gate, op.wires);
        }
        EXPECT_EQ(erased(kept_tags(transpile::CancelInversePairs().run(tail))),
                  reported)
            << "trial " << trial;
    }
}

TEST(VerifyDeadCode, PairSeparatedByBlockerIsKept) {
    Circuit c(WireDims::uniform(2, 2));
    c.append(gates::H(), {0});
    c.append(gates::CNOT(), {0, 1});  // shares wire 0: blocks the pair
    c.append(gates::H(), {0});
    EXPECT_FALSE(verify::analyze(c).has_rule("dead.inverse-pair"));
}

// ------------------------------------ corpus regression (dead-code fixes)

TEST(VerifyCorpus, AllConstructionsReportZeroFindings) {
    // Regression for the real findings the analyzers surfaced: Toffoli
    // seam H-H pairs (QUBIT variants), compute/uncompute CNOT pairs (HE),
    // |0>-control X01 sandwich seams (qutrit incrementer), and MCZ seam
    // pairs (neuron) — all now cancelled at build time.
    std::vector<std::pair<std::string, Circuit>> corpus;
    for (const auto m : ctor::all_methods()) {
        auto gt = ctor::build_gen_toffoli(m, 5);
        corpus.emplace_back("gen-toffoli/" + gt.label,
                            std::move(gt.circuit));
    }
    corpus.emplace_back("inc/qutrit", ctor::build_qutrit_incrementer(6));
    corpus.emplace_back(
        "inc/qutrit-coarse",
        ctor::build_qutrit_incrementer(5,
                                       ctor::IncGranularity::kThreeQutrit));
    corpus.emplace_back("inc/staircase",
                        ctor::build_qubit_staircase_incrementer(6));
    corpus.emplace_back("apps/add-13", apps::build_add_constant(6, 13));
    corpus.emplace_back("apps/neuron",
                        apps::build_neuron_circuit(
                            {1, -1, 1, 1, -1, 1, -1, 1},
                            {1, 1, -1, 1, -1, -1, 1, 1},
                            apps::NeuronMethod::kQutrit));
    for (const auto& [name, circuit] : corpus) {
        const Report r = verify::analyze(circuit);
        EXPECT_TRUE(r.clean()) << name << "\n" << r.to_string();
    }
}

TEST(VerifyCorpus, PeepholePreservesUnitaryAndRemovesSeams) {
    Circuit c(WireDims::uniform(2, 2));
    c.append(gates::H(), {0});
    c.append(gates::T(), {1});
    c.append(gates::H(), {0});  // cancels op 0: only T touches in between
    c.append(gates::CNOT(), {0, 1});
    const Matrix before = circuit_unitary(c);
    const std::size_t pairs = ctor::cancel_inverse_pairs(c);
    EXPECT_EQ(pairs, 1u);
    EXPECT_EQ(c.num_ops(), 2u);
    EXPECT_TRUE(circuit_unitary(c).approx_equal_up_to_phase(before));
    EXPECT_TRUE(verify::analyze(c).clean());
}

// ---------------------------------------------------------- domain lint

TEST(VerifyDomain, QutritGenToffoliSatisfiesQubitIo) {
    // The three-qutrit granularity is all-permutation (the paper's fast
    // classical verification path); the decomposed form has cube-root
    // gates, which domain lint cannot propagate.
    auto gt = ctor::build_gen_toffoli(ctor::Method::kQutrit, 5,
                                      ctor::GenToffoliOptions{false});
    Options options;
    options.expect_qubit_io = true;
    EXPECT_TRUE(verify::analyze(gt.circuit, options).clean());
}

TEST(VerifyDomain, DirtyAncillaAndLeakAreCaught) {
    Circuit dirty(WireDims::uniform(2, 3));
    dirty.append(gates::X01(), {1});
    Options with_ancilla;
    with_ancilla.ancilla_wires = {1};
    EXPECT_TRUE(verify::analyze(dirty, with_ancilla)
                    .has_rule("qutrit.dirty-ancilla"));

    Circuit leak(WireDims::uniform(1, 3));
    leak.append(gates::Xplus1(), {0});
    Options io;
    io.expect_qubit_io = true;
    EXPECT_TRUE(verify::analyze(leak, io).has_rule("qutrit.leaked-two"));
}

TEST(VerifyDomain, MidCircuitTwoOccupancyIsLegal) {
    // |2> inside a lifted region is the paper's mechanism; only output
    // occupancy is an error.
    Circuit c(WireDims::uniform(1, 3));
    c.append(gates::Xplus1(), {0});
    c.append(gates::Xminus1(), {0});
    Options io;
    io.expect_qubit_io = true;
    io.dead_code = false;  // the pair is intentional here
    EXPECT_TRUE(verify::analyze(c, io).clean());
}

// ----------------------------------------------------------- plan audit

TEST(VerifyPlan, CompiledCorpusAuditsClean) {
    const Circuit c = small_mixed_circuit();
    const exec::CompiledCircuit compiled(c, exec::FusionOptions{}, {});
    Report r;
    verify::audit_compiled(compiled, r);
    EXPECT_TRUE(r.clean()) << r.to_string();
}

TEST(VerifyPlan, CorruptedPlansAreCaught) {
    const WireDims dims = WireDims::uniform(3, 2);
    const std::vector<int> wires = {1};
    {
        exec::ApplyPlan bad = *exec::make_apply_plan(dims, wires);
        bad.local_offset.back() = dims.size();
        Report r;
        verify::audit_plan(dims, wires, bad, r);
        EXPECT_TRUE(r.has_rule("plan.offset-bounds")) << r.to_string();
    }
    {
        exec::ApplyPlan bad = *exec::make_apply_plan(dims, wires);
        std::swap(bad.local_offset[0], bad.local_offset[1]);
        Report r;
        verify::audit_plan(dims, wires, bad, r);
        EXPECT_TRUE(r.has_rule("plan.offset-mismatch")) << r.to_string();
    }
    {
        exec::ApplyPlan bad = *exec::make_apply_plan(dims, wires);
        bad.block = 4;  // wire 1 has dim 2
        Report r;
        verify::audit_plan(dims, wires, bad, r);
        EXPECT_TRUE(r.has_errors()) << r.to_string();
    }
    {
        // Wire 2 (the lowest) is a non-operand, so bases come in runs of
        // 2; a run length the low table does not have would send the
        // batched kernels' run walk past it.
        exec::ApplyPlan bad = *exec::make_apply_plan(dims, wires);
        ASSERT_EQ(bad.run, 2u);
        bad.run = 4;
        Report r;
        verify::audit_plan(dims, wires, bad, r);
        EXPECT_TRUE(r.has_rule("plan.table-size")) << r.to_string();
    }
}

TEST(VerifyPlan, KernelClassAndControlledMaskMismatchesAreCaught) {
    const WireDims dims = WireDims::uniform(2, 3);
    {
        exec::CompiledOp op =
            exec::compile_op(dims, gates::H3(), std::vector<int>{0});
        op.kind = exec::KernelKind::kDiagonal;
        Report r;
        verify::audit_compiled_op(dims, op, r);
        EXPECT_TRUE(r.has_rule("plan.kernel-class")) << r.to_string();
    }
    {
        exec::CompiledOp op = exec::compile_op(
            dims, gates::fourier(3).controlled(3, 2),
            std::vector<int>{0, 1});
        ASSERT_EQ(op.kind, exec::KernelKind::kControlled);
        op.ctrl_offset += 1;
        Report r;
        verify::audit_compiled_op(dims, op, r);
        EXPECT_TRUE(r.has_rule("plan.ctrl-mask")) << r.to_string();
    }
}

// --------------------------------------------------------- fusion audit

TEST(VerifyFusion, BuilderPartitionsAuditCleanAcrossOptionGrid) {
    const Circuit c = small_mixed_circuit();
    std::vector<exec::FusionOptions> grid;
    grid.push_back({});
    grid.push_back({.enabled = false});
    grid.push_back({.cost_model = false});
    grid.push_back({.max_block = 9, .cost_ratio = 0.5});
    grid.push_back({.max_block_light = 27, .max_block_dense = 9});
    const std::vector<std::uint8_t> no_fences;
    std::vector<std::uint8_t> fences(c.num_ops(), 0);
    fences[2] = 1;
    for (const auto& options : grid) {
        for (const auto& f : {no_fences, fences}) {
            Report r;
            verify::audit_fusion(c.dims(), c.ops(), f, options, r);
            EXPECT_TRUE(r.clean()) << r.to_string();
        }
    }
}

TEST(VerifyFusion, SeededPartitionViolationsAreCaught) {
    const WireDims dims = WireDims::uniform(3, 2);
    const std::vector<Operation> ops = {{gates::X(), {0}},
                                        {gates::H(), {0}},
                                        {gates::X(), {1}}};
    {
        // Group spans the fence after op 0.
        const std::vector<std::uint8_t> fences = {1, 0, 0};
        const std::vector<exec::FusedGroup> groups = {{{0}, {0, 1}},
                                                      {{1}, {2}}};
        Report r;
        verify::audit_partition(dims, ops, fences, groups, {}, r);
        EXPECT_TRUE(r.has_rule("fusion.fence-span")) << r.to_string();
    }
    {
        // Reordered ops sharing wire 0.
        const std::vector<exec::FusedGroup> groups = {{{0}, {1}},
                                                      {{0}, {0}},
                                                      {{1}, {2}}};
        Report r;
        verify::audit_partition(dims, ops, {}, groups, {}, r);
        EXPECT_TRUE(r.has_rule("fusion.commute")) << r.to_string();
    }
    {
        // Op 1 missing from every group.
        const std::vector<exec::FusedGroup> groups = {{{0}, {0}},
                                                      {{1}, {2}}};
        Report r;
        verify::audit_partition(dims, ops, {}, groups, {}, r);
        EXPECT_TRUE(r.has_rule("fusion.cover")) << r.to_string();
    }
}

TEST(VerifyFusion, SaltCoversEveryOptionField) {
    Report real;
    EXPECT_EQ(verify::check_salt_coverage(real), 7u);
    EXPECT_TRUE(real.clean()) << real.to_string();

    Report crippled;
    verify::check_salt_coverage(
        [](const exec::FusionOptions& o) {
            return Index{o.enabled} * 2 + Index{o.cost_model};
        },
        crippled);
    EXPECT_TRUE(crippled.has_rule("fusion.salt-coverage"));
    EXPECT_EQ(crippled.count(Severity::kError), 5u)
        << crippled.to_string();
}

// ----------------------------------------------------------- noise audit

TEST(VerifyNoise, CalibratedModelsAuditClean) {
    const WireDims dims = WireDims::uniform(2, 3);
    for (const auto& model :
         {noise::sc(), noise::sc_t1(), noise::sc_gates(),
          noise::sc_t1_gates(), noise::bare_qutrit(),
          noise::dressed_qutrit()}) {
        EXPECT_TRUE(verify::analyze_noise(model, dims).clean())
            << model.name;
    }
}

TEST(VerifyNoise, NegativeParameterIsErrorSaturationIsWarning) {
    noise::NoiseModel negative = noise::sc();
    negative.p1 = -0.5;
    const Report neg_r =
        verify::analyze_noise(negative, WireDims::uniform(2, 3));
    EXPECT_TRUE(neg_r.has_errors());

    // Amplified stress models (total gate error > 1) stay runnable: the
    // trajectory sampler saturates, so this is a warning, not an error.
    noise::NoiseModel amplified = noise::sc();
    amplified.p1 *= 300;
    amplified.p2 *= 300;
    const Report amp_r =
        verify::analyze_noise(amplified, WireDims::uniform(2, 3));
    EXPECT_FALSE(amp_r.has_errors()) << amp_r.to_string();
    EXPECT_TRUE(amp_r.has_rule("noise.probability"));
}

TEST(VerifyNoise, BrokenKrausSetIsCaught) {
    noise::KrausChannel damaged = noise::amplitude_damping(2, {0.3});
    damaged.operators.pop_back();
    Report r;
    verify::audit_kraus(damaged, r, "damaged");
    EXPECT_TRUE(r.has_rule("noise.cptp"));
}

// ----------------------------------------------------------- strict mode

TEST(VerifyStrict, RoundTripsAllEngines) {
    StrictGuard strict(true);
    const Circuit c = small_mixed_circuit();
    Rng rng(11);
    const StateVector init = haar_random_state(c.dims(), rng);

    // State-vector engine.
    const StateVector pure = simulate(c, init);
    EXPECT_NEAR(pure.norm(), 1.0, 1e-9);

    // Trajectory + batched engines (batch > 0 exercises the batched path),
    // with the amplified model that strict mode must tolerate.
    noise::NoiseModel amplified = noise::sc();
    amplified.p2 *= 300;
    noise::TrajectoryOptions opts;
    opts.trials = 8;
    opts.batch = 4;
    const auto res = noise::run_noisy_trials(c, amplified, opts);
    EXPECT_GE(res.mean_fidelity, 0.0);

    // Density-matrix engine.
    const Real f = noise::density_matrix_fidelity(c, noise::sc(), init);
    EXPECT_GT(f, 0.0);
}

TEST(VerifyStrict, EnforceThrowsWithReportOnBadArtifacts) {
    StrictGuard strict(true);
    const Circuit c = small_mixed_circuit();
    Options short_fences;
    short_fences.fences = {1};  // wrong length
    const Report r = verify::analyze(c, short_fences);
    EXPECT_TRUE(r.has_errors());
    EXPECT_TRUE(r.has_rule("verify.options"));

    noise::NoiseModel negative = noise::sc();
    negative.p2 = -1.0;
    EXPECT_THROW(noise::run_noisy_trials(c, negative, {}),
                 verify::VerificationError);
}

TEST(VerifyStrict, OffByDefaultAndOverridable) {
    {
        StrictGuard off(false);
        EXPECT_FALSE(verify::strict());
        noise::NoiseModel negative = noise::sc();
        negative.p2 = -1.0;
        // Not enforced when strict is off; the cheap argument contract
        // still applies (trials must be valid).
        noise::TrajectoryOptions opts;
        opts.trials = 1;
        EXPECT_NO_THROW(
            noise::run_noisy_trials(small_mixed_circuit(), negative, opts));
    }
    {
        StrictGuard on(true);
        EXPECT_TRUE(verify::strict());
    }
}

// --------------------------------------------------------------- report

TEST(VerifyReport, JsonEscapesAndTallies) {
    Report r;
    r.add("test.rule", Severity::kWarning, 3, "quote \" and\nnewline");
    r.add("test.rule", Severity::kError, -1, "plain");
    EXPECT_EQ(r.count(Severity::kWarning), 1u);
    EXPECT_EQ(r.count(Severity::kError), 1u);
    EXPECT_EQ(r.count_rule("test.rule"), 2u);
    const std::string json = r.to_json();
    EXPECT_NE(json.find("\\\""), std::string::npos);
    EXPECT_NE(json.find("\\n"), std::string::npos);
    EXPECT_EQ(json.find('\n'), std::string::npos);
    Report other;
    other.merge(r);
    EXPECT_EQ(other.size(), 2u);
}

}  // namespace
}  // namespace qd
