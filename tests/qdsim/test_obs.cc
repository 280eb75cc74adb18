/**
 * Tests for the cross-engine instrumentation layer (src/qdsim/obs/):
 * hand-counted kernel-class counters on all three engines, plan-cache
 * counters under concurrency, report invariance across thread counts and
 * batch widths, span nesting + Chrome-trace output, and the disabled
 * paths (runtime switch off; QD_PROFILE=OFF stubs).
 */
#include "qdsim/obs/counters.h"

#include <cstdio>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "noise/density_matrix.h"
#include "noise/models.h"
#include "noise/trajectory.h"
#include "qdsim/circuit.h"
#include "qdsim/exec/apply_plan.h"
#include "qdsim/exec/batched_kernels.h"
#include "qdsim/exec/batched_state.h"
#include "qdsim/exec/compile_service.h"
#include "qdsim/exec/compiled_circuit.h"
#include "qdsim/gate_library.h"
#include "qdsim/obs/report.h"
#include "qdsim/obs/trace.h"
#include "qdsim/random_state.h"
#include "qdsim/simulator.h"

namespace qd {
namespace {

using obs::Counter;

TEST(ObsCounterNames, UniqueNonEmptyAndStable)
{
    std::set<std::string> seen;
    for (std::size_t i = 0; i < obs::kNumCounters; ++i) {
        const std::string name = obs::counter_name(static_cast<Counter>(i));
        EXPECT_FALSE(name.empty()) << "counter " << i;
        EXPECT_TRUE(seen.insert(name).second)
            << "duplicate counter name: " << name;
    }
    // Spot-check names the bench gate keys on (compare_bench.py TRACKED):
    // renaming these silently un-gates the CI metrics.
    EXPECT_EQ(std::string(obs::counter_name(Counter::kPlanCacheHits)),
              "plan_cache_hits");
    EXPECT_EQ(std::string(obs::counter_name(Counter::kPlanCacheMisses)),
              "plan_cache_misses");
    EXPECT_EQ(std::string(obs::counter_name(Counter::kFusionBlocksOut)),
              "fusion_blocks_out");
}

#if QD_OBS_BUILD

/** Enables counters for the test body and restores the ambient default
 *  (disabled unless QD_OBS was exported) afterwards. */
class ObsTest : public ::testing::Test {
  protected:
    void SetUp() override
    {
        was_enabled_ = obs::enabled();
        obs::reset_counters();
        obs::set_enabled(true);
    }

    void TearDown() override
    {
        obs::set_enabled(was_enabled_);
        obs::reset_counters();
    }

  private:
    bool was_enabled_ = false;
};

/** A 9x9 generalized permutation (one nonzero per row/column, non-unit
 *  phases) over two qutrits: routes to the monomial kernel. */
Gate
two_qutrit_monomial()
{
    Matrix m(9, 9);
    for (std::size_t r = 0; r < 9; ++r) {
        const std::size_t c = (r + 2) % 9;
        m(r, c) = Complex(0, r % 2 == 0 ? 1 : -1);
    }
    return gates::from_matrix("MONO9", {3, 3}, m);
}

/** A dense, unstructured 9x9 operator over two qutrits. */
Gate
two_qutrit_dense()
{
    Matrix m(9, 9);
    for (std::size_t r = 0; r < 9; ++r) {
        for (std::size_t c = 0; c < 9; ++c) {
            m(r, c) = Complex(0.1 + 0.01 * static_cast<Real>(r),
                              0.02 * static_cast<Real>(c));
        }
    }
    return gates::from_matrix("DENSE9", {3, 3}, m);
}

/** One op of every kernel class on a 2-qutrit register. */
Circuit
one_of_each_class()
{
    Circuit c(WireDims::uniform(2, 3));
    c.append(gates::Xplus1(), {0});                  // permutation
    c.append(gates::Z3(), {1});                      // diagonal
    c.append(two_qutrit_monomial(), {0, 1});         // monomial
    c.append(gates::H3(), {0});                      // single-wire d=3
    // A controlled PERMUTATION would classify as a permutation of the
    // whole register; a controlled dense block is what routes to the
    // controlled-subspace kernel.
    c.append(gates::H3().controlled(3, 1), {0, 1});  // controlled
    c.append(two_qutrit_dense(), {0, 1});            // dense
    return c;
}

TEST_F(ObsTest, SingleShotKernelClassCountsHandCounted)
{
    const Circuit circuit = one_of_each_class();
    const exec::CompiledCircuit compiled(circuit);

    // The compiler itself must agree with the hand count before we trust
    // the runtime counters against it.
    const auto kc = compiled.kernel_counts();
    ASSERT_EQ(kc.permutation, 1u);
    ASSERT_EQ(kc.diagonal, 1u);
    ASSERT_EQ(kc.monomial, 1u);
    ASSERT_EQ(kc.single_wire, 1u);
    ASSERT_EQ(kc.controlled, 1u);
    ASSERT_EQ(kc.dense, 1u);

    Rng rng(11);
    StateVector psi = haar_random_state(circuit.dims(), rng);
    exec::BatchedScratch scratch;

    obs::reset_counters();
    compiled.run(psi, scratch);
    const obs::CounterSnapshot s = obs::counters_snapshot();

    EXPECT_EQ(s[Counter::kSsPermutation], 1u);
    EXPECT_EQ(s[Counter::kSsDiagonal], 1u);
    EXPECT_EQ(s[Counter::kSsMonomial], 1u);
    EXPECT_EQ(s[Counter::kSsSingleWire], 1u);
    EXPECT_EQ(s[Counter::kSsControlled], 1u);
    EXPECT_EQ(s[Counter::kSsDense], 1u);
    // Nothing batched ran; the flop estimate counts the non-permutation
    // work (a pure relabelling moves no arithmetic).
    EXPECT_EQ(s[Counter::kBatDispatches], 0u);
    EXPECT_GT(s[Counter::kEstimatedFlops], 0u);
}

TEST_F(ObsTest, BatchedKernelCountsAdvanceByLaneCount)
{
    const Circuit circuit = one_of_each_class();
    const exec::CompiledCircuit compiled(circuit);
    constexpr int kLanes = 5;

    exec::BatchedStateVector batch(circuit.dims(), kLanes);
    Rng rng(13);
    for (int b = 0; b < kLanes; ++b) {
        batch.set_lane(b, haar_random_state(circuit.dims(), rng));
    }
    exec::BatchedScratch scratch;

    obs::reset_counters();
    exec::run_batched(compiled, batch, scratch);
    const obs::CounterSnapshot s = obs::counters_snapshot();

    // Batched class counters advance by the lane count per dispatch, so
    // the per-class totals match kLanes unbatched shots.
    EXPECT_EQ(s[Counter::kBatPermutation], static_cast<unsigned>(kLanes));
    EXPECT_EQ(s[Counter::kBatDiagonal], static_cast<unsigned>(kLanes));
    EXPECT_EQ(s[Counter::kBatMonomial], static_cast<unsigned>(kLanes));
    EXPECT_EQ(s[Counter::kBatSingleWire], static_cast<unsigned>(kLanes));
    EXPECT_EQ(s[Counter::kBatControlled], static_cast<unsigned>(kLanes));
    EXPECT_EQ(s[Counter::kBatDense], static_cast<unsigned>(kLanes));
    EXPECT_EQ(s[Counter::kBatDispatches], 6u);
    EXPECT_EQ(s[Counter::kSsPermutation], 0u);

    obs::SimReport rep;
    rep.counters = s;
    const auto totals = rep.kernel_class_totals();
    for (const auto t : totals) {
        EXPECT_EQ(t, static_cast<unsigned>(kLanes));
    }
}

TEST_F(ObsTest, SuperopClassCountsHandCounted)
{
    // The kSuper* counters count density conjugations by the CompiledOp's
    // class: permutation and monomial count as monomial, the single-wire
    // kernels and dense as dense.
    const WireDims dims = WireDims::uniform(2, 3);
    const int w0[] = {0};
    const int w01[] = {0, 1};

    const auto diag = exec::compile_op(dims, gates::Z3(), w0);
    const auto perm = exec::compile_op(dims, gates::Xplus1(), w0);
    const auto mono = exec::compile_op(
        dims,
        Gate("ZxX", {3, 3},
             gates::Z3().matrix().kron(gates::Xplus1().matrix())),
        w01);
    // Controlled-Xplus1 is itself a permutation; the controlled kernel
    // needs a dense inner block.
    const auto ctrl =
        exec::compile_op(dims, gates::H3().controlled(3, 1), w01);
    const auto single = exec::compile_op(dims, gates::H3(), w0);
    const auto dense = exec::compile_op(
        dims, Gate("HxH", {3, 3}, gates::H3().matrix().kron(
                                      gates::H3().matrix())),
        w01);
    ASSERT_EQ(diag.kind, exec::KernelKind::kDiagonal);
    ASSERT_EQ(perm.kind, exec::KernelKind::kPermutation);
    ASSERT_EQ(mono.kind, exec::KernelKind::kMonomial);
    ASSERT_EQ(ctrl.kind, exec::KernelKind::kControlled);
    ASSERT_EQ(single.kind, exec::KernelKind::kSingleWireD3);
    ASSERT_EQ(dense.kind, exec::KernelKind::kDense);

    Matrix rho(9, 9);
    for (std::size_t r = 0; r < 9; ++r) {
        rho(r, r) = Complex(1.0 / 9.0, 0);
    }
    noise::DensityMatrix dm(dims, rho);

    obs::reset_counters();
    for (const exec::CompiledOp* op :
         {&diag, &perm, &mono, &mono, &ctrl, &single, &dense}) {
        dm.apply(*op);
    }
    const obs::CounterSnapshot s = obs::counters_snapshot();

    EXPECT_EQ(s[Counter::kSuperDiagonal], 1u);
    EXPECT_EQ(s[Counter::kSuperMonomial], 3u);
    EXPECT_EQ(s[Counter::kSuperControlled], 1u);
    EXPECT_EQ(s[Counter::kSuperDense], 2u);
    // Each conjugation is two batched passes over rho's 9 columns.
    EXPECT_EQ(s[Counter::kBatDispatches], 14u);
    EXPECT_EQ(s[Counter::kBatDiagonal], 18u);
    EXPECT_EQ(s[Counter::kBatPermutation], 18u);
    EXPECT_EQ(s[Counter::kBatMonomial], 36u);
    EXPECT_EQ(s[Counter::kBatControlled], 18u);
    EXPECT_EQ(s[Counter::kBatSingleWire], 18u);
    EXPECT_EQ(s[Counter::kBatDense], 18u);
}

TEST_F(ObsTest, PlanCacheCountersUnderConcurrentLookups)
{
    const WireDims dims = WireDims::uniform(3, 3);
    exec::PlanCache cache(dims);
    constexpr int kThreads = 4;
    constexpr int kRepeats = 10;
    constexpr int kKeys = 3;

    obs::reset_counters();
    std::vector<std::thread> pool;
    for (int t = 0; t < kThreads; ++t) {
        pool.emplace_back([&cache] {
            for (int r = 0; r < kRepeats; ++r) {
                for (int w = 0; w < kKeys; ++w) {
                    const int wires[] = {w};
                    ASSERT_NE(cache.get(wires), nullptr);
                }
            }
        });
    }
    for (auto& th : pool) {
        th.join();
    }
    const obs::CounterSnapshot s = obs::counters_snapshot();

    // Build-under-lock: every distinct key misses exactly once no matter
    // how many threads race for it; every other lookup is a hit. The
    // per-thread counters merged into one snapshot must balance exactly.
    EXPECT_EQ(s[Counter::kPlanCacheMisses], static_cast<unsigned>(kKeys));
    EXPECT_EQ(s[Counter::kPlanCacheHits],
              static_cast<unsigned>(kThreads * kRepeats * kKeys - kKeys));
    EXPECT_EQ(s[Counter::kPlanBuilds], static_cast<unsigned>(kKeys));
    EXPECT_EQ(s[Counter::kPlanCacheInserts], 0u);

    const int extra[] = {0, 1};
    cache.put(extra, exec::make_apply_plan(dims, extra));
    EXPECT_EQ(obs::counters_snapshot()[Counter::kPlanCacheInserts], 1u);

    obs::SimReport rep = obs::report_snapshot();
    const double rate = rep.plan_cache_hit_rate();
    EXPECT_GT(rate, 0.9);
    EXPECT_LT(rate, 1.0);
}

/** Small noisy workload shared by the fusion and invariance tests. */
Circuit
noisy_workload()
{
    Circuit c(WireDims::uniform(2, 3));
    for (int l = 0; l < 2; ++l) {
        c.append(gates::H3(), {0});
        c.append(gates::H3(), {1});
        c.append(gates::Xplus1().controlled(3, 1), {0, 1});
    }
    return c;
}

TEST_F(ObsTest, FusionCountersMatchCompiledCircuit)
{
    const Circuit circuit = one_of_each_class();
    obs::reset_counters();
    const exec::CompiledCircuit fused(circuit, exec::FusionOptions{});
    const obs::CounterSnapshot s = obs::counters_snapshot();

    EXPECT_EQ(s[Counter::kFusionOpsIn],
              static_cast<std::uint64_t>(circuit.num_ops()));
    EXPECT_EQ(s[Counter::kFusionBlocksOut],
              static_cast<std::uint64_t>(fused.num_ops()));
    EXPECT_EQ(s[Counter::kFusionFusedGroups],
              static_cast<std::uint64_t>(fused.num_fused_groups()));

    // A density compile runs one fusion pass: its gates, fused between
    // noise fences, with or without idle noise. The reference state
    // reuses them.
    const Circuit noisy = noisy_workload();
    noise::NoiseModel gate_errors;
    gate_errors.p1 = 1e-3;
    gate_errors.p2 = 1e-3;
    obs::reset_counters();
    const noise::DensityCompilation fenced(noisy, gate_errors);
    EXPECT_EQ(obs::counters_snapshot()[Counter::kFusionOpsIn],
              static_cast<std::uint64_t>(noisy.num_ops()));
    obs::reset_counters();
    const noise::DensityCompilation idle(noisy, noise::sc());
    EXPECT_EQ(obs::counters_snapshot()[Counter::kFusionOpsIn],
              static_cast<std::uint64_t>(noisy.num_ops()));
}

obs::CounterSnapshot
run_trials_snapshot(const Circuit& circuit, int trials, int threads,
                    int batch)
{
    noise::TrajectoryOptions options;
    options.trials = trials;
    options.seed = 909;
    options.threads = threads;
    options.batch = batch;
    // Drop cached compile-service artifacts so every run pays the same
    // compile-phase counters (a warm cache would skip them).
    exec::CompileService::global().clear();
    obs::reset_counters();
    noise::run_noisy_trials(circuit, noise::sc(), options);
    return obs::counters_snapshot();
}

TEST_F(ObsTest, ReportBitwiseIdenticalAcrossThreadCounts)
{
    const Circuit circuit = noisy_workload();
    const auto one = run_trials_snapshot(circuit, 24, 1, 1);
    const auto four = run_trials_snapshot(circuit, 24, 4, 1);
    // Integer counters merged from per-thread blocks: totals must be
    // bitwise identical regardless of how the shots were scheduled.
    EXPECT_TRUE(one == four);
    EXPECT_EQ(one[Counter::kTrajShots], 24u);
    EXPECT_GT(one[Counter::kTrajGateErrorDraws], 0u);
}

/** Counters of the one-lane reference for run_trials_snapshot(circuit,
 *  trials, ...): run_single_trajectory (one lane, no shot group) once per
 *  trial on stream root.child(t), after a one-state pass through the
 *  fully fused ideal program, which the shot groups run batched. */
obs::CounterSnapshot
per_shot_snapshot(const Circuit& circuit, int trials)
{
    const noise::TrajectoryCompilation compiled(circuit, noise::sc());
    const exec::CompiledCircuit ideal(circuit, exec::FusionOptions{});
    const Rng root(909);
    obs::reset_counters();
    for (int t = 0; t < trials; ++t) {
        Rng rng = root.child(static_cast<std::uint64_t>(t));
        const StateVector initial =
            haar_random_qubit_subspace_state(circuit.dims(), rng);
        noise::run_single_trajectory(compiled, initial,
                                     simulate(ideal, initial), rng);
    }
    return obs::counters_snapshot();
}

TEST_F(ObsTest, InvariantCountersMatchAcrossBatchWidths)
{
    const Circuit circuit = noisy_workload();
    const auto per_shot = per_shot_snapshot(circuit, 24);
    const auto batched = run_trials_snapshot(circuit, 24, 1, 6);

    // A lane is bitwise the same shot at every batch width, so every
    // divergence event and the per-class kernel totals (kernel.ss +
    // kernel.bat, lanes-weighted) must agree exactly.
    obs::SimReport a, b;
    a.counters = per_shot;
    b.counters = batched;
    EXPECT_EQ(a.kernel_class_totals(), b.kernel_class_totals());
    for (const Counter c :
         {Counter::kTrajShots, Counter::kTrajGateErrorDraws,
          Counter::kTrajGateErrorsFired, Counter::kTrajDampingJumps,
          Counter::kTrajRareBranches, Counter::kEstimatedFlops}) {
        EXPECT_EQ(per_shot[c], batched[c]) << obs::counter_name(c);
    }
    // The batching-shape counters are NOT invariant, by design.
    EXPECT_EQ(per_shot[Counter::kTrajBatches], 0u);
    EXPECT_EQ(batched[Counter::kTrajBatches], 4u);  // 24 trials / 6 lanes
}

TEST_F(ObsTest, DisabledSwitchCountsNothing)
{
    obs::set_enabled(false);
    obs::reset_counters();

    const Circuit circuit = one_of_each_class();
    const exec::CompiledCircuit compiled(circuit);
    Rng rng(7);
    StateVector psi = haar_random_state(circuit.dims(), rng);
    exec::BatchedScratch scratch;
    compiled.run(psi, scratch);

    const obs::CounterSnapshot s = obs::counters_snapshot();
    for (std::size_t i = 0; i < obs::kNumCounters; ++i) {
        EXPECT_EQ(s.v[i], 0u)
            << obs::counter_name(static_cast<Counter>(i));
    }
}

TEST_F(ObsTest, SpanNestingAndChromeTraceExport)
{
    obs::trace_begin();
    ASSERT_TRUE(obs::tracing());
    {
        obs::ScopedSpan outer("test", "outer");
        outer.arg("answer", 42);
        {
            obs::ScopedSpan inner("test", "inner");
        }
    }
    const auto events = obs::trace_end();
    EXPECT_FALSE(obs::tracing());
    ASSERT_EQ(events.size(), 2u);

    const obs::TraceEvent* outer = nullptr;
    const obs::TraceEvent* inner = nullptr;
    for (const auto& e : events) {
        if (e.name == "outer") {
            outer = &e;
        } else if (e.name == "inner") {
            inner = &e;
        }
    }
    ASSERT_NE(outer, nullptr);
    ASSERT_NE(inner, nullptr);
    EXPECT_EQ(outer->cat, "test");
    // The inner span's interval nests inside the outer span's.
    EXPECT_GE(inner->ts_us, outer->ts_us);
    EXPECT_LE(inner->ts_us + inner->dur_us, outer->ts_us + outer->dur_us);
    ASSERT_EQ(outer->args.size(), 1u);
    EXPECT_EQ(std::string(outer->args[0].key), "answer");
    EXPECT_EQ(outer->args[0].value, 42);

    const std::string path =
        ::testing::TempDir() + "qd_test_obs_trace.json";
    ASSERT_TRUE(obs::write_chrome_trace(events, path));
    std::FILE* f = std::fopen(path.c_str(), "r");
    ASSERT_NE(f, nullptr);
    std::string text(4096, '\0');
    const std::size_t n = std::fread(text.data(), 1, text.size(), f);
    std::fclose(f);
    std::remove(path.c_str());
    text.resize(n);
    // Chrome trace-event JSON array format: one complete "X" event per
    // span, loadable by chrome://tracing and Perfetto.
    EXPECT_EQ(text.front(), '[');
    EXPECT_NE(text.find("\"ph\":\"X\""), std::string::npos);
    EXPECT_NE(text.find("\"name\":\"inner\""), std::string::npos);
    EXPECT_NE(text.find("\"answer\":42"), std::string::npos);
    EXPECT_EQ(text.back(), '\n');
    EXPECT_EQ(text[text.size() - 2], ']');
}

TEST_F(ObsTest, SpansOutsideTraceWindowAreDropped)
{
    {
        obs::ScopedSpan orphan("test", "orphan");  // no trace_begin
    }
    obs::trace_begin();
    const auto events = obs::trace_end();
    EXPECT_TRUE(events.empty());
}

TEST_F(ObsTest, ReportMetricsShape)
{
    obs::reset_counters();
    obs::count(Counter::kPlanCacheHits, 3);
    obs::count(Counter::kPlanCacheMisses, 1);
    const obs::SimReport rep = obs::report_snapshot();

    const auto metrics = rep.metrics();
    ASSERT_EQ(metrics.size(), obs::kNumCounters + 6);
    for (const auto& [name, value] : metrics) {
        EXPECT_EQ(name.rfind("obs_", 0), 0u) << name;
        (void)value;
    }
    EXPECT_DOUBLE_EQ(rep.plan_cache_hit_rate(), 0.75);

    const std::string json = rep.to_json();
    EXPECT_EQ(json.front(), '{');
    EXPECT_NE(json.find("\"obs_plan_cache_hits\": 3"), std::string::npos);
    EXPECT_NE(json.find("obs_cache_hit_rate"), std::string::npos);

    const std::string table = rep.to_string();
    EXPECT_NE(table.find("plan_cache_hits"), std::string::npos);
    // Zero counters stay out of the human-readable table.
    EXPECT_EQ(table.find("traj_shots"), std::string::npos);
}

#else  // !QD_OBS_BUILD — the hooks must compile to inert stubs.

TEST(ObsDisabledBuild, StubsAreInert)
{
    EXPECT_FALSE(obs::enabled());
    obs::set_enabled(true);
    EXPECT_FALSE(obs::enabled());
    obs::count(obs::Counter::kPlanCacheHits, 5);
    const obs::CounterSnapshot s = obs::counters_snapshot();
    for (std::size_t i = 0; i < obs::kNumCounters; ++i) {
        EXPECT_EQ(s.v[i], 0u);
    }

    obs::trace_begin();
    {
        obs::ScopedSpan span("test", "noop");
        span.arg("x", 1);
    }
    EXPECT_FALSE(obs::tracing());
    EXPECT_TRUE(obs::trace_end().empty());

    const obs::SimReport rep = obs::report_snapshot();
    EXPECT_DOUBLE_EQ(rep.plan_cache_hit_rate(), 1.0);
}

#endif  // QD_OBS_BUILD

}  // namespace
}  // namespace qd
