/**
 * @file test_compile_service.cc
 * CompileService behavior: cache keying and its content tie-break,
 * sharing (across threads too), LRU eviction, the verify admission gate,
 * obs counter traffic, the circuit tier (one entry per circuit across
 * noise models and engines, its lifetime and its kept reports), and
 * bitwise parity between service-compiled artifacts and direct
 * compilations on all three engines.
 */
#include "qdsim/exec/compile_service.h"

#include <bit>
#include <cstring>
#include <map>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "constructions/gen_toffoli.h"
#include "noise/density_matrix.h"
#include "noise/error_placement.h"
#include "noise/models.h"
#include "noise/trajectory.h"
#include "qdsim/circuit.h"
#include "qdsim/gate_library.h"
#include "qdsim/ir/ir.h"
#include "qdsim/obs/counters.h"
#include "qdsim/simulator.h"
#include "qdsim/verify/verify.h"

namespace qd {
namespace {

Circuit
qutrit_workload(int layers = 2)
{
    Circuit c(WireDims::uniform(2, 3));
    for (int l = 0; l < layers; ++l) {
        c.append(gates::H3(), {0});
        c.append(gates::H3(), {1});
        c.append(gates::Xplus1().controlled(3, 1), {0, 1});
    }
    return c;
}

/** `base` with one bit flipped in the first op's matrix, (0, 0) entry. */
Circuit
flip_first_matrix_bit(const Circuit& base)
{
    Matrix m = base.ops()[0].gate.matrix();
    m(0, 0) = Complex(std::bit_cast<double>(
                          std::bit_cast<std::uint64_t>(m(0, 0).real()) ^ 1),
                      m(0, 0).imag());
    Circuit flipped(base.dims());
    flipped.append(gates::from_matrix(base.ops()[0].gate.name(),
                                      base.ops()[0].gate.dims(), m),
                   base.ops()[0].wires);
    for (std::size_t i = 1; i < base.num_ops(); ++i) {
        flipped.append(base.ops()[i].gate, base.ops()[i].wires);
    }
    return flipped;
}

Circuit
non_unitary_circuit()
{
    Matrix m = Matrix::identity(2);
    m(0, 0) = Complex(0.5, 0);  // breaks unitarity, keeps legality
    Circuit c(WireDims::uniform(1, 2));
    c.append(gates::from_matrix("damp", {2}, std::move(m)), {0});
    return c;
}

/** Scoped obs enable that restores the previous setting. */
class ScopedObs {
  public:
    ScopedObs() : was_(obs::enabled())
    {
        obs::set_enabled(true);
        obs::reset_counters();
    }
    ~ScopedObs() { obs::set_enabled(was_); }

  private:
    bool was_;
};

TEST(CompileService, ResubmissionSharesTheArtifact)
{
    exec::CompileService service;
    ScopedObs obs;
    const Circuit circuit = qutrit_workload();
    const auto first = service.compile(circuit);
    const auto second = service.compile(circuit);
    EXPECT_EQ(first.get(), second.get());
    EXPECT_EQ(service.size(), 1u);
    // A structurally identical rebuild (different Circuit object, same
    // canonical bytes) hits too: keying is content-addressed.
    const auto rebuilt = service.compile(qutrit_workload());
    EXPECT_EQ(first.get(), rebuilt.get());
    const auto snap = obs::counters_snapshot();
    EXPECT_EQ(snap[obs::Counter::kServiceMisses], 1u);
    EXPECT_EQ(snap[obs::Counter::kServiceHits], 2u);
    EXPECT_EQ(snap[obs::Counter::kServiceRejects], 0u);
}

TEST(CompileService, KeyingSeparatesEnginePlanAndNoise)
{
    exec::CompileService service;
    const Circuit circuit = qutrit_workload();
    const noise::NoiseModel sc = noise::sc();
    const noise::NoiseModel ti = noise::ti_qubit();

    const auto state = service.compile(circuit);
    const auto traj =
        service.compile(circuit, sc, exec::EngineKind::kTrajectory);
    const auto dens =
        service.compile(circuit, sc, exec::EngineKind::kDensity);
    EXPECT_NE(state.get(), traj.get());
    EXPECT_NE(traj.get(), dens.get());
    EXPECT_EQ(service.size(), 3u);

    // A different fusion plan is a different artifact...
    exec::FusionOptions narrow;
    narrow.max_block = 9;
    ASSERT_NE(narrow.plan_salt(), exec::FusionOptions{}.plan_salt());
    EXPECT_NE(service.compile(circuit, narrow).get(), state.get());

    // ...and so is a different noise model.
    EXPECT_NE(
        service.compile(circuit, ti, exec::EngineKind::kTrajectory).get(),
        traj.get());

    // But the model NAME is a label, not semantics: renaming hits.
    noise::NoiseModel renamed = sc;
    renamed.name = "SC-RENAMED";
    EXPECT_EQ(exec::noise_model_hash(renamed), exec::noise_model_hash(sc));
    EXPECT_EQ(
        service.compile(circuit, renamed, exec::EngineKind::kTrajectory)
            .get(),
        traj.get());

    // Each numeric field alone moves the hash.
    std::vector<noise::NoiseModel> moved(9, sc);
    moved[0].p1 *= 2;
    moved[1].p2 *= 2;
    moved[2].convention =
        sc.convention == noise::GateErrorConvention::kPerChannel
            ? noise::GateErrorConvention::kTotal
            : noise::GateErrorConvention::kPerChannel;
    moved[3].t1 *= 2;
    moved[4].decay_rates.push_back(1e3);
    moved[5].decay_rates = moved[4].decay_rates;
    moved[5].decay_rates[0] *= 2;
    moved[6].dt_1q *= 2;
    moved[7].dt_2q *= 2;
    moved[8].dephasing_sigma += 1;
    for (std::size_t i = 0; i < moved.size(); ++i) {
        EXPECT_NE(exec::noise_model_hash(moved[i]),
                  exec::noise_model_hash(sc))
            << "field " << i;
    }
    EXPECT_NE(exec::noise_model_hash(moved[5]),
              exec::noise_model_hash(moved[4]));
}

TEST(CompileService, ArtifactRecordsItsKeyAndPayload)
{
    exec::CompileService service;
    const Circuit circuit = qutrit_workload();
    exec::FusionOptions fusion;
    fusion.max_block = 9;
    const noise::NoiseModel model = noise::sc();

    const auto state = service.compile(circuit, fusion);
    EXPECT_EQ(state->engine, exec::EngineKind::kState);
    EXPECT_EQ(state->circuit_hash, ir::circuit_hash(circuit));
    EXPECT_EQ(state->plan_salt, fusion.plan_salt());
    EXPECT_EQ(state->noise_hash, 0u);
    EXPECT_NE(state->state, nullptr);
    EXPECT_EQ(state->trajectory, nullptr);
    EXPECT_EQ(state->density, nullptr);

    const auto traj = service.compile(circuit, model,
                                      exec::EngineKind::kTrajectory, fusion);
    EXPECT_EQ(traj->engine, exec::EngineKind::kTrajectory);
    EXPECT_EQ(traj->noise_hash, exec::noise_model_hash(model));
    EXPECT_EQ(traj->state, nullptr);
    EXPECT_NE(traj->trajectory, nullptr);

    const auto dens = service.compile(circuit, model,
                                      exec::EngineKind::kDensity, fusion);
    EXPECT_NE(dens->density, nullptr);
}

TEST(CompileService, DecodedCircuitHitsTheInProcessArtifact)
{
    exec::CompileService service;
    ScopedObs obs;
    const Circuit circuit = qutrit_workload();
    const auto first = service.compile(circuit);
    // Fresh payloads from the decoder, one per distinct gate: the same
    // content, so the same key and an equal tie-break comparison.
    const Circuit decoded = ir::circuit_from_qdj(ir::to_qdj(circuit));
    ASSERT_FALSE(decoded.ops()[0].gate.same_payload(circuit.ops()[0].gate));
    EXPECT_TRUE(ir::same_content(first->entry->circuit(), decoded));
    EXPECT_EQ(service.compile(decoded).get(), first.get());
    EXPECT_EQ(obs::counters_snapshot()[obs::Counter::kServiceHits], 1u);
}

TEST(CompileService, TieBreakSeparatesNearMisses)
{
    exec::CompileService service;
    const Circuit base = qutrit_workload();
    const auto artifact = service.compile(base);

    // One flipped bit in one matrix entry, a swapped wire pair, and an
    // extra idle wire: each is its own artifact, and the comparison the
    // service breaks hash ties with tells each apart from the cached
    // circuit.
    Circuit flipped = flip_first_matrix_bit(base);
    Circuit swapped(base.dims());
    Circuit widened(WireDims::uniform(3, 3));
    for (std::size_t i = 0; i < base.num_ops(); ++i) {
        const Operation& op = base.ops()[i];
        swapped.append(op.gate, op.wires.size() == 2
                                    ? std::vector<int>{op.wires[1],
                                                       op.wires[0]}
                                    : op.wires);
        widened.append(op.gate, op.wires);
    }
    for (const Circuit* other : {&flipped, &swapped, &widened}) {
        EXPECT_FALSE(ir::same_content(artifact->entry->circuit(), *other));
        EXPECT_NE(ir::circuit_hash(*other), artifact->circuit_hash);
        EXPECT_NE(service.compile(*other).get(), artifact.get());
    }
    EXPECT_EQ(service.size(), 4u);
    EXPECT_EQ(service.compile(base).get(), artifact.get());
}

TEST(CompileService, ConcurrentSubmissionsOfSharedGates)
{
    // Four threads hash and compile one decoded circuit whose ops share
    // gate payloads: the lazily cached digests are written and read
    // across threads (the daemon's pattern, run under TSan in CI).
    exec::CompileService service;
    const Circuit decoded =
        ir::circuit_from_qdj(ir::to_qdj(qutrit_workload(3)));
    std::vector<std::uint64_t> hashes(4);
    std::vector<std::shared_ptr<const exec::CompiledArtifact>> artifacts(4);
    std::vector<std::thread> threads;
    for (std::size_t t = 0; t < hashes.size(); ++t) {
        threads.emplace_back([&, t] {
            hashes[t] = ir::circuit_hash(decoded);
            artifacts[t] = service.compile(decoded);
        });
    }
    for (std::thread& t : threads) {
        t.join();
    }
    for (std::size_t t = 1; t < hashes.size(); ++t) {
        EXPECT_EQ(hashes[t], hashes[0]);
        EXPECT_EQ(artifacts[t].get(), service.compile(decoded).get());
    }
    EXPECT_EQ(service.size(), 1u);
}

TEST(CompileService, LruEvictionPastCapacity)
{
    exec::CompileService service(2);
    ScopedObs obs;
    EXPECT_EQ(service.capacity(), 2u);
    const auto a = service.compile(qutrit_workload(1));
    const auto b = service.compile(qutrit_workload(2));
    (void)service.compile(a->entry->circuit());  // touch a: b is now LRU
    const auto c = service.compile(qutrit_workload(3));
    EXPECT_EQ(service.size(), 2u);
    // a survived (recently used), b was evicted.
    EXPECT_EQ(service.compile(a->entry->circuit()).get(), a.get());
    EXPECT_NE(service.compile(b->entry->circuit()).get(), b.get());
    const auto snap = obs::counters_snapshot();
    EXPECT_GE(snap[obs::Counter::kServiceEvictions], 1u);
    // Evicted artifacts stay valid for outstanding holders.
    EXPECT_NO_THROW((void)simulate(*b->state));
}

TEST(CompileService, ClearDropsArtifactsButNotHolders)
{
    exec::CompileService service;
    const auto a = service.compile(qutrit_workload());
    EXPECT_EQ(service.size(), 1u);
    service.clear();
    EXPECT_EQ(service.size(), 0u);
    EXPECT_NO_THROW((void)simulate(*a->state));
    EXPECT_NE(service.compile(qutrit_workload()).get(), a.get());
}

TEST(CompileService, AlwaysAdmissionRejectsNonUnitary)
{
    exec::CompileService service;
    ScopedObs obs;
    const Circuit bad = non_unitary_circuit();
    // Trusted default admission accepts it (outside strict mode)...
    EXPECT_NO_THROW((void)service.compile(bad));
    // ...but the untrusted-IR gate rejects with the structured report.
    try {
        (void)service.compile(bad, {}, exec::Admission::kAlways);
        FAIL() << "kAlways admitted a non-unitary gate";
    } catch (const verify::VerificationError& e) {
        EXPECT_TRUE(e.report().has_rule("circuit.non-unitary"));
        EXPECT_TRUE(e.report().has_errors());
    }
    EXPECT_GE(obs::counters_snapshot()[obs::Counter::kServiceRejects], 1u);
}

TEST(CompileService, CacheHitUnderStricterAdmissionReverifies)
{
    exec::CompileService service;
    const Circuit bad = non_unitary_circuit();
    // Admit and cache under the escape hatch...
    const auto artifact =
        service.compile(bad, {}, exec::Admission::kNever);
    ASSERT_NE(artifact, nullptr);
    EXPECT_EQ(service.size(), 1u);
    // ...a later untrusted submission of the same circuit must NOT ride
    // the cached artifact past the gate.
    EXPECT_THROW((void)service.compile(bad, {}, exec::Admission::kAlways),
                 verify::VerificationError);
}

TEST(CompileService, StrictModeGatesDefaultAdmission)
{
    exec::CompileService service;
    const Circuit good = qutrit_workload();
    verify::set_strict(true);
    // Strict default admission runs the analyze gate (dead-code off,
    // non-unitary a warning): clean circuits pass, and the artifact is
    // marked verified.
    EXPECT_NO_THROW((void)service.compile(good));
    verify::clear_strict();
}

TEST(CompileService, AdmissionReportMatchesRejection)
{
    const Circuit bad = non_unitary_circuit();
    const verify::Report always = exec::CompileService::admission_report(
        bad, exec::Admission::kAlways);
    EXPECT_TRUE(always.has_rule("circuit.non-unitary"));
    EXPECT_TRUE(always.has_errors());
    const Circuit good = qutrit_workload();
    EXPECT_FALSE(exec::CompileService::admission_report(
                     good, exec::Admission::kAlways)
                     .has_errors());
    // With a model, the noise audit runs too and a clean workload stays
    // clean.
    EXPECT_FALSE(exec::CompileService::admission_report(
                     good, noise::sc(), exec::Admission::kAlways)
                     .has_errors());
}

TEST(CompileService, GlobalInstanceIsShared)
{
    exec::CompileService& g = exec::CompileService::global();
    g.clear();
    const auto a = g.compile(qutrit_workload());
    EXPECT_EQ(g.compile(qutrit_workload()).get(), a.get());
    EXPECT_GE(g.size(), 1u);
    g.clear();
    EXPECT_EQ(g.size(), 0u);
}

// ------------------------------------------------------- circuit tier ---

TEST(CompileServiceTier, Figure11BarsShareOneEntryPerCircuit)
{
    // The 16 bars of paper Figure 11 at width 4, each decoded afresh as a
    // served sweep submits them, through one service.
    using ctor::Method;
    struct Bar {
        Method method;
        noise::NoiseModel model;
    };
    std::vector<Bar> bars;
    for (const Method m : {Method::kQubitNoAncilla,
                           Method::kQubitDirtyAncilla, Method::kQutrit}) {
        for (const noise::NoiseModel& model :
             noise::superconducting_models()) {
            bars.push_back({m, model});
        }
    }
    bars.push_back({Method::kQubitNoAncilla, noise::ti_qubit()});
    bars.push_back({Method::kQubitDirtyAncilla, noise::ti_qubit()});
    bars.push_back({Method::kQutrit, noise::bare_qutrit()});
    bars.push_back({Method::kQutrit, noise::dressed_qutrit()});

    exec::CompileService service;
    ScopedObs obs;
    std::map<Method, Circuit> circuits;
    std::map<Method, const exec::CompiledCircuit*> ideal_of;
    noise::TrajectoryOptions options;
    options.trials = 8;
    options.seed = 11;
    options.threads = 2;
    options.keep_per_trial = true;
    for (const Bar& bar : bars) {
        const Circuit& built =
            circuits.try_emplace(bar.method,
                                 ctor::build_gen_toffoli(bar.method, 3)
                                     .circuit)
                .first->second;
        const std::string label =
            ctor::method_label(bar.method) + "/" + bar.model.name;
        const auto artifact = service.compile(
            ir::circuit_from_qdj(ir::to_qdj(built)), bar.model,
            exec::EngineKind::kTrajectory, {}, exec::Admission::kAlways);
        const noise::TrajectoryCompilation standalone(built, bar.model);
        EXPECT_EQ(
            noise::run_noisy_trials(*artifact->trajectory, options).per_trial,
            noise::run_noisy_trials(standalone, options).per_trial)
            << label;
        // Every bar of one construction runs the entry's fused circuit.
        const exec::CompiledCircuit* ideal = &artifact->trajectory->ideal();
        EXPECT_EQ(ideal, artifact->entry->ideal().get()) << label;
        EXPECT_EQ(ideal_of.try_emplace(bar.method, ideal).first->second,
                  ideal)
            << label;
    }
    // ...which is also the circuit's state artifact.
    for (const auto& [method, circuit] : circuits) {
        EXPECT_EQ(service.compile(circuit)->state.get(), ideal_of.at(method))
            << ctor::method_label(method);
    }
    const auto snap = obs::counters_snapshot();
    EXPECT_EQ(snap[obs::Counter::kServiceMisses], bars.size() + 3);
    EXPECT_EQ(snap[obs::Counter::kServiceCircuitMisses], 3u);
    EXPECT_EQ(snap[obs::Counter::kServiceCircuitHits], bars.size());
}

TEST(CompileServiceTier, NearMissCircuitGetsItsOwnEntry)
{
    exec::CompileService service;
    const Circuit base = qutrit_workload();
    const Circuit flipped = flip_first_matrix_bit(base);
    const auto a =
        service.compile(base, noise::sc(), exec::EngineKind::kTrajectory);
    const auto b =
        service.compile(flipped, noise::sc(), exec::EngineKind::kTrajectory);
    EXPECT_NE(a->entry.get(), b->entry.get());
    EXPECT_TRUE(ir::same_content(b->entry->circuit(), flipped));
    // Another model of either circuit binds to that circuit's entry.
    EXPECT_EQ(service.compile(base, noise::sc_t1(),
                              exec::EngineKind::kTrajectory)
                  ->entry.get(),
              a->entry.get());
    EXPECT_EQ(service.compile(flipped, noise::sc_t1(),
                              exec::EngineKind::kDensity)
                  ->entry.get(),
              b->entry.get());
}

TEST(CompileServiceTier, ClearAndEvictionReleaseEntries)
{
    exec::CompileService service(1);
    std::weak_ptr<const exec::CircuitEntry> cleared;
    cleared = service.compile(qutrit_workload(1), noise::sc(),
                              exec::EngineKind::kTrajectory)
                  ->entry;
    EXPECT_FALSE(cleared.expired());  // the cached artifact holds it
    service.clear();
    EXPECT_TRUE(cleared.expired());

    std::weak_ptr<const exec::CircuitEntry> evicted =
        service.compile(qutrit_workload(2))->entry;
    EXPECT_FALSE(evicted.expired());
    // Capacity 1: this evicts the last artifact that holds the entry.
    (void)service.compile(qutrit_workload(3));
    EXPECT_TRUE(evicted.expired());

    // A caller's artifact keeps its entry alive past clear(), but the
    // cleared service compiles cold all the same.
    const auto held = service.compile(qutrit_workload(2));
    service.clear();
    EXPECT_NE(service.compile(qutrit_workload(2))->entry.get(),
              held->entry.get());
}

TEST(CompileServiceTier, ReportsAreKeptPerFencePatternAndLevel)
{
    exec::CompileService service;
    const Circuit circuit = qutrit_workload();
    noise::NoiseModel no_p1 = noise::sc();
    no_p1.p1 = 0;
    const auto fences = [&](const noise::NoiseModel& m) {
        return noise::error_fences(noise::enumerate_error_sites(circuit, m));
    };
    ASSERT_EQ(fences(noise::sc()), fences(noise::sc_t1()));
    ASSERT_NE(fences(noise::sc()), fences(no_p1));

    const auto first =
        service.compile(circuit, noise::sc(), exec::EngineKind::kTrajectory,
                        {}, exec::Admission::kAlways);
    const exec::CircuitEntry& entry = *first->entry;
    EXPECT_EQ(entry.num_reports(), 1u);
    // The same error sites: the kept report serves.
    (void)service.compile(circuit, noise::sc_t1(),
                          exec::EngineKind::kTrajectory, {},
                          exec::Admission::kAlways);
    EXPECT_EQ(entry.num_reports(), 1u);
    // p1 = 0 drops the one-qutrit sites: another fence pattern.
    (void)service.compile(circuit, no_p1, exec::EngineKind::kTrajectory, {},
                          exec::Admission::kAlways);
    EXPECT_EQ(entry.num_reports(), 2u);
    // Another admission level analyzes afresh too.
    verify::set_strict(true);
    (void)service.compile(circuit, noise::sc(), exec::EngineKind::kDensity);
    verify::clear_strict();
    EXPECT_EQ(entry.num_reports(), 3u);
    const verify::Report* kept =
        &entry.report(fences(noise::sc()), exec::Admission::kAlways);
    EXPECT_EQ(&entry.report(fences(noise::sc_t1()), exec::Admission::kAlways),
              kept);
    EXPECT_NE(&entry.report(fences(no_p1), exec::Admission::kAlways), kept);
    EXPECT_NE(&entry.report(fences(noise::sc()), exec::Admission::kDefault),
              kept);
    EXPECT_EQ(entry.num_reports(), 3u);

    // A non-unitary gate passes trusted admission, so its entry lives;
    // untrusted admission then rejects it under every model with the
    // report the static admission_report gives.
    const Circuit bad = non_unitary_circuit();
    const auto trusted = service.compile(bad, {}, exec::Admission::kNever);
    std::vector<noise::NoiseModel> models = noise::superconducting_models();
    models.push_back(noise::ti_qubit());
    models.push_back(no_p1);
    for (const noise::NoiseModel& m : models) {
        try {
            (void)service.compile(bad, m, exec::EngineKind::kTrajectory, {},
                                  exec::Admission::kAlways);
            ADD_FAILURE() << m.name << " admitted a non-unitary gate";
        } catch (const verify::VerificationError& e) {
            EXPECT_TRUE(e.report().has_rule("circuit.non-unitary"));
            EXPECT_EQ(e.report().to_json(),
                      exec::CompileService::admission_report(
                          bad, m, exec::Admission::kAlways)
                          .to_json())
                << m.name;
        }
    }
    EXPECT_EQ(trusted->entry->num_reports(), 2u);
}

TEST(CompileServiceTier, ConcurrentModelsShareOneEntry)
{
    // Four threads compile the four SC models of one decoded circuit at
    // once (run under TSan in CI): the losers of the race to build the
    // entry adopt the winner's.
    exec::CompileService service;
    const Circuit decoded =
        ir::circuit_from_qdj(ir::to_qdj(qutrit_workload(3)));
    const std::vector<noise::NoiseModel> models =
        noise::superconducting_models();
    std::vector<std::shared_ptr<const exec::CompiledArtifact>> artifacts(
        models.size());
    std::vector<std::thread> threads;
    for (std::size_t t = 0; t < models.size(); ++t) {
        threads.emplace_back([&, t] {
            artifacts[t] =
                service.compile(decoded, models[t],
                                exec::EngineKind::kTrajectory, {},
                                exec::Admission::kAlways);
        });
    }
    for (std::thread& t : threads) {
        t.join();
    }
    EXPECT_EQ(service.size(), models.size());
    for (const auto& artifact : artifacts) {
        EXPECT_EQ(artifact->entry.get(), artifacts[0]->entry.get());
        EXPECT_EQ(&artifact->trajectory->ideal(),
                  artifacts[0]->entry->ideal().get());
    }
}

// ------------------------------------------------ service/direct parity ---

bool
bitwise_equal(const StateVector& a, const StateVector& b)
{
    return a.size() == b.size() &&
           std::memcmp(a.amplitudes().data(), b.amplitudes().data(),
                       a.amplitudes().size() * sizeof(Complex)) == 0;
}

TEST(CompileServiceParity, StateEngine)
{
    exec::CompileService service;
    const Circuit circuit = qutrit_workload();
    const auto artifact = service.compile(circuit);
    const exec::CompiledCircuit direct(circuit);
    EXPECT_TRUE(bitwise_equal(simulate(*artifact->state),
                              simulate(direct)));
}

TEST(CompileServiceParity, TrajectoryEngine)
{
    exec::CompileService service;
    const Circuit circuit = qutrit_workload();
    const noise::NoiseModel model = noise::sc();
    const auto artifact =
        service.compile(circuit, model, exec::EngineKind::kTrajectory);
    const noise::TrajectoryCompilation direct(circuit, model);
    noise::TrajectoryOptions options;
    options.trials = 30;
    options.seed = 7;
    options.keep_per_trial = true;
    const auto via_service =
        noise::run_noisy_trials(*artifact->trajectory, options);
    const auto via_direct = noise::run_noisy_trials(direct, options);
    EXPECT_EQ(via_service.mean_fidelity, via_direct.mean_fidelity);
    EXPECT_EQ(via_service.std_error, via_direct.std_error);
    EXPECT_EQ(via_service.per_trial, via_direct.per_trial);
    // And the public circuit-level entry point routes through the global
    // service to the same bitwise result.
    exec::CompileService::global().clear();
    const auto via_entry = noise::run_noisy_trials(circuit, model, options);
    EXPECT_EQ(via_entry.per_trial, via_direct.per_trial);
}

TEST(CompileServiceParity, DensityEngine)
{
    exec::CompileService service;
    const Circuit circuit = qutrit_workload();
    const noise::NoiseModel model = noise::sc();
    const auto artifact =
        service.compile(circuit, model, exec::EngineKind::kDensity);
    const noise::DensityCompilation direct(circuit, model);
    const StateVector initial(circuit.dims());
    EXPECT_EQ(noise::density_matrix_fidelity(*artifact->density, initial),
              noise::density_matrix_fidelity(direct, initial));
    exec::CompileService::global().clear();
    EXPECT_EQ(noise::density_matrix_fidelity(circuit, model, initial),
              noise::density_matrix_fidelity(direct, initial));
}

}  // namespace
}  // namespace qd
