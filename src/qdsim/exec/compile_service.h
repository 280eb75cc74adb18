/**
 * @file compile_service.h
 * The single compile path behind every execution entry point, in two
 * tiers.
 *
 * The artifact tier caches shared immutable CompiledArtifacts across
 * requests, keyed by
 *
 *     (engine kind, ir::circuit_hash, FusionOptions::plan_salt(),
 *      noise-model hash)
 *
 * with LRU eviction past `capacity` artifacts. A hit skips compile and
 * admission, and the serving layer reports it as a warm job.
 *
 * The circuit tier serves the artifact misses. Its CircuitEntry, keyed by
 * (ir::circuit_hash, plan_salt), holds what every engine and noise model
 * of one circuit shares: the circuit, its fused CompiledCircuit (the
 * state engine's artifact, and the trajectory engine's ideal reference),
 * one thread-safe PlanCache that every compilation of the circuit takes
 * its plans from, and the circuit's admission reports. A noisy compile
 * then runs only its model's own work on top: analyze_noise and the
 * engine's programs. So a sweep of one circuit over several noise models
 * (paper Figure 11) fuses and audits each circuit once.
 *
 * In both tiers a hash match counts only if ir::same_content finds the
 * cached circuit equal to the submitted one (dims, wires, matrix bits),
 * so a collision recompiles instead of running the wrong circuit. Gate
 * names are labels, not content: a report names the gates as the entry's
 * first submission named them, as an artifact hit always has. Neither a
 * hit nor a miss serializes the circuit.
 *
 * Lifetime: every artifact holds its entry, and the tier's index holds
 * weak references only, so an entry lives exactly as long as some
 * artifact, cached or held by a caller, uses it. clear() and LRU eviction
 * release entries with their artifacts, and clear() also empties the
 * index, so a cleared service compiles cold.
 *
 * The circuit report is verify::analyze of the circuit under the
 * admission level's options (legality, dead code under kAlways, domain
 * lint, and the plan and fusion audits), with the fusion audit fenced at
 * the model's error sites, as the density engine fences (the state
 * engine has no fences). An entry keeps one report per (fence pattern,
 * admission level): models whose error sites coincide share it, while a
 * model with another pattern (p1 = 0, say) or a stricter level gets its
 * own. A noisy admission merges analyze_noise(model) after it, so ids and
 * finding order are those of the static admission_report.
 *
 * `simulate()`, `run_noisy_trials()` and `density_matrix_fidelity()` all
 * consume artifacts from here, so a repeated submission (the
 * simulation-as-a-service traffic pattern) compiles once and executes many
 * times. Cache traffic is observable through the obs counters
 * service_hits / service_misses / service_evictions / service_rejects
 * (artifacts) and service_circuit_hits / service_circuit_misses (the
 * circuit tier, looked up on each artifact miss).
 *
 * Admission levels:
 *   kDefault  trusted in-process circuits: verify only under strict mode
 *             (QD_VERIFY=strict), with dead-code lint off and non-unitary
 *             gates downgraded to a warning. This is the one strict-mode
 *             gate of the circuit-taking entry points.
 *   kAlways   untrusted IR (qd_run / service front-ends): always verify,
 *             with dead-code lint on and non-unitary gates rejected.
 *   kNever    never verify (precompiled-trust escape hatch).
 */
#ifndef QDSIM_EXEC_COMPILE_SERVICE_H
#define QDSIM_EXEC_COMPILE_SERVICE_H

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <span>
#include <utility>
#include <vector>

#include "qdsim/circuit.h"
#include "qdsim/exec/compiled_circuit.h"
#include "qdsim/exec/fusion.h"
#include "qdsim/verify/verify.h"

namespace qd::noise {
struct NoiseModel;
class TrajectoryCompilation;
class DensityCompilation;
}  // namespace qd::noise

namespace qd::exec {

/** Which engine an artifact was compiled for. */
enum class EngineKind { kState, kTrajectory, kDensity };

/** When the verify admission gate runs (see file comment). */
enum class Admission { kDefault, kAlways, kNever };

/** Content hash of a noise model's numeric fields (the name is a label,
 *  not semantics, and is excluded). 0 is reserved for "no model". */
std::uint64_t noise_model_hash(const noise::NoiseModel& model);

/**
 * The circuit tier's entry: one admitted circuit under one FusionOptions,
 * with the compile work all its engines and noise models share (see the
 * file comment). The fused circuit and the reports are built on first
 * use; every member is safe to use from several threads at once.
 */
class CircuitEntry {
 public:
    CircuitEntry(const Circuit& circuit, const FusionOptions& fusion);
    ~CircuitEntry();

    const Circuit& circuit() const { return circuit_; }
    const FusionOptions& fusion() const { return fusion_; }

    /** The plan cache every compilation of this circuit shares. */
    PlanCache& plans() const { return plans_; }

    /** The circuit fused under fusion(), without fences, over plans(). */
    const std::shared_ptr<const CompiledCircuit>& ideal() const;

    /** verify::analyze under CompileService::admission_options(admission,
     *  fusion(), fences), kept per (fences, admission). */
    const verify::Report& report(std::span<const std::uint8_t> fences,
                                 Admission admission) const;

    /** Reports kept so far: distinct (fence pattern, admission) pairs. */
    std::size_t num_reports() const;

 private:
    struct KeptReport;

    Circuit circuit_;
    FusionOptions fusion_;
    mutable PlanCache plans_;
    mutable std::once_flag ideal_once_;
    mutable std::shared_ptr<const CompiledCircuit> ideal_;
    mutable std::mutex reports_mu_;
    mutable std::vector<std::unique_ptr<KeptReport>> reports_;
};

/**
 * One compiled, immutable execution artifact. Exactly one of the engine
 * payloads is set, matching `engine`. Shared freely across threads; the
 * verification flags are the only mutable state.
 */
struct CompiledArtifact {
    EngineKind engine = EngineKind::kState;
    std::uint64_t circuit_hash = 0;
    std::uint64_t noise_hash = 0;
    Index plan_salt = 0;
    /** The admitted circuit and the compile work shared with every other
     *  artifact of it. */
    std::shared_ptr<const CircuitEntry> entry;

    std::shared_ptr<const CompiledCircuit> state;  ///< entry->ideal()
    std::shared_ptr<const noise::TrajectoryCompilation> trajectory;
    std::shared_ptr<const noise::DensityCompilation> density;

    /** Which admission strengths this artifact has already passed, so a
     *  cache hit under a stricter admission re-verifies exactly once. */
    mutable std::atomic<bool> verified_default{false};
    mutable std::atomic<bool> verified_always{false};
};

class CompileService {
 public:
    static constexpr std::size_t kDefaultCapacity = 64;

    explicit CompileService(std::size_t capacity = kDefaultCapacity);
    ~CompileService();
    CompileService(const CompileService&) = delete;
    CompileService& operator=(const CompileService&) = delete;

    /** Compiles (or returns the cached artifact) for the state engine.
     *  `cache_hit` (optional) reports whether the request was served from
     *  a warm artifact — the serving layer's per-job warm/cold signal.
     *  @throws verify::VerificationError when admission rejects. */
    std::shared_ptr<const CompiledArtifact> compile(
        const Circuit& circuit, const FusionOptions& fusion = {},
        Admission admission = Admission::kDefault,
        bool* cache_hit = nullptr);

    /** Compiles (or returns the cached artifact) for a noisy engine.
     *  `cache_hit` as above.
     *  @throws verify::VerificationError when admission rejects. */
    std::shared_ptr<const CompiledArtifact> compile(
        const Circuit& circuit, const noise::NoiseModel& model,
        EngineKind engine, const FusionOptions& fusion = {},
        Admission admission = Admission::kDefault,
        bool* cache_hit = nullptr);

    /** Artifacts currently cached. */
    std::size_t size() const;
    /** Drops every cached artifact and the circuit tier's index
     *  (outstanding shared_ptrs stay valid). */
    void clear();
    std::size_t capacity() const { return capacity_; }

    /**
     * The verify options the admission gate analyzes under, exposed so
     * tools (qd_lint) lint untrusted IR through the exact same path the
     * service admits it. kAlways lints dead code and rejects non-unitary
     * gates; kDefault/kNever turn dead-code lint off and downgrade
     * non-unitary gates to a warning.
     */
    static verify::Options admission_options(
        Admission admission, const FusionOptions& fusion = {},
        std::vector<std::uint8_t> fences = {});

    /**
     * Runs the admission analysis without compiling or caching: circuit
     * legality + plan/fusion audits, plus the noise audit when a model is
     * given (with its error fences applied, exactly as the density engine
     * fences; the trajectory engine's noisy program has none). This is
     * the report a rejected compile() throws with; compile() takes its
     * circuit part from the entry's kept reports.
     */
    static verify::Report admission_report(const Circuit& circuit,
                                           Admission admission =
                                               Admission::kAlways,
                                           const FusionOptions& fusion = {});
    static verify::Report admission_report(const Circuit& circuit,
                                           const noise::NoiseModel& model,
                                           Admission admission =
                                               Admission::kAlways,
                                           const FusionOptions& fusion = {});

    /** Process-wide instance the execution entry points share. */
    static CompileService& global();

 private:
    struct Key {
        EngineKind engine;
        std::uint64_t circuit_hash;
        Index plan_salt;
        std::uint64_t noise_hash;

        bool operator<(const Key& o) const
        {
            if (engine != o.engine) return engine < o.engine;
            if (circuit_hash != o.circuit_hash)
                return circuit_hash < o.circuit_hash;
            if (plan_salt != o.plan_salt) return plan_salt < o.plan_salt;
            return noise_hash < o.noise_hash;
        }
    };

    struct Entry {
        std::shared_ptr<const CompiledArtifact> artifact;
        std::uint64_t last_use = 0;
    };

    std::shared_ptr<const CompiledArtifact> compile_impl(
        const Circuit& circuit, const noise::NoiseModel* model,
        EngineKind engine, const FusionOptions& fusion, Admission admission,
        bool* cache_hit);

    /** The live entry of `circuit` under `fusion`, or a new one. */
    std::shared_ptr<const CircuitEntry> circuit_entry(
        const Circuit& circuit, std::uint64_t circuit_hash,
        const FusionOptions& fusion);

    mutable std::mutex mu_;
    std::map<Key, Entry> cache_;
    /** The circuit tier's index, (circuit_hash, plan_salt) -> entry. */
    std::map<std::pair<std::uint64_t, Index>,
             std::weak_ptr<const CircuitEntry>>
        circuits_;
    std::uint64_t tick_ = 0;
    std::size_t capacity_;
};

}  // namespace qd::exec

#endif  // QDSIM_EXEC_COMPILE_SERVICE_H
