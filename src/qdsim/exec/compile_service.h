/**
 * @file compile_service.h
 * The single compile path behind every execution entry point: a
 * cross-request artifact cache keyed by
 *
 *     (engine kind, ir::circuit_hash, FusionOptions::plan_salt(),
 *      noise-model hash)
 *
 * where ir::circuit_hash is O(ops) over the gates' cached digests, and a
 * hash match counts as a hit only if ir::same_content finds the cached
 * artifact's circuit equal to the submitted one (dims, wires, matrix
 * bits), so a collision recompiles instead of running the wrong circuit.
 * Neither a hit nor a miss serializes the circuit.
 *
 * The service verifies circuits at admission (verify::analyze as the gate,
 * structured rejection carrying the verify Report) and hands out shared
 * immutable CompiledArtifacts. `simulate()`, `run_noisy_trials()` and
 * `density_matrix_fidelity()` all consume artifacts from here, so a
 * repeated submission — the simulation-as-a-service traffic pattern —
 * compiles once and executes many times. Cache traffic is observable
 * through the obs counters service_hits / service_misses /
 * service_evictions / service_rejects.
 *
 * Admission levels:
 *   kDefault  trusted in-process circuits: verify only under strict mode
 *             (QD_VERIFY=strict), with the same options `verify::enforce`
 *             uses — behavior-compatible with the pre-service entry
 *             points.
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
 * One compiled, immutable execution artifact. Exactly one of the engine
 * payloads is set, matching `engine`. Shared freely across threads; the
 * verification flags are the only mutable state.
 */
struct CompiledArtifact {
    EngineKind engine = EngineKind::kState;
    std::uint64_t circuit_hash = 0;
    std::uint64_t noise_hash = 0;
    Index plan_salt = 0;
    Circuit circuit;            ///< the admitted source circuit
    FusionOptions fusion;

    std::shared_ptr<const CompiledCircuit> state;
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
    /** Drops every cached artifact (outstanding shared_ptrs stay valid). */
    void clear();
    std::size_t capacity() const { return capacity_; }

    /**
     * The verify options the admission gate analyzes under, exposed so
     * tools (qd_lint) lint untrusted IR through the exact same path the
     * service admits it. kAlways lints dead code and rejects non-unitary
     * gates; kDefault/kNever mirror verify::enforce (dead-code off,
     * non-unitary downgraded to a warning).
     */
    static verify::Options admission_options(
        Admission admission, const FusionOptions& fusion = {},
        std::vector<std::uint8_t> fences = {});

    /**
     * Runs the admission analysis without compiling or caching: circuit
     * legality + plan/fusion audits, plus the noise audit when a model is
     * given (with its error fences applied, exactly as the density engine
     * fences; the trajectory engine's noisy program has none). This is
     * the report a rejected compile() throws with.
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

    mutable std::mutex mu_;
    std::map<Key, Entry> cache_;
    std::uint64_t tick_ = 0;
    std::size_t capacity_;
};

}  // namespace qd::exec

#endif  // QDSIM_EXEC_COMPILE_SERVICE_H
