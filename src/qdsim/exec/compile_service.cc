#include "qdsim/exec/compile_service.h"

#include <bit>

#include "noise/density_matrix.h"
#include "noise/error_placement.h"
#include "noise/noise_model.h"
#include "noise/trajectory.h"
#include "qdsim/ir/ir.h"
#include "qdsim/obs/counters.h"
#include "qdsim/verify/noise_audit.h"

namespace qd::exec {

namespace {

void
mix(std::uint64_t& h, std::uint64_t v)
{
    for (int i = 0; i < 8; ++i) {
        h ^= (v >> (8 * i)) & 0xFF;
        h *= 1099511628211ULL;
    }
}

void
mix_real(std::uint64_t& h, Real v)
{
    mix(h, std::bit_cast<std::uint64_t>(v));
}

/** True once the artifact has passed the given admission strength. */
std::atomic<bool>&
verified_flag(const CompiledArtifact& artifact, Admission admission)
{
    return admission == Admission::kAlways ? artifact.verified_always
                                           : artifact.verified_default;
}

/** Verifies a cached artifact at a strength it has not passed yet. */
void
run_admission_on(const CompiledArtifact& artifact,
                 const noise::NoiseModel* model, Admission admission)
{
    const verify::Report report =
        model != nullptr
            ? CompileService::admission_report(artifact.circuit, *model,
                                               admission, artifact.fusion)
            : CompileService::admission_report(artifact.circuit, admission,
                                               artifact.fusion);
    if (report.has_errors()) {
        obs::count(obs::Counter::kServiceRejects);
        throw verify::VerificationError(report);
    }
    verified_flag(artifact, admission).store(true,
                                             std::memory_order_release);
}

}  // namespace

std::uint64_t
noise_model_hash(const noise::NoiseModel& model)
{
    std::uint64_t h = 1469598103934665603ULL;
    mix_real(h, model.p1);
    mix_real(h, model.p2);
    mix(h, static_cast<std::uint64_t>(model.convention));
    mix_real(h, model.t1);
    mix(h, model.decay_rates.size());
    for (const Real r : model.decay_rates) {
        mix_real(h, r);
    }
    mix_real(h, model.dt_1q);
    mix_real(h, model.dt_2q);
    mix_real(h, model.dephasing_sigma);
    // 0 means "no model" in the cache key; remap the (vanishingly
    // unlikely) collision instead of aliasing an ideal compile.
    return h == 0 ? 1 : h;
}

verify::Options
CompileService::admission_options(Admission admission,
                                  const FusionOptions& fusion,
                                  std::vector<std::uint8_t> fences)
{
    verify::Options options;
    options.fusion = fusion;
    options.fences = std::move(fences);
    if (admission == Admission::kAlways) {
        // Untrusted IR: lint dead code too (warnings, not rejections) and
        // reject non-unitary gates — a service endpoint must not execute a
        // "circuit" that is not one.
        options.dead_code = true;
        options.allow_nonunitary = false;
    } else {
        // Mirror verify::enforce: the in-process entry points execute
        // non-unitary matrices by design (Kraus operators, linearity
        // tests) and dead code is the transpiler's business.
        options.dead_code = false;
        options.allow_nonunitary = true;
    }
    return options;
}

verify::Report
CompileService::admission_report(const Circuit& circuit, Admission admission,
                                 const FusionOptions& fusion)
{
    return verify::analyze(circuit, admission_options(admission, fusion));
}

verify::Report
CompileService::admission_report(const Circuit& circuit,
                                 const noise::NoiseModel& model,
                                 Admission admission,
                                 const FusionOptions& fusion)
{
    // Fence exactly as the noisy engines fence, so the fusion audit sees
    // the partition the compile below will actually produce.
    std::vector<std::uint8_t> fences =
        noise::error_fences(noise::enumerate_error_sites(circuit, model));
    verify::Report report = verify::analyze(
        circuit,
        admission_options(admission, fusion, std::move(fences)));
    report.merge(verify::analyze_noise(model, circuit.dims()));
    return report;
}

CompileService::CompileService(std::size_t capacity)
    : capacity_(capacity == 0 ? 1 : capacity) {}

CompileService::~CompileService() = default;

std::shared_ptr<const CompiledArtifact>
CompileService::compile(const Circuit& circuit, const FusionOptions& fusion,
                        Admission admission, bool* cache_hit)
{
    return compile_impl(circuit, nullptr, EngineKind::kState, fusion,
                        admission, cache_hit);
}

std::shared_ptr<const CompiledArtifact>
CompileService::compile(const Circuit& circuit,
                        const noise::NoiseModel& model, EngineKind engine,
                        const FusionOptions& fusion, Admission admission,
                        bool* cache_hit)
{
    if (engine == EngineKind::kState) {
        throw std::invalid_argument(
            "CompileService: the state engine takes no noise model");
    }
    return compile_impl(circuit, &model, engine, fusion, admission,
                        cache_hit);
}

std::size_t
CompileService::size() const
{
    const std::lock_guard<std::mutex> lock(mu_);
    return cache_.size();
}

void
CompileService::clear()
{
    const std::lock_guard<std::mutex> lock(mu_);
    cache_.clear();
}

CompileService&
CompileService::global()
{
    // Leaked intentionally: artifacts may be referenced from other
    // statics, so the cache must survive until process exit.
    static CompileService* instance = new CompileService();
    return *instance;
}

std::shared_ptr<const CompiledArtifact>
CompileService::compile_impl(const Circuit& circuit,
                             const noise::NoiseModel* model,
                             EngineKind engine, const FusionOptions& fusion,
                             Admission admission, bool* cache_hit)
{
    if (cache_hit != nullptr) {
        *cache_hit = false;
    }
    const bool verify_now =
        admission == Admission::kAlways ||
        (admission == Admission::kDefault && verify::strict());

    const Key key{engine, ir::circuit_hash(circuit), fusion.plan_salt(),
                  model != nullptr ? noise_model_hash(*model) : 0};

    std::shared_ptr<const CompiledArtifact> artifact;
    {
        const std::lock_guard<std::mutex> lock(mu_);
        const auto it = cache_.find(key);
        if (it != cache_.end()) {
            it->second.last_use = ++tick_;
            artifact = it->second.artifact;
        }
    }
    // The tie-break runs outside the lock; a colliding entry is a miss.
    if (artifact && !ir::same_content(artifact->circuit, circuit)) {
        artifact.reset();
    }
    if (artifact) {
        if (cache_hit != nullptr) {
            *cache_hit = true;
        }
        obs::count(obs::Counter::kServiceHits);
        if (verify_now && !verified_flag(*artifact, admission).load(
                              std::memory_order_acquire)) {
            run_admission_on(*artifact, model, admission);
        }
        return artifact;
    }

    obs::count(obs::Counter::kServiceMisses);
    if (verify_now) {
        const verify::Report report =
            model != nullptr
                ? admission_report(circuit, *model, admission, fusion)
                : admission_report(circuit, admission, fusion);
        if (report.has_errors()) {
            obs::count(obs::Counter::kServiceRejects);
            throw verify::VerificationError(report);
        }
    }

    // Compile outside the lock: concurrent submissions of different
    // circuits must not serialize on each other's compile time.
    auto built = std::make_shared<CompiledArtifact>();
    built->engine = engine;
    built->circuit_hash = key.circuit_hash;
    built->noise_hash = key.noise_hash;
    built->plan_salt = key.plan_salt;
    built->circuit = circuit;
    built->fusion = fusion;
    switch (engine) {
    case EngineKind::kState:
        built->state = std::make_shared<const CompiledCircuit>(circuit,
                                                               fusion);
        break;
    case EngineKind::kTrajectory:
        built->trajectory = std::make_shared<const noise::TrajectoryCompilation>(
            circuit, *model, fusion);
        break;
    case EngineKind::kDensity:
        built->density = std::make_shared<const noise::DensityCompilation>(
            circuit, *model, fusion);
        break;
    }
    if (verify_now) {
        verified_flag(*built, admission).store(true,
                                               std::memory_order_release);
        if (admission == Admission::kAlways) {
            // kAlways analysis is a strict superset of the kDefault one.
            built->verified_default.store(true, std::memory_order_release);
        }
    }

    {
        const std::lock_guard<std::mutex> lock(mu_);
        auto [it, inserted] = cache_.try_emplace(key);
        if (!inserted &&
            ir::same_content(it->second.artifact->circuit, circuit)) {
            // Another thread compiled the same circuit first; share theirs.
            it->second.last_use = ++tick_;
            return it->second.artifact;
        }
        it->second.artifact = built;
        it->second.last_use = ++tick_;
        while (cache_.size() > capacity_) {
            auto victim = cache_.begin();
            for (auto c = cache_.begin(); c != cache_.end(); ++c) {
                if (c->second.last_use < victim->second.last_use) {
                    victim = c;
                }
            }
            cache_.erase(victim);
            obs::count(obs::Counter::kServiceEvictions);
        }
    }
    return built;
}

}  // namespace qd::exec
