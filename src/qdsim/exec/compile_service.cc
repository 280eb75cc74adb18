#include "qdsim/exec/compile_service.h"

#include <algorithm>
#include <bit>

#include "noise/density_matrix.h"
#include "noise/error_placement.h"
#include "noise/noise_model.h"
#include "noise/trajectory.h"
#include "qdsim/hash.h"
#include "qdsim/ir/ir.h"
#include "qdsim/obs/counters.h"
#include "qdsim/verify/noise_audit.h"

namespace qd::exec {

namespace {

/** True once the artifact has passed the given admission strength. */
std::atomic<bool>&
verified_flag(const CompiledArtifact& artifact, Admission admission)
{
    return admission == Admission::kAlways ? artifact.verified_always
                                           : artifact.verified_default;
}

/** The admission report of `entry`'s circuit under `model` (null: the
 *  state engine): the kept circuit report, fenced at the model's error
 *  sites, then the noise audit. */
verify::Report
report_of(const CircuitEntry& entry, const noise::NoiseModel* model,
          Admission admission)
{
    if (model == nullptr) {
        return entry.report({}, admission);
    }
    // Fence at the error sites. That is the density engine's partition
    // whenever every op draws a gate error (every preset) or the model
    // has no idle noise; otherwise the engine also fences before each op
    // that ends an idle stretch.
    verify::Report report = entry.report(
        noise::error_fences(
            noise::enumerate_error_sites(entry.circuit(), *model)),
        admission);
    report.merge(verify::analyze_noise(*model, entry.circuit().dims()));
    return report;
}

/** Throws the admission report if it holds an error. */
void
admit(const CircuitEntry& entry, const noise::NoiseModel* model,
      Admission admission)
{
    const verify::Report report = report_of(entry, model, admission);
    if (report.has_errors()) {
        obs::count(obs::Counter::kServiceRejects);
        throw verify::VerificationError(report);
    }
}

}  // namespace

std::uint64_t
noise_model_hash(const noise::NoiseModel& model)
{
    Hasher h;
    h.add(std::bit_cast<std::uint64_t>(model.p1));
    h.add(std::bit_cast<std::uint64_t>(model.p2));
    h.add(static_cast<std::uint64_t>(model.convention));
    h.add(std::bit_cast<std::uint64_t>(model.t1));
    h.add(model.decay_rates.size());
    for (const Real r : model.decay_rates) {
        h.add(std::bit_cast<std::uint64_t>(r));
    }
    h.add(std::bit_cast<std::uint64_t>(model.dt_1q));
    h.add(std::bit_cast<std::uint64_t>(model.dt_2q));
    h.add(std::bit_cast<std::uint64_t>(model.dephasing_sigma));
    // 0 means "no model" in the cache key; remap the (vanishingly
    // unlikely) collision instead of aliasing an ideal compile.
    const std::uint64_t hash = h.finish();
    return hash == 0 ? 1 : hash;
}

/** One kept circuit report and the (fences, admission) it answers. */
struct CircuitEntry::KeptReport {
    Admission admission = Admission::kDefault;
    std::uint64_t fence_hash = 0;
    std::vector<std::uint8_t> fences;
    std::once_flag once;
    verify::Report report;
};

CircuitEntry::CircuitEntry(const Circuit& circuit,
                           const FusionOptions& fusion)
    : circuit_(circuit), fusion_(fusion), plans_(circuit.dims()) {}

CircuitEntry::~CircuitEntry() = default;

const std::shared_ptr<const CompiledCircuit>&
CircuitEntry::ideal() const
{
    std::call_once(ideal_once_, [this] {
        ideal_ = std::make_shared<const CompiledCircuit>(
            circuit_, fusion_, std::span<const std::uint8_t>{}, &plans_);
    });
    return ideal_;
}

const verify::Report&
CircuitEntry::report(std::span<const std::uint8_t> fences,
                     Admission admission) const
{
    Hasher h;
    h.add_bytes(fences.data(), fences.size());
    const std::uint64_t fence_hash = h.finish();
    KeptReport* kept = nullptr;
    {
        const std::lock_guard<std::mutex> lock(reports_mu_);
        for (const auto& r : reports_) {
            if (r->admission == admission && r->fence_hash == fence_hash &&
                std::ranges::equal(r->fences, fences)) {
                kept = r.get();
                break;
            }
        }
        if (kept == nullptr) {
            auto fresh = std::make_unique<KeptReport>();
            fresh->admission = admission;
            fresh->fence_hash = fence_hash;
            fresh->fences.assign(fences.begin(), fences.end());
            kept = fresh.get();
            reports_.push_back(std::move(fresh));
        }
    }
    // Outside the lock: reports under other keys build concurrently, and
    // callers of this key wait for the first.
    std::call_once(kept->once, [&] {
        kept->report = verify::analyze(
            circuit_, CompileService::admission_options(admission, fusion_,
                                                        kept->fences));
    });
    return kept->report;
}

std::size_t
CircuitEntry::num_reports() const
{
    const std::lock_guard<std::mutex> lock(reports_mu_);
    return reports_.size();
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
        // The in-process entry points execute non-unitary matrices by
        // design (Kraus operators, linearity tests), and dead code is the
        // transpiler's business.
        options.dead_code = false;
        options.allow_nonunitary = true;
    }
    return options;
}

verify::Report
CompileService::admission_report(const Circuit& circuit, Admission admission,
                                 const FusionOptions& fusion)
{
    return report_of(CircuitEntry(circuit, fusion), nullptr, admission);
}

verify::Report
CompileService::admission_report(const Circuit& circuit,
                                 const noise::NoiseModel& model,
                                 Admission admission,
                                 const FusionOptions& fusion)
{
    return report_of(CircuitEntry(circuit, fusion), &model, admission);
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
    circuits_.clear();
}

CompileService&
CompileService::global()
{
    // Leaked intentionally: artifacts may be referenced from other
    // statics, so the cache must survive until process exit.
    static CompileService* instance = new CompileService();
    return *instance;
}

std::shared_ptr<const CircuitEntry>
CompileService::circuit_entry(const Circuit& circuit,
                              std::uint64_t circuit_hash,
                              const FusionOptions& fusion)
{
    const std::pair<std::uint64_t, Index> key{circuit_hash,
                                              fusion.plan_salt()};
    std::shared_ptr<const CircuitEntry> entry;
    {
        const std::lock_guard<std::mutex> lock(mu_);
        const auto it = circuits_.find(key);
        if (it != circuits_.end()) {
            entry = it->second.lock();
        }
    }
    // The tie-break runs outside the lock; a colliding entry is a miss.
    if (entry && ir::same_content(entry->circuit(), circuit)) {
        obs::count(obs::Counter::kServiceCircuitHits);
        return entry;
    }
    auto built = std::make_shared<const CircuitEntry>(circuit, fusion);
    {
        const std::lock_guard<std::mutex> lock(mu_);
        std::weak_ptr<const CircuitEntry>& slot = circuits_[key];
        if (const auto current = slot.lock();
            current && current != entry &&
            ir::same_content(current->circuit(), circuit)) {
            // Another thread bound the same circuit first; share its entry.
            obs::count(obs::Counter::kServiceCircuitHits);
            return current;
        }
        slot = built;
        std::erase_if(circuits_, [](const auto& kv) {
            return kv.second.expired();
        });
    }
    obs::count(obs::Counter::kServiceCircuitMisses);
    return built;
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
    if (artifact && !ir::same_content(artifact->entry->circuit(), circuit)) {
        artifact.reset();
    }
    if (artifact) {
        if (cache_hit != nullptr) {
            *cache_hit = true;
        }
        obs::count(obs::Counter::kServiceHits);
        if (verify_now && !verified_flag(*artifact, admission).load(
                              std::memory_order_acquire)) {
            // Verifies the cached artifact at a strength it has not
            // passed yet.
            admit(*artifact->entry, model, admission);
            verified_flag(*artifact, admission)
                .store(true, std::memory_order_release);
        }
        return artifact;
    }

    obs::count(obs::Counter::kServiceMisses);
    const std::shared_ptr<const CircuitEntry> entry =
        circuit_entry(circuit, key.circuit_hash, fusion);
    if (verify_now) {
        admit(*entry, model, admission);
    }

    // Compile outside the lock: concurrent submissions of different
    // circuits must not serialize on each other's compile time.
    auto built = std::make_shared<CompiledArtifact>();
    built->engine = engine;
    built->circuit_hash = key.circuit_hash;
    built->noise_hash = key.noise_hash;
    built->plan_salt = key.plan_salt;
    built->entry = entry;
    switch (engine) {
    case EngineKind::kState:
        built->state = entry->ideal();
        break;
    case EngineKind::kTrajectory:
        built->trajectory =
            std::make_shared<const noise::TrajectoryCompilation>(entry,
                                                                 *model);
        break;
    case EngineKind::kDensity:
        built->density =
            std::make_shared<const noise::DensityCompilation>(*entry, *model);
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
            ir::same_content(it->second.artifact->entry->circuit(),
                             circuit)) {
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
