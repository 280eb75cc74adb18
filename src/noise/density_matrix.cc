#include "noise/density_matrix.h"

#include <algorithm>
#include <cmath>
#include <map>
#include <stdexcept>
#include <thread>
#include <utility>

#ifdef _OPENMP
#include <omp.h>
#endif

#include "noise/error_placement.h"
#include "qdsim/exec/compile_service.h"
#include "qdsim/moments.h"
#include "qdsim/obs/counters.h"
#include "qdsim/obs/trace.h"
#include "qdsim/simulator.h"
#include "qdsim/verify/noise_audit.h"

namespace qd::noise {

namespace {

/** Register size from which the conjugation passes over rho go parallel
 *  (3^6). A pass touches D^2 entries, so the threshold sits on D; below
 *  it the passes stay serial. */
constexpr Index kSuperParallelDim = 729;

/** Edge of the square tiles the conjugate transpose swaps: walking whole
 *  columns at a power-of-two stride D thrashes the cache. */
constexpr Index kTransposeTile = 16;

/** `m` as a Gate over `wires` of `dims`, for exec::compile_op. */
Gate
operand_gate(const WireDims& dims, const Matrix& m,
             std::span<const int> wires)
{
    std::vector<int> gate_dims;
    gate_dims.reserve(wires.size());
    for (const int w : wires) {
        if (w < 0 || w >= dims.num_wires()) {
            throw std::invalid_argument(
                "density matrix: wire index out of range");
        }
        gate_dims.push_back(dims.dim(w));
    }
    return Gate("op", std::move(gate_dims), m);
}

/** The kSuper* class a conjugation by a `kind` op counts under:
 *  permutations count as monomial, block-monomial ops as controlled, and
 *  the single-wire kernels as dense. */
obs::Counter
conjugation_counter(exec::KernelKind kind)
{
    switch (kind) {
        case exec::KernelKind::kDiagonal:
            return obs::Counter::kSuperDiagonal;
        case exec::KernelKind::kPermutation:
        case exec::KernelKind::kMonomial:
            return obs::Counter::kSuperMonomial;
        case exec::KernelKind::kControlled:
        case exec::KernelKind::kBlockMonomial:
            return obs::Counter::kSuperControlled;
        case exec::KernelKind::kSingleWireD2:
        case exec::KernelKind::kSingleWireD3:
        case exec::KernelKind::kDense:
            break;
    }
    return obs::Counter::kSuperDense;
}

/** a -> a^dagger in place for a row-major n x n matrix, one tile row at a
 *  time: tile row t conjugate-transposes its diagonal tile in place and
 *  swaps every tile right of it with its mirror below the diagonal, so
 *  tile rows touch disjoint entries and may run on `team` threads. */
void
conj_transpose(Complex* a, Index n, int team)
{
    auto swap_conj = [a, n](Index r, Index c) {
        const Complex x = a[r * n + c];
        a[r * n + c] = std::conj(a[c * n + r]);
        a[c * n + r] = std::conj(x);
    };
    auto do_tile_row = [&](Index t) {
        const Index r0 = t * kTransposeTile;
        const Index r1 = std::min(n, r0 + kTransposeTile);
        for (Index r = r0; r < r1; ++r) {
            a[r * n + r] = std::conj(a[r * n + r]);
            for (Index c = r + 1; c < r1; ++c) {
                swap_conj(r, c);
            }
        }
        for (Index c0 = r1; c0 < n; c0 += kTransposeTile) {
            const Index c1 = std::min(n, c0 + kTransposeTile);
            for (Index r = r0; r < r1; ++r) {
                for (Index c = c0; c < c1; ++c) {
                    swap_conj(r, c);
                }
            }
        }
    };
    const std::int64_t tiles = static_cast<std::int64_t>(
        (n + kTransposeTile - 1) / kTransposeTile);
#ifdef _OPENMP
    if (team > 1) {
        // Tile row t holds tiles - t tiles: deal them round-robin.
#pragma omp parallel for num_threads(team) schedule(static, 1)
        for (std::int64_t t = 0; t < tiles; ++t) {
            do_tile_row(static_cast<Index>(t));
        }
        return;
    }
#else
    (void)team;
#endif
    for (std::int64_t t = 0; t < tiles; ++t) {
        do_tile_row(static_cast<Index>(t));
    }
}

/** A closed-form channel's shell: register size and operand plan. */
CompiledNoise
noise_on(CompiledNoise::Kind kind, const WireDims& dims,
         std::span<const int> wires, exec::PlanCache* cache)
{
    CompiledNoise out;
    out.kind = kind;
    out.dim = dims.size();
    out.plan = cache != nullptr ? cache->get(wires)
                                : exec::make_apply_plan(dims, wires);
    return out;
}

/** CompiledNoise::row_scale from a single-wire d x d factor table
 *  (entry j * d + k): entry j * D + c is the factor for (j, digit of
 *  column c on `wire`). */
std::vector<Real>
row_scale(const WireDims& dims, int wire, const std::vector<Real>& table)
{
    const Index n = dims.size();
    const Index d = static_cast<Index>(dims.dim(wire));
    std::vector<Real> out(static_cast<std::size_t>(d * n));
    for (Index c = 0; c < n; ++c) {
        const Index k = static_cast<Index>(dims.digit(c, wire));
        for (Index j = 0; j < d; ++j) {
            out[j * n + c] = table[j * d + k];
        }
    }
    return out;
}

}  // namespace

CompiledChannel
compile_channel(const WireDims& dims, const KrausChannel& channel,
                std::span<const int> wires, exec::PlanCache* cache)
{
    // Even without a caller-provided cache, the channel's operators share
    // one set of tables among themselves.
    exec::PlanCache local(dims);
    exec::PlanCache* use = cache != nullptr ? cache : &local;
    CompiledChannel out;
    out.kraus.reserve(channel.operators.size());
    for (const Matrix& k : channel.operators) {
        out.kraus.push_back(exec::compile_op(
            dims, operand_gate(dims, k, wires), wires, use));
    }
    return out;
}

CompiledNoise
compile_depolarizing(const WireDims& dims, std::span<const int> wires,
                     Real p_channel, exec::PlanCache* cache)
{
    CompiledNoise out =
        noise_on(CompiledNoise::Kind::kDepolarizing, dims, wires, cache);
    const Real b = static_cast<Real>(out.plan->block);
    // Same bound as MixedUnitaryChannel::to_kraus on the b^2 - 1 terms.
    if (!(p_channel >= 0 && 1.0 - (b * b - 1) * p_channel >= -1e-12)) {
        throw std::invalid_argument(
            "compile_depolarizing: probabilities outside [0, 1]");
    }
    out.keep = 1.0 - b * b * p_channel;
    out.mix = b * p_channel;
    return out;
}

CompiledNoise
compile_damping(const WireDims& dims, int wire,
                const std::vector<Real>& lambdas, exec::PlanCache* cache)
{
    const int wires[1] = {wire};
    CompiledNoise out = noise_on(CompiledNoise::Kind::kDamping, dims,
                                 std::span<const int>(wires, 1), cache);
    const std::size_t d = static_cast<std::size_t>(out.plan->block);
    if (lambdas.size() + 1 != d) {
        throw std::invalid_argument(
            "compile_damping: need d-1 lambda values");
    }
    out.decay.assign(d, 0);
    std::vector<Real> keep(d, 1);
    for (std::size_t m = 1; m < d; ++m) {
        const Real lam = lambdas[m - 1];
        if (!(lam >= 0 && lam <= 1)) {
            throw std::invalid_argument(
                "compile_damping: lambda out of [0,1]");
        }
        out.decay[m] = lam;
        keep[m] = std::sqrt(1.0 - lam);
    }
    std::vector<Real> table(d * d);
    for (std::size_t j = 0; j < d; ++j) {
        for (std::size_t k = 0; k < d; ++k) {
            table[j * d + k] = keep[j] * keep[k];
        }
    }
    out.row_scale = row_scale(dims, wire, table);
    return out;
}

CompiledNoise
compile_dephasing(const WireDims& dims, int wire, Real sigma,
                  exec::PlanCache* cache)
{
    const int wires[1] = {wire};
    CompiledNoise out = noise_on(CompiledNoise::Kind::kDephasing, dims,
                                 std::span<const int>(wires, 1), cache);
    const int d = dims.dim(wire);
    std::vector<Real> table(static_cast<std::size_t>(d * d));
    for (int j = 0; j < d; ++j) {
        for (int k = 0; k < d; ++k) {
            const int dj = j - k;
            table[static_cast<std::size_t>(j * d + k)] =
                std::exp(-0.5 * sigma * sigma * dj * dj);
        }
    }
    out.row_scale = row_scale(dims, wire, table);
    return out;
}

DensityMatrix::DensityMatrix(const StateVector& psi)
    : dims_(psi.dims()), rho_(psi.size(), psi.size()), cache_(dims_) {
    for (Index r = 0; r < psi.size(); ++r) {
        for (Index c = 0; c < psi.size(); ++c) {
            rho_(r, c) = psi[r] * std::conj(psi[c]);
        }
    }
    set_threads(0);
}

DensityMatrix::DensityMatrix(WireDims dims, const std::vector<int>& digits)
    : DensityMatrix(StateVector(std::move(dims), digits)) {}

DensityMatrix::DensityMatrix(WireDims dims, Matrix rho)
    : dims_(std::move(dims)), rho_(std::move(rho)), cache_(dims_) {
    const Index n = dims_.size();
    if (static_cast<Index>(rho_.rows()) != n ||
        static_cast<Index>(rho_.cols()) != n) {
        throw std::invalid_argument(
            "DensityMatrix: rho size does not match register dims");
    }
    for (Index r = 0; r < n; ++r) {
        for (Index c = r; c < n; ++c) {
            if (std::abs(rho_(r, c) - std::conj(rho_(c, r))) > kTol) {
                throw std::invalid_argument(
                    "DensityMatrix: rho is not Hermitian");
            }
        }
    }
    set_threads(0);
}

void
DensityMatrix::set_threads(int threads)
{
    scratch_.threads = dims_.size() >= kSuperParallelDim ? threads : 1;
}

Matrix
DensityMatrix::expand(const Matrix& op, std::span<const int> wires) const
{
    const Index total = dims_.size();
    Matrix full(total, total);
    const int k = static_cast<int>(wires.size());
    for (Index r = 0; r < total; ++r) {
        for (Index c = 0; c < total; ++c) {
            // Non-operand digits must agree.
            bool same = true;
            for (int w = 0; w < dims_.num_wires() && same; ++w) {
                bool is_operand = false;
                for (const int t : wires) {
                    if (t == w) {
                        is_operand = true;
                        break;
                    }
                }
                if (!is_operand && dims_.digit(r, w) != dims_.digit(c, w)) {
                    same = false;
                }
            }
            if (!same) {
                continue;
            }
            Index lr = 0, lc = 0;
            for (int i = 0; i < k; ++i) {
                const int d = dims_.dim(wires[i]);
                lr = lr * static_cast<Index>(d) +
                     static_cast<Index>(dims_.digit(r, wires[i]));
                lc = lc * static_cast<Index>(d) +
                     static_cast<Index>(dims_.digit(c, wires[i]));
            }
            full(r, c) = op(lr, lc);
        }
    }
    return full;
}

void
DensityMatrix::apply_unitary(const Matrix& u, std::span<const int> wires)
{
    apply(exec::compile_op(dims_, operand_gate(dims_, u, wires), wires,
                           &cache_));
}

void
DensityMatrix::apply_channel(const KrausChannel& channel,
                             std::span<const int> wires)
{
    apply(compile_channel(dims_, channel, wires, &cache_));
}

void
DensityMatrix::apply(const exec::CompiledOp& op)
{
    conjugate(op, rho_);
}

void
DensityMatrix::conjugate(const exec::CompiledOp& op, Matrix& m)
{
    const Index n = dims_.size();
    if (op.dim != n) {
        throw std::invalid_argument(
            "DensityMatrix::apply: op compiled for another register");
    }
    // Counter hook stays outside the kernels' OpenMP regions: one count
    // per conjugation, charged to the calling thread.
    if (obs::enabled()) {
        obs::count_unchecked(conjugation_counter(op.kind));
    }
    obs::ScopedSpan span("density", "conjugate");
    int team = scratch_.threads;
#ifdef _OPENMP
    if (team <= 0) {
        team = omp_get_max_threads();
    }
#endif
    // m is Hermitian, so K m K^dagger = K (K m)^dagger; the columns of the
    // row-major m are the lanes of the batched passes.
    Complex* a = m.data().data();
    const int lanes = static_cast<int>(n);
    exec::apply_op_batched(op, a, lanes, scratch_);
    conj_transpose(a, n, team);
    exec::apply_op_batched(op, a, lanes, scratch_);
}

void
DensityMatrix::apply(const CompiledChannel& channel)
{
    if (channel.kraus.empty()) {
        throw std::invalid_argument("DensityMatrix::apply: empty channel");
    }
    if (channel.kraus.size() == 1) {
        conjugate(channel.kraus[0], rho_);
        return;
    }
    if (acc_.rows() != rho_.rows()) {
        acc_ = Matrix(rho_.rows(), rho_.cols());
    } else {
        acc_.data().assign(acc_.data().size(), Complex(0, 0));
    }
    for (const exec::CompiledOp& k : channel.kraus) {
        tmp_ = rho_;
        conjugate(k, tmp_);
        const std::vector<Complex>& src = tmp_.data();
        std::vector<Complex>& dst = acc_.data();
        for (std::size_t i = 0; i < dst.size(); ++i) {
            dst[i] += src[i];
        }
    }
    std::swap(rho_, acc_);
}

void
DensityMatrix::apply(const CompiledNoise& noise)
{
    if (noise.dim != dims_.size()) {
        throw std::invalid_argument(
            "DensityMatrix::apply: noise compiled for another register");
    }
    obs::ScopedSpan span("density", "noise_channel");
    const exec::ApplyPlan& plan = *noise.plan;
    const Index n = noise.dim;
    const Index b = plan.block;
    const Index outer = plan.outer_count();
    // One row block at a time, so its b rows stay in cache. Block
    // (ro, co) has its corner X[0,0] at rows + base_of(co), X[j,k] at
    // off[j] * n + off[k] past the corner and X[j,j] at off[j] * (n + 1).
    const Index* off = plan.local_offset.data();
    // Depolarizing: what each block's diagonal gains, kept per row block.
    std::vector<Complex>& fill = scratch_.in;
    fill.resize(outer);
    const Real keep = noise.keep;
    const Real mix = noise.mix;
    Complex* a = rho_.data().data();
    for (Index ro = 0; ro < outer; ++ro) {
        Complex* rows = a + plan.base_of(ro) * n;
        switch (noise.kind) {
        case CompiledNoise::Kind::kDepolarizing:
            // Traces are read before the rows are scaled.
            for (Index co = 0; co < outer; ++co) {
                const Complex* x = rows + plan.base_of(co);
                Complex trace(0, 0);
                for (Index j = 0; j < b; ++j) {
                    trace += x[off[j] * (n + 1)];
                }
                fill[co] = mix * trace;
            }
            for (Index j = 0; j < b; ++j) {
                Complex* row = rows + off[j] * n;
                for (Index c = 0; c < n; ++c) {
                    row[c] *= keep;
                }
            }
            for (Index co = 0; co < outer; ++co) {
                Complex* x = rows + plan.base_of(co);
                const Complex add = fill[co];
                for (Index j = 0; j < b; ++j) {
                    x[off[j] * (n + 1)] += add;
                }
            }
            break;
        case CompiledNoise::Kind::kDamping:
            // X[0,0] scales by exactly 1, so it takes its gain from the
            // unscaled X[m,m] before the rows are scaled.
            for (Index co = 0; co < outer; ++co) {
                Complex* x = rows + plan.base_of(co);
                for (Index m = 1; m < b; ++m) {
                    x[0] += noise.decay[m] * x[off[m] * (n + 1)];
                }
            }
            [[fallthrough]];
        case CompiledNoise::Kind::kDephasing:
            for (Index j = 0; j < b; ++j) {
                Complex* row = rows + off[j] * n;
                const Real* f = noise.row_scale.data() + j * n;
                for (Index c = 0; c < n; ++c) {
                    row[c] *= f[c];
                }
            }
            break;
        }
    }
}

void
DensityMatrix::apply_unitary_dense(const Matrix& u,
                                   std::span<const int> wires)
{
    const Matrix full = expand(u, wires);
    rho_ = full * rho_ * full.dagger();
}

void
DensityMatrix::apply_channel_dense(const KrausChannel& channel,
                                   std::span<const int> wires)
{
    Matrix acc(rho_.rows(), rho_.cols());
    for (const Matrix& k : channel.operators) {
        const Matrix full = expand(k, wires);
        acc = acc + full * rho_ * full.dagger();
    }
    rho_ = std::move(acc);
}

Real
DensityMatrix::fidelity(const StateVector& psi) const
{
    if (!(psi.dims() == dims_)) {
        throw std::invalid_argument(
            "DensityMatrix::fidelity: state dims do not match register dims");
    }
    Complex acc(0, 0);
    for (Index r = 0; r < psi.size(); ++r) {
        for (Index c = 0; c < psi.size(); ++c) {
            acc += std::conj(psi[r]) * rho_(r, c) * psi[c];
        }
    }
    return acc.real();
}

Real
DensityMatrix::trace_real() const
{
    return rho_.trace().real();
}

/**
 * The payload behind DensityCompilation (cached across requests by the
 * CompileService): the compiled gates and every closed-form noise channel
 * the evolution touches — compiled once against one shared plan cache —
 * and the flattened step program that replays the exact moment-by-moment
 * (or fused-group) application order of the original inline engine. The
 * noiseless reference is one state-vector pass through the same gates.
 */
struct DensityCompilation::Impl {
    /** One replayed application: a gate (index into gates.ops()) or a
     *  noise channel (index into noise). */
    struct Step {
        enum class Kind { kGate, kNoise };
        Kind kind = Kind::kGate;
        std::size_t index = 0;
    };

    NoiseModel model;              ///< the model the program was built from
    /** The gates, compiled as the trajectory engine compiles its noisy
     *  loop: fused between error fences, or per op under idle noise. Also
     *  the program of the noiseless reference pass. */
    exec::CompiledCircuit gates;
    std::vector<CompiledNoise> noise;
    std::vector<Step> steps;

    Impl(const exec::CircuitEntry& entry, const NoiseModel& noise_model)
        : model(noise_model)
    {
        const Circuit& circuit = entry.circuit();
        const exec::FusionOptions& fusion = entry.fusion();
        exec::PlanCache& cache = entry.plans();
        const WireDims& dims = circuit.dims();
        auto push_noise = [&](CompiledNoise compiled) {
            noise.push_back(std::move(compiled));
            return noise.size() - 1;
        };

        // Gate-error channels: same placement as the trajectory engine.
        const auto sites = enumerate_error_sites(circuit, model);
        std::vector<std::vector<std::size_t>> op_channels(
            circuit.num_ops());
        {
            obs::ScopedSpan compile_span("density", "compile_channels");
            for (std::size_t i = 0; i < sites.size(); ++i) {
                for (const ErrorSite& site : sites[i]) {
                    op_channels[i].push_back(push_noise(compile_depolarizing(
                        dims, site.wires, site.per_channel, &cache)));
                }
            }
        }
        auto push_op_channels = [&](std::size_t op) {
            for (const std::size_t ch : op_channels[op]) {
                steps.push_back({Step::Kind::kNoise, ch});
            }
        };

        // No idle noise: nothing separates gates but their error
        // channels, so the moment scaffolding is irrelevant — fuse gate
        // runs between error fences into single conjugations (channels
        // attach to their pre-fusion op boundaries, exactly like the
        // trajectory engine).
        const bool idle_noise =
            model.has_damping() || model.has_dephasing();
        if (fusion.enabled && !idle_noise) {
            gates = exec::CompiledCircuit(circuit, fusion,
                                          error_fences(sites), &cache);
            for (std::size_t k = 0; k < gates.num_ops(); ++k) {
                steps.push_back({Step::Kind::kGate, k});
                for (const std::uint32_t src : gates.ops()[k].source_ops) {
                    push_op_channels(static_cast<std::size_t>(src));
                }
            }
            return;
        }

        // Compile every gate once, sharing plans across same-wire ops.
        exec::FusionOptions off = fusion;
        off.enabled = false;
        gates = exec::CompiledCircuit(circuit, off, {}, &cache);

        // Idle noise per wire (damping, then dephasing): dt depends only
        // on the moment type, so at most two variants exist per wire.
        std::map<std::pair<int, Real>, std::vector<std::size_t>> idle_memo;
        auto idle_for = [&](int wire,
                            Real dt) -> const std::vector<std::size_t>& {
            auto [it, fresh] = idle_memo.try_emplace({wire, dt});
            if (fresh) {
                if (model.has_damping()) {
                    std::vector<Real> lambdas;
                    for (int m = 1; m < dims.dim(wire); ++m) {
                        lambdas.push_back(model.lambda(m, dt));
                    }
                    it->second.push_back(push_noise(
                        compile_damping(dims, wire, lambdas, &cache)));
                }
                if (model.has_dephasing()) {
                    it->second.push_back(push_noise(compile_dephasing(
                        dims, wire, model.dephasing_sigma * std::sqrt(dt),
                        &cache)));
                }
            }
            return it->second;
        };

        const auto moments = schedule_asap(circuit);
        for (const Moment& moment : moments) {
            for (const std::size_t idx : moment.op_indices) {
                steps.push_back({Step::Kind::kGate, idx});
                push_op_channels(idx);
            }
            const Real dt = model.moment_duration(moment.has_multi_qudit);
            for (int w = 0; w < circuit.num_wires(); ++w) {
                for (const std::size_t ch : idle_for(w, dt)) {
                    steps.push_back({Step::Kind::kNoise, ch});
                }
            }
        }
    }
};

DensityCompilation::DensityCompilation(const Circuit& circuit,
                                       const NoiseModel& model,
                                       const exec::FusionOptions& fusion)
    : DensityCompilation(exec::CircuitEntry(circuit, fusion), model) {}

DensityCompilation::DensityCompilation(const exec::CircuitEntry& entry,
                                       const NoiseModel& model)
    : impl_(std::make_unique<Impl>(entry, model)) {}

DensityCompilation::~DensityCompilation() = default;

const NoiseModel&
DensityCompilation::model() const
{
    return impl_->model;
}

const WireDims&
DensityCompilation::dims() const
{
    return impl_->gates.dims();
}

Real
density_matrix_fidelity(const Circuit& circuit, const NoiseModel& model,
                        const StateVector& initial,
                        const exec::FusionOptions& fusion)
{
    // The compile service verifies at admission under QD_VERIFY=strict
    // (same analysis verify::enforce_noisy ran here before the service
    // existed) and caches the compilation across calls.
    const std::shared_ptr<const exec::CompiledArtifact> artifact =
        exec::CompileService::global().compile(circuit, model,
                                               exec::EngineKind::kDensity,
                                               fusion);
    return density_matrix_fidelity(*artifact->density, initial);
}

Real
density_matrix_fidelity(const DensityCompilation& compiled,
                        const StateVector& initial, int threads)
{
    using Step = DensityCompilation::Impl::Step;
    const DensityCompilation::Impl& impl = compiled.impl();
    const StateVector ideal = simulate(impl.gates, initial);
    DensityMatrix dm(initial);
    if (threads <= 0) {
        threads = std::max(
            1, static_cast<int>(std::thread::hardware_concurrency()));
    }
    dm.set_threads(threads);
    obs::ScopedSpan exec_span("density", "execute");
    exec_span.arg("steps", static_cast<std::int64_t>(impl.steps.size()));
    for (const Step& step : impl.steps) {
        if (step.kind == Step::Kind::kGate) {
            dm.apply(impl.gates.ops()[step.index]);
        } else {
            dm.apply(impl.noise[step.index]);
        }
    }
    return dm.fidelity(ideal);
}

}  // namespace qd::noise
