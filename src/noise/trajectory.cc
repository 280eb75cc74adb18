#include "noise/trajectory.h"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <map>
#include <optional>
#include <stdexcept>
#include <thread>

#include "noise/channels.h"
#include "noise/error_placement.h"
#include "qdsim/exec/batched_kernels.h"
#include "qdsim/exec/batched_state.h"
#include "qdsim/exec/compile_service.h"
#include "qdsim/exec/compiled_circuit.h"
#include "qdsim/moments.h"
#include "qdsim/obs/counters.h"
#include "qdsim/obs/trace.h"
#include "qdsim/random_state.h"
#include "qdsim/verify/noise_audit.h"

namespace qd::noise {

namespace {

/** Most lanes one batched pass carries: enough to amortise plan/offset-
 *  table reads across shots (12 measured fastest on the 5-qutrit
 *  bench_batch workload; the curve is flat between 8 and 16). */
constexpr int kMaxBatchLanes = 12;

/** Lane state a default group aims for. A group takes
 *  ceil(kGroupBytes / lane bytes) lanes: 4–8 MiB while one lane is under
 *  4 MiB, a single lane beyond. On the qutrit gen-Toffoli under SC noise
 *  (4 threads) that gives 4 lanes at width 10, 2 at width 11 and 1 at
 *  width 12, the fastest widths measured there. */
constexpr std::size_t kGroupBytes = std::size_t{4} << 20;

int
ceil_div(int a, int b)
{
    return (a + b - 1) / b;
}

/**
 * The default lane count (TrajectoryOptions::batch == 0): as many lanes as
 * the group budget holds, at most kMaxBatchLanes, then evened out so each
 * of `workers` workers runs the same number of equal groups — 32 trials
 * on 4 workers become 4 groups of 8, not 12 + 12 + 8 on three of them.
 */
int
default_lane_count(Index register_size, int trials, int workers)
{
    const std::size_t lane_bytes =
        static_cast<std::size_t>(register_size) * sizeof(Complex);
    const int cap = static_cast<int>(std::min<std::size_t>(
        kMaxBatchLanes, (kGroupBytes + lane_bytes - 1) / lane_bytes));
    if (workers <= 1) {
        return std::min(cap, trials);  // nothing to balance
    }
    const int rounds = ceil_div(trials, workers * cap);
    return ceil_div(trials, workers * rounds);
}

}  // namespace

/**
 * Precomputed per-circuit state shared by all trajectories (the payload
 * behind TrajectoryCompilation, cached across requests by the
 * CompileService): two compiled circuits over one shared plan cache —
 * `ideal` (fully fused) for the noiseless reference passes, `noisy`
 * (fused only between noise boundaries; unfused under idle noise) for
 * the moment loop — the per-compiled-op precompiled depolarizing error
 * draws, the moment schedule and, for uniform-dimension registers, a
 * per-basis-index key packing the excited-level counts (n1, n2), which
 * lets the no-jump damping operator of ALL wires apply as one
 * table-scaled pass.
 */
struct TrajectoryCompilation::Impl {
    /**
     * One precompiled error lottery: with probability `total` a uniformly
     * chosen unitary from `unitaries` fires. Compiled once per circuit so
     * every trajectory shot replays against the same plans.
     */
    struct ErrorDraw {
        Real total = 0;
        std::vector<exec::CompiledOp> unitaries;
    };

    NoiseModel model;             ///< the model every trial draws from
    exec::PlanCache cache;        ///< plans shared across both compilations
    exec::CompiledCircuit ideal;  ///< fully fused: ideal reference passes
    /** The noisy-loop compilation. Gate-error ops are fusion fences, so
     *  every error channel still attaches to its pre-fusion op boundary —
     *  this holds for stage-2 union merges too, because cost-model
     *  windows never span a fence; under idle noise the moment schedule
     *  (wire-disjoint ops) is kept per op and nothing merges. */
    exec::CompiledCircuit noisy;
    /** Per noisy-op index: the error lotteries drawn after that op (the
     *  draws of its source ops; fences guarantee only the last source op
     *  of a fused group — nested or union-merged — carries any).
     *  Pointers into `error_memo_`, deduplicated by (wires,
     *  probability). */
    std::vector<std::vector<const ErrorDraw*>> errors;
    /** Schedule over noisy-op indices. */
    std::vector<Moment> moments;
    bool accel = false;
    int width = 0;
    int dim = 0;
    std::vector<std::uint16_t> count_key;  ///< n1 * (width+1) + n2

    // Non-copyable: `errors` holds raw pointers into this object's
    // error_memo_; a copy would leave them dangling into the source.
    Impl(const Impl&) = delete;
    Impl& operator=(const Impl&) = delete;

    Impl(const Circuit& circuit, const NoiseModel& noise_model,
         const exec::FusionOptions& fusion)
        : model(noise_model),
          cache(circuit.dims()),
          ideal(circuit, fusion, {}, &cache) {
        const auto sites = enumerate_error_sites(circuit, model);
        const bool idle_noise =
            model.has_damping() || model.has_dephasing();
        if (!fusion.enabled || idle_noise) {
            // Idle noise fences every moment boundary, and ops within a
            // moment are wire-disjoint: fusion has nothing to merge, so
            // compile per op (bitwise the pre-fusion engine) and keep the
            // ASAP moments as the noisy schedule.
            exec::FusionOptions off = fusion;
            off.enabled = false;
            noisy = exec::CompiledCircuit(circuit, off, {}, &cache);
            moments = schedule_asap(circuit);
        } else {
            // Gate errors are the only noise: fuse between error sites.
            // Every op that draws a channel fences the partition, pinning
            // the channel to its pre-fusion boundary (error_fences is the
            // single source of truth shared with the density engine).
            noisy = exec::CompiledCircuit(circuit, fusion,
                                          error_fences(sites), &cache);
            Moment all;
            all.op_indices.resize(noisy.num_ops());
            for (std::size_t k = 0; k < noisy.num_ops(); ++k) {
                all.op_indices[k] = k;
            }
            for (const Operation& op : circuit.ops()) {
                all.has_multi_qudit =
                    all.has_multi_qudit || op.gate.arity() >= 2;
            }
            moments.push_back(std::move(all));
        }
        build_error_draws(circuit, sites);
        const WireDims& dims = circuit.dims();
        width = dims.num_wires();
        dim = dims.dim(0);
        for (int w = 0; w < width; ++w) {
            if (dims.dim(w) != dim) {
                return;  // mixed radix: no acceleration
            }
        }
        if (dim > 3) {
            return;
        }
        count_key.resize(dims.size());
        std::vector<int> digits(static_cast<std::size_t>(width), 0);
        int n1 = 0, n2 = 0;
        const int stride = width + 1;
        for (Index idx = 0;; ++idx) {
            count_key[idx] =
                static_cast<std::uint16_t>(n1 * stride + n2);
            if (idx + 1 >= dims.size()) {
                break;
            }
            for (int w = width - 1;; --w) {
                const std::size_t uw = static_cast<std::size_t>(w);
                n1 -= digits[uw] == 1;
                n2 -= digits[uw] == 2;
                if (++digits[uw] < dim) {
                    n1 += digits[uw] == 1;
                    n2 += digits[uw] == 2;
                    break;
                }
                digits[uw] = 0;
            }
        }
        accel = true;
    }

  private:
    /**
     * Precompiles every depolarizing error unitary the trajectory loop can
     * draw, sharing apply plans with the compiled circuits (an error on a
     * gate's wires reuses that gate's offset tables via the shared
     * cache). Placement comes from enumerate_error_sites — the same
     * policy the exact density-matrix engine compiles against, so the two
     * stay comparable. Draws are memoised by (wires, per-channel
     * probability), so a circuit with many gates on the same wire pair
     * compiles its channel once. Per-source-op draw lists are folded onto
     * the noisy compilation through CompiledOp::source_ops.
     */
    void build_error_draws(const Circuit& circuit,
                           const std::vector<std::vector<ErrorSite>>& sites) {
        const WireDims& dims = circuit.dims();
        std::vector<std::vector<const ErrorDraw*>> per_op(circuit.num_ops());
        for (std::size_t i = 0; i < sites.size(); ++i) {
            for (const ErrorSite& site : sites[i]) {
                const auto key =
                    std::make_pair(site.wires, site.per_channel);
                auto it = error_memo_.find(key);
                if (it == error_memo_.end()) {
                    const MixedUnitaryChannel ch =
                        site.dims.size() == 1
                            ? depolarizing1(site.dims[0], site.per_channel)
                            : depolarizing2(site.dims[0], site.dims[1],
                                            site.per_channel);
                    ErrorDraw draw;
                    draw.total = static_cast<Real>(ch.probs.size()) *
                                 site.per_channel;
                    draw.unitaries.reserve(ch.unitaries.size());
                    for (const Matrix& u : ch.unitaries) {
                        draw.unitaries.push_back(exec::compile_op(
                            dims, Gate("err", site.dims, u), site.wires,
                            &cache));
                    }
                    it = error_memo_.emplace(key, std::move(draw)).first;
                }
                per_op[i].push_back(&it->second);
            }
        }
        errors.resize(noisy.num_ops());
        for (std::size_t k = 0; k < noisy.num_ops(); ++k) {
            for (const std::uint32_t s : noisy.ops()[k].source_ops) {
                const auto& draws = per_op[static_cast<std::size_t>(s)];
                errors[k].insert(errors[k].end(), draws.begin(),
                                 draws.end());
            }
        }
    }

    /** Owns the deduplicated draws; node-based map keeps pointers stable. */
    std::map<std::pair<std::vector<int>, Real>, ErrorDraw> error_memo_;
};

TrajectoryCompilation::TrajectoryCompilation(
    const Circuit& circuit, const NoiseModel& model,
    const exec::FusionOptions& fusion)
    : impl_(std::make_unique<Impl>(circuit, model, fusion)) {}

TrajectoryCompilation::~TrajectoryCompilation() = default;

const NoiseModel&
TrajectoryCompilation::model() const
{
    return impl_->model;
}

const WireDims&
TrajectoryCompilation::dims() const
{
    return impl_->noisy.dims();
}

bool
TrajectoryCompilation::fused_damping_supported() const
{
    return impl_->accel;
}

namespace {

// The engine helpers below read the compilation through its original
// working name.
using EngineContext = TrajectoryCompilation::Impl;
using ErrorDraw = EngineContext::ErrorDraw;

// --------------------------------------------------------------------------
// One engine: B trajectory lanes advance through one compiled-circuit pass
// (run_single_trajectory is B = 1). Shared, deterministic work (gates,
// no-jump scaling, dephasing) runs on all lanes at once; divergent per-lane
// events (gate-error draws, damping jumps, the fused rare branch) extract
// the lane to a StateVector, run the single-lane helpers below on it, and
// write it back. Every lane primitive matches its StateVector counterpart
// bitwise, so a lane's result does not depend on the batch width.
// --------------------------------------------------------------------------

/** Applies a damping jump |level> -> |0> on `wire` and renormalises.
 *  A jump is only ever drawn with probability proportional to the level's
 *  population, so a zero-norm result means the engine's bookkeeping and
 *  the state disagree — fail loudly instead of propagating NaNs. */
void
apply_jump(StateVector& psi, int wire, int level)
{
    obs::count(obs::Counter::kTrajDampingJumps);
    const int d = psi.dims().dim(wire);
    Matrix km(static_cast<std::size_t>(d), static_cast<std::size_t>(d));
    km(0, static_cast<std::size_t>(level)) = Complex(1, 0);
    const int wires[1] = {wire};
    psi.apply(km, std::span<const int>(wires, 1));
    if (!psi.normalize()) {
        throw std::runtime_error(
            "trajectory: damping jump produced a zero-norm state");
    }
}

/** The no-jump K0 diagonal of a d-dimensional wire over dt. */
std::vector<Complex>
k0_diag(const NoiseModel& model, Real dt, int d)
{
    std::vector<Complex> diag(static_cast<std::size_t>(d));
    diag[0] = Complex(1, 0);
    for (int m = 1; m < d; ++m) {
        diag[static_cast<std::size_t>(m)] =
            Complex(std::sqrt(1.0 - model.lambda(m, dt)), 0);
    }
    return diag;
}

/** Applies the no-jump K0 diagonal of a single wire (no renormalise). */
void
apply_k0(StateVector& psi, const NoiseModel& model, Real dt, int wire)
{
    psi.apply_diag1(k0_diag(model, dt, psi.dims().dim(wire)), wire);
}

/** True iff any excited level of a d-dimensional wire decays at all over
 *  dt — i.e. the wire's no-jump K0 differs from the identity. */
bool
k0_nontrivial(const NoiseModel& model, Real dt, int d)
{
    for (int m = 1; m < d; ++m) {
        if (model.lambda(m, dt) > 0) {
            return true;
        }
    }
    return false;
}

/** Builds the fused no-jump scale table (indexed by packed excited-level
 *  counts) and its inverse for one moment duration. */
void
build_damping_tables(const NoiseModel& model, Real dt,
                     const EngineContext& ctx, std::vector<Real>& scale,
                     std::vector<Real>& inv)
{
    const Real l1 = model.lambda(1, dt);
    const Real l2 = ctx.dim >= 3 ? model.lambda(2, dt) : 0.0;
    const Real s1 = std::sqrt(1.0 - l1), s2 = std::sqrt(1.0 - l2);
    const int stride = ctx.width + 1;
    scale.assign(static_cast<std::size_t>(stride * stride), 1.0);
    inv.assign(scale.size(), 1.0);
    for (int n1 = 0; n1 <= ctx.width; ++n1) {
        for (int n2 = 0; n2 + n1 <= ctx.width; ++n2) {
            const Real s = std::pow(s1, n1) * std::pow(s2, n2);
            scale[static_cast<std::size_t>(n1 * stride + n2)] = s;
            inv[static_cast<std::size_t>(n1 * stride + n2)] = 1.0 / s;
        }
    }
}

/**
 * The fused path's rejected branch, entered with the joint no-jump
 * operator still applied to `psi`: undo it, then draw the jump from the
 * per-(wire, level) populations. Runs on an extracted lane.
 */
void
fused_rare_branch(StateVector& psi, const NoiseModel& model, Real dt,
                  const EngineContext& ctx, Rng& rng,
                  const std::vector<Real>& scale,
                  const std::vector<Real>& inv)
{
    obs::count(obs::Counter::kTrajRareBranches);
    psi.scale_by_table(ctx.count_key, inv);
    std::vector<Real> weights;
    std::vector<std::pair<int, int>> arms;  // (wire, level)
    for (int w = 0; w < ctx.width; ++w) {
        const auto pops = psi.populations(w);
        for (int m = 1; m < ctx.dim; ++m) {
            weights.push_back(model.lambda(m, dt) *
                              pops[static_cast<std::size_t>(m)]);
            arms.emplace_back(w, m);
        }
    }
    const std::optional<std::size_t> pick = rng.weighted_draw(weights);
    if (!pick.has_value()) {
        // Numerically-all-zero weights: there is no jump to draw (the
        // acceptance draw lost to rounding). Fall back to the no-jump
        // evolution instead of forcing a zero-population jump, which
        // used to die renormalising a zero state.
        psi.scale_by_table(ctx.count_key, scale);
        if (!psi.normalize()) {
            throw std::runtime_error(
                "trajectory: no-jump evolution produced a zero-norm state");
        }
        return;
    }
    apply_jump(psi, arms[*pick].first, arms[*pick].second);
    for (int w = 0; w < ctx.width; ++w) {
        if (w != arms[*pick].first) {
            apply_k0(psi, model, dt, w);
        }
    }
    if (!psi.normalize()) {
        throw std::runtime_error(
            "trajectory: no-jump evolution produced a zero-norm state");
    }
}

/** Draws and applies per-lane depolarizing errors after one gate. */
void
apply_gate_error_batched(exec::BatchedStateVector& psi,
                         const std::vector<const ErrorDraw*>& draws,
                         std::vector<Rng>& rngs, StateVector& lane,
                         exec::ExecScratch& scratch)
{
    const int lanes = psi.lanes();
    // One draw per (error site, lane) — the same lotteries an unbatched
    // shot would test, so the draw totals are batch-width invariant.
    obs::count(obs::Counter::kTrajGateErrorDraws,
               draws.size() * static_cast<std::uint64_t>(lanes));
    for (const ErrorDraw* e : draws) {
        for (int j = 0; j < lanes; ++j) {
            if (rngs[static_cast<std::size_t>(j)].uniform() >= e->total) {
                continue;  // no error on this lane
            }
            obs::count(obs::Counter::kTrajGateErrorsFired);
            obs::count(obs::Counter::kTrajLaneExtracts);
            const std::size_t pick = static_cast<std::size_t>(
                rngs[static_cast<std::size_t>(j)].uniform_int(
                    e->unitaries.size()));
            psi.extract_lane(j, lane);
            exec::apply_op(e->unitaries[pick], lane, scratch);
            psi.set_lane(j, lane);
        }
    }
}

/** Reusable buffers for the idle-noise steps (one set per moment loop;
 *  avoids a handful of heap allocations per moment). */
struct BatchNoiseScratch {
    std::vector<std::uint8_t> accepted;
    /** factors[lane][wire] for the batched dephasing kick; the nested
     *  vectors are sized on first use and refilled in place after that. */
    std::vector<std::vector<std::vector<Complex>>> dephasing_factors;
};

/** Batched fused damping: one joint table-scaled pass over all lanes;
 *  rejected lanes take the rare branch on the extracted lane. The
 *  scale/inv tables are a pure function of (model, dt), so the caller
 *  builds them once per moment duration instead of once per moment. */
void
apply_idle_damping_fused_batched(exec::BatchedStateVector& psi,
                                 const NoiseModel& model, Real dt,
                                 const EngineContext& ctx,
                                 const std::vector<Real>& scale,
                                 const std::vector<Real>& inv,
                                 std::vector<Rng>& rngs, StateVector& lane,
                                 BatchNoiseScratch& ds)
{
    const std::vector<Real> q =
        psi.scale_by_table_lanes(ctx.count_key, scale);
    const int lanes = psi.lanes();
    std::vector<std::uint8_t>& accepted = ds.accepted;
    accepted.assign(static_cast<std::size_t>(lanes), 0);
    for (int j = 0; j < lanes; ++j) {
        accepted[static_cast<std::size_t>(j)] =
            rngs[static_cast<std::size_t>(j)].uniform() <
                    q[static_cast<std::size_t>(j)]
                ? 1
                : 0;
    }
    // q already holds each lane's post-scale squared norm (accumulated in
    // exactly the order a recomputation would), so the normalize can skip
    // its own O(size * lanes) norm pass.
    const auto ok = psi.normalize_lanes_with(q, accepted);
    for (int j = 0; j < lanes; ++j) {
        if (accepted[static_cast<std::size_t>(j)] != 0 &&
            ok[static_cast<std::size_t>(j)] == 0) {
            throw std::runtime_error(
                "trajectory: no-jump evolution produced a zero-norm state");
        }
    }
    for (int j = 0; j < lanes; ++j) {
        if (accepted[static_cast<std::size_t>(j)] != 0) {
            continue;
        }
        obs::count(obs::Counter::kTrajLaneExtracts);
        psi.extract_lane(j, lane);
        fused_rare_branch(lane, model, dt, ctx,
                          rngs[static_cast<std::size_t>(j)], scale, inv);
        psi.set_lane(j, lane);
    }
}

/** Batched exact per-wire sequential idle damping (mixed radix / dim > 3):
 *  populations and the no-jump K0 run lane-parallel per wire; jump lanes
 *  take the jump on the extracted lane. */
void
apply_idle_damping_sequential_batched(exec::BatchedStateVector& psi,
                                      const NoiseModel& model, Real dt,
                                      std::vector<Rng>& rngs,
                                      StateVector& lane)
{
    const WireDims& dims = psi.dims();
    const int lanes = psi.lanes();
    const std::size_t B = static_cast<std::size_t>(lanes);
    std::vector<std::uint8_t> k0_mask(B);
    for (int w = 0; w < dims.num_wires(); ++w) {
        const int d = dims.dim(w);
        const bool nontrivial_k0 = k0_nontrivial(model, dt, d);
        const std::vector<Real> pops = psi.populations_lanes(w);
        std::fill(k0_mask.begin(), k0_mask.end(), 0);
        std::vector<Real> weights(static_cast<std::size_t>(d), 0.0);
        for (int j = 0; j < lanes; ++j) {
            const std::size_t uj = static_cast<std::size_t>(j);
            Real total = 0;
            for (int m = 1; m < d; ++m) {
                const Real pj =
                    model.lambda(m, dt) *
                    pops[static_cast<std::size_t>(m) * B + uj];
                weights[static_cast<std::size_t>(m)] = pj;
                total += pj;
            }
            const Real u = rngs[uj].uniform();
            if (u < total) {
                Real acc = 0;
                int level = d - 1;
                for (int m = 1; m < d; ++m) {
                    acc += weights[static_cast<std::size_t>(m)];
                    if (u < acc) {
                        level = m;
                        break;
                    }
                }
                obs::count(obs::Counter::kTrajLaneExtracts);
                psi.extract_lane(j, lane);
                apply_jump(lane, w, level);
                psi.set_lane(j, lane);
            } else if (nontrivial_k0) {
                k0_mask[uj] = 1;
            }
        }
        if (!nontrivial_k0) {
            continue;
        }
        bool any = false;
        for (const std::uint8_t m : k0_mask) {
            any = any || m != 0;
        }
        if (!any) {
            continue;
        }
        psi.apply_diag1_masked(k0_diag(model, dt, d), w, k0_mask);
        const auto ok = psi.normalize_lanes(k0_mask);
        for (int j = 0; j < lanes; ++j) {
            if (k0_mask[static_cast<std::size_t>(j)] != 0 &&
                ok[static_cast<std::size_t>(j)] == 0) {
                throw std::runtime_error(
                    "trajectory: no-jump evolution produced a zero-norm "
                    "state");
            }
        }
    }
}

/** Batched coherent dephasing kick: per-lane per-wire phase walks fused
 *  into one product-diagonal pass over all lanes. */
void
apply_idle_dephasing_batched(exec::BatchedStateVector& psi,
                             const NoiseModel& model, Real dt,
                             std::vector<Rng>& rngs,
                             BatchNoiseScratch& ds)
{
    const WireDims& dims = psi.dims();
    const int lanes = psi.lanes();
    const Real s = model.dephasing_sigma * std::sqrt(dt);
    std::vector<std::vector<std::vector<Complex>>>& factors =
        ds.dephasing_factors;
    factors.resize(static_cast<std::size_t>(lanes));
    for (int j = 0; j < lanes; ++j) {
        auto& lane_factors = factors[static_cast<std::size_t>(j)];
        lane_factors.resize(static_cast<std::size_t>(dims.num_wires()));
        for (int w = 0; w < dims.num_wires(); ++w) {
            const Real theta = rngs[static_cast<std::size_t>(j)].gaussian() * s;
            auto& f = lane_factors[static_cast<std::size_t>(w)];
            f.resize(static_cast<std::size_t>(dims.dim(w)));
            for (int m = 0; m < dims.dim(w); ++m) {
                f[static_cast<std::size_t>(m)] =
                    std::polar(1.0, static_cast<Real>(m) * theta);
            }
        }
    }
    psi.apply_product_diag_lanes(factors);
}

/**
 * The noisy moment loop: advances the prepared lanes `psi` (the inputs)
 * through the noisy compilation, lane j drawing from rngs[j], and returns
 * each lane's fidelity against the same lane of `ideal` (the noiseless
 * outputs). Counts one shot per lane.
 */
std::vector<Real>
run_lanes(const NoiseModel& model, const EngineContext& ctx,
          exec::BatchedStateVector& psi,
          const exec::BatchedStateVector& ideal, std::vector<Rng>& rngs,
          exec::BatchedScratch& bscratch, exec::ExecScratch& scratch,
          bool accel)
{
    obs::count(obs::Counter::kTrajShots,
               static_cast<std::uint64_t>(psi.lanes()));
    // The fused no-jump tables depend only on the moment duration, which
    // takes exactly two values — build each once per run, not per moment.
    std::vector<Real> scale_1q, inv_1q, scale_2q, inv_2q;
    if (model.has_damping() && accel) {
        build_damping_tables(model, model.dt_1q, ctx, scale_1q, inv_1q);
        build_damping_tables(model, model.dt_2q, ctx, scale_2q, inv_2q);
    }

    StateVector lane(psi.dims());  // reused for per-lane divergent events
    BatchNoiseScratch ds;
    for (const Moment& moment : ctx.moments) {
        obs::ScopedSpan mspan("traj", "moment");
        mspan.arg("ops",
                  static_cast<std::int64_t>(moment.op_indices.size()));
        for (const std::size_t idx : moment.op_indices) {
            exec::apply_op_batched(ctx.noisy.ops()[idx], psi,
                                    bscratch);
            apply_gate_error_batched(psi, ctx.errors[idx], rngs, lane,
                                     scratch);
        }
        const Real dt = model.moment_duration(moment.has_multi_qudit);
        if (model.has_damping()) {
            if (accel) {
                apply_idle_damping_fused_batched(
                    psi, model, dt, ctx,
                    moment.has_multi_qudit ? scale_2q : scale_1q,
                    moment.has_multi_qudit ? inv_2q : inv_1q, rngs, lane,
                    ds);
            } else {
                apply_idle_damping_sequential_batched(psi, model, dt, rngs,
                                                      lane);
            }
        }
        if (model.has_dephasing()) {
            apply_idle_dephasing_batched(psi, model, dt, rngs, ds);
        }
    }
    return psi.fidelity_lanes(ideal);
}

/**
 * Runs trials [start, start + lanes) as one shot group: per-lane streams
 * root.child(t) and random initial states, one batched noiseless pass for
 * the ideal outputs, then the moment loop. Writes each lane's fidelity to
 * fidelities[start + j].
 */
void
run_trajectory_batch(const NoiseModel& model, const EngineContext& ctx,
                     const TrajectoryOptions& options, const Rng& root,
                     int start, int lanes, std::vector<Real>& fidelities,
                     exec::BatchedScratch& bscratch,
                     exec::ExecScratch& scratch, bool accel)
{
    const WireDims& dims = ctx.noisy.dims();
    obs::count(obs::Counter::kTrajBatches);
    obs::ScopedSpan span("traj", "shot_batch");
    span.arg("start", start);
    span.arg("lanes", lanes);
    std::vector<Rng> rngs;
    rngs.reserve(static_cast<std::size_t>(lanes));
    exec::BatchedStateVector psi(dims, lanes);
    for (int j = 0; j < lanes; ++j) {
        rngs.push_back(root.child(static_cast<std::uint64_t>(start + j)));
        const StateVector initial =
            options.qubit_subspace_inputs
                ? haar_random_qubit_subspace_state(
                      dims, rngs[static_cast<std::size_t>(j)])
                : haar_random_state(dims,
                                    rngs[static_cast<std::size_t>(j)]);
        psi.set_lane(j, initial);
    }
    exec::BatchedStateVector ideal = psi;
    exec::run_batched(ctx.ideal, ideal, bscratch);

    const std::vector<Real> fid =
        run_lanes(model, ctx, psi, ideal, rngs, bscratch, scratch, accel);
    std::copy(fid.begin(), fid.end(),
              fidelities.begin() + static_cast<std::ptrdiff_t>(start));
}

/** Resolves the damping-engine choice against a compiled context's
 *  acceleration classification (no mutation — the context is shared).
 *  @throws std::invalid_argument if kFused is requested on a register the
 *          fused operator is undefined for. */
bool
resolve_damping_engine(const EngineContext& ctx, DampingEngine engine)
{
    if (engine == DampingEngine::kSequential) {
        return false;
    }
    if (engine == DampingEngine::kFused && !ctx.accel) {
        throw std::invalid_argument(
            "trajectory: fused damping requires a uniform register with "
            "dim <= 3");
    }
    return ctx.accel;
}

}  // namespace

Real
run_single_trajectory(const Circuit& circuit, const NoiseModel& model,
                      const StateVector& initial,
                      const StateVector& ideal_out, Rng& rng,
                      DampingEngine engine)
{
    verify::enforce_noisy(circuit, model);
    const TrajectoryCompilation compiled(circuit, model, {});
    return run_single_trajectory(compiled, initial, ideal_out, rng, engine);
}

Real
run_single_trajectory(const TrajectoryCompilation& compiled,
                      const StateVector& initial,
                      const StateVector& ideal_out, Rng& rng,
                      DampingEngine engine)
{
    const EngineContext& ctx = compiled.impl();
    const bool accel = resolve_damping_engine(ctx, engine);
    // One lane of the batched engine. set_lane rejects a state on another
    // register before any kernel runs.
    exec::BatchedStateVector psi(ctx.noisy.dims(), 1);
    exec::BatchedStateVector ideal(ctx.noisy.dims(), 1);
    psi.set_lane(0, initial);
    ideal.set_lane(0, ideal_out);
    std::vector<Rng> rngs{rng};
    exec::BatchedScratch bscratch;
    exec::ExecScratch scratch;
    const Real fidelity = run_lanes(compiled.model(), ctx, psi, ideal, rngs,
                                    bscratch, scratch, accel)[0];
    rng = rngs[0];  // the caller's stream advances as the shot drew
    return fidelity;
}

TrajectoryResult
run_noisy_trials(const Circuit& circuit, const NoiseModel& model,
                 const TrajectoryOptions& options)
{
    if (options.trials <= 0) {
        // A non-positive count used to divide by zero (NaN mean) and
        // size a zero-thread pool; reject it up front.
        throw std::invalid_argument(
            "run_noisy_trials: options.trials must be positive");
    }
    if (options.batch < 0) {
        throw std::invalid_argument(
            "run_noisy_trials: options.batch must be >= 0");
    }
    // The compile service verifies at admission under QD_VERIFY=strict
    // (same analysis verify::enforce_noisy ran here before the service
    // existed) and caches the compilation across calls. After the cheap
    // argument checks so the documented invalid_argument contract wins.
    const std::shared_ptr<const exec::CompiledArtifact> artifact =
        exec::CompileService::global().compile(circuit, model,
                                               exec::EngineKind::kTrajectory,
                                               options.fusion);
    return run_noisy_trials(*artifact->trajectory, options);
}

TrajectoryResult
run_noisy_trials(const TrajectoryCompilation& compiled,
                 const TrajectoryOptions& options)
{
    const int trials = options.trials;
    if (trials <= 0) {
        throw std::invalid_argument(
            "run_noisy_trials: options.trials must be positive");
    }
    if (options.batch < 0) {
        throw std::invalid_argument(
            "run_noisy_trials: options.batch must be >= 0");
    }
    int threads = options.threads;
    if (threads <= 0) {
        threads = static_cast<int>(std::thread::hardware_concurrency());
        if (threads <= 0) {
            threads = 1;
        }
    }
    const NoiseModel& model = compiled.model();
    const EngineContext& ctx = compiled.impl();
    // Trials are dealt out in fixed groups of `batch` lanes (the last
    // group may be narrower, covering trials < batch); lane t always runs
    // on stream root.child(t), so results are independent of the batch
    // width and of which worker claims which group.
    const int batch =
        options.batch > 0
            ? options.batch
            : default_lane_count(ctx.noisy.dims().size(), trials,
                                 std::min(threads, trials));
    const int num_batches = ceil_div(trials, batch);
    const int workers = std::min(threads, num_batches);
    // `threads` is the whole budget: each worker's kernels get an equal
    // share of it for their OpenMP teams.
    const int team = std::max(1, threads / workers);

    const bool accel =
        resolve_damping_engine(ctx, options.damping_engine);
    std::vector<Real> fidelities(static_cast<std::size_t>(trials), 0.0);
    std::atomic<int> next{0};
    const Rng root(options.seed);

    auto worker = [&]() {
        exec::ExecScratch scratch;  // reused across this worker's trials
        exec::BatchedScratch bscratch;
        scratch.threads = team;
        bscratch.threads = team;
        for (;;) {
            const int g = next.fetch_add(1);
            if (g >= num_batches) {
                return;
            }
            const int start = g * batch;
            run_trajectory_batch(model, ctx, options, root, start,
                                 std::min(batch, trials - start), fidelities,
                                 bscratch, scratch, accel);
        }
    };

    if (workers == 1) {
        worker();
    } else {
        std::vector<std::thread> pool;
        pool.reserve(static_cast<std::size_t>(workers));
        for (int i = 0; i < workers; ++i) {
            pool.emplace_back(worker);
        }
        for (std::thread& th : pool) {
            th.join();
        }
    }

    TrajectoryResult result;
    result.trials = trials;
    Real sum = 0, sum_sq = 0;
    for (const Real f : fidelities) {
        sum += f;
        sum_sq += f * f;
    }
    result.mean_fidelity = sum / trials;
    if (trials > 1) {
        const Real var =
            (sum_sq - sum * sum / trials) / static_cast<Real>(trials - 1);
        result.std_error = std::sqrt(std::max<Real>(var, 0) /
                                     static_cast<Real>(trials));
    }
    if (options.keep_per_trial) {
        result.per_trial = std::move(fidelities);
    }
    return result;
}

}  // namespace qd::noise
