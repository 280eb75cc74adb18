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
#include "qdsim/obs/counters.h"
#include "qdsim/obs/trace.h"
#include "qdsim/random_state.h"

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

/** Relative slack taken off every per-op norm bound, so rounding in a
 *  pass (a relative 1e-14 or so, even for dense 27-blocks over 3^11
 *  amplitudes) can never make a lane's true norm fall below its bound
 *  and hide a threshold crossing. */
constexpr Real kKeepSlack = 1e-9;

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
 * CompileService), bound to the circuit's entry and its plan cache:
 *  - `ideal`, the entry's fully fused circuit, for the noiseless
 *    reference pass;
 *  - the noisy program `noisy()`: the ideal program when there is no idle
 *    noise; otherwise the circuit's ops in ASAP-moment order with each
 *    wire's no-jump damping step K0(wire, tau) inserted before the wire's
 *    next gate and once at the end (`steps`, `program`), compiled on the
 *    fused ideal's partition under damping alone (ideal_partition: one
 *    pass per ideal block, plus one per wire that no op touches) and per
 *    op under dephasing;
 *  - `per_op`, every step compiled alone, which replays run;
 *  - the gate-error lotteries in draw order (`sites`), each attached to
 *    the step it follows, and for each step the noisy op holding it;
 *  - for each noisy op, a lower bound on the share of ||psi||^2 it keeps
 *    (`keep`) and the dephasing kick that follows it (`kick`).
 */
struct TrajectoryCompilation::Impl {
    /**
     * One error lottery: with probability `total` a uniformly chosen
     * unitary from `unitaries` fires on `wires`. Few draws fire (3 in
     * 10,000 on the Figure 11 sweep), so a unitary is compiled when a
     * lane fires it (compile_error), not here.
     */
    struct ErrorDraw {
        Real total = 0;
        std::vector<int> wires;
        std::vector<Gate> unitaries;
    };

    /** The no-jump damping operator K0 of one wire dimension over one
     *  idle time tau. */
    struct Damping {
        Gate k0;  ///< diag(sqrt(1 - lambda_m)); empty when nothing decays
        std::vector<Real> lambda;  ///< lambda_m(tau), m = 0..d-1
        Real keep = 1;             ///< min_m (1 - lambda_m)
    };

    /** One source op of the noisy program. */
    struct Step {
        /** Non-null: the step is K0 on `wire`; null: a circuit op. */
        const Damping* damping = nullptr;
        int wire = -1;
    };

    /** One gate-error lottery, drawn after step `step`. */
    struct Site {
        std::uint32_t step = 0;
        const ErrorDraw* draw = nullptr;
    };

    /** The circuit, its fused ideal and the plans every compile below
     *  shares. */
    std::shared_ptr<const exec::CircuitEntry> entry;
    NoiseModel model;  ///< the model every trial draws from
    const exec::CompiledCircuit& ideal;  ///< the entry's fused circuit
    /** The noisy program's source ops, one per step, under idle noise
     *  (without it they are the circuit's: noisy_program()). */
    Circuit program;
    /** The noisy program on the ideal's partition, under damping without
     *  dephasing. */
    exec::CompiledCircuit fused;
    /** Every step compiled alone (empty when `ideal` already is). */
    exec::CompiledCircuit per_op;
    std::vector<Step> steps;
    std::vector<Site> sites;
    /** Per step: the index of the noisy op that realises it. */
    std::vector<std::uint32_t> block_of;
    /** Per noisy op: a lower bound on ||psi after||^2 / ||psi before||^2
     *  (the product of its K0 steps' `keep`, less kKeepSlack). */
    std::vector<Real> keep;
    /** Per noisy op: duration of the dephasing kick after it (0: none). */
    std::vector<Real> kick;
    /** True iff some step damps: lanes draw and track thresholds. */
    bool damping = false;

    // Non-copyable: `steps` and `sites` point into this object's memos,
    // and noisy() / replay() into its compilations.
    Impl(const Impl&) = delete;
    Impl& operator=(const Impl&) = delete;

    Impl(std::shared_ptr<const exec::CircuitEntry> circuit_entry,
         const NoiseModel& noise_model)
        : entry(std::move(circuit_entry)),
          model(noise_model),
          ideal(*entry->ideal()) {
        const Circuit& circuit = entry->circuit();
        const exec::FusionOptions& fusion = entry->fusion();
        exec::PlanCache& cache = entry->plans();
        exec::FusionOptions off = fusion;
        off.enabled = false;
        // source[s]: the circuit op step s realises (kNoSource for K0).
        std::vector<std::uint32_t> source;
        if (!model.has_damping() && !model.has_dephasing()) {
            // No idle noise: the noisy program is the ideal one.
            steps.resize(circuit.num_ops());
            source.resize(circuit.num_ops());
            for (std::size_t i = 0; i < source.size(); ++i) {
                source[i] = static_cast<std::uint32_t>(i);
            }
            if (fusion.enabled) {
                per_op = exec::CompiledCircuit(circuit, off, {}, &cache);
            }
            noisy_ = &ideal;
            replay_ = fusion.enabled ? &per_op : &ideal;
        } else {
            program = build_program(circuit, source);
            per_op = exec::CompiledCircuit(program, off, {}, &cache);
            replay_ = &per_op;
            noisy_ = &per_op;
            if (fusion.enabled && !model.has_dephasing()) {
                // No fences: a lane with an event inside a fused op
                // replays the op's source steps from a checkpoint.
                fused = exec::CompiledCircuit(program, ideal_partition(source),
                                              cache, fusion.plan_salt());
                noisy_ = &fused;
            }
        }
        build_sites(circuit, source);
        const std::size_t num_ops = noisy_->num_ops();
        block_of.assign(steps.size(), 0);
        keep.assign(num_ops, 1.0);
        kick.resize(num_ops, 0.0);  // build_program filled it per step
        for (std::size_t k = 0; k < num_ops; ++k) {
            Real bound = 1;
            for (const std::uint32_t s : noisy_->ops()[k].source_ops) {
                block_of[s] = static_cast<std::uint32_t>(k);
                if (steps[s].damping != nullptr) {
                    bound *= steps[s].damping->keep;
                }
            }
            keep[k] = bound * (1 - kKeepSlack);
        }
    }

    /** The program the noisy loop runs, one batched pass per op. */
    const exec::CompiledCircuit& noisy() const { return *noisy_; }
    /** The noisy program's source ops. */
    const Circuit& noisy_program() const {
        return noisy_ == &ideal ? entry->circuit() : program;
    }
    /** Step s compiled alone, as replays run it. */
    const exec::CompiledOp& replay(std::size_t s) const {
        return replay_->ops()[s];
    }
    /** Unitary `pick` of `draw`, compiled over the shared plans. */
    exec::CompiledOp compile_error(const ErrorDraw& draw,
                                   std::size_t pick) const {
        return exec::compile_op(ideal.dims(), draw.unitaries[pick],
                                draw.wires, &entry->plans());
    }

  private:
    static constexpr std::uint32_t kNoSource = ~std::uint32_t{0};

    /**
     * The damped noisy program's partition (`source` as build_program
     * filled it): the fused ideal's blocks, so the noisy loop makes as
     * many passes as the ideal. Ideal block k takes its circuit ops and
     * the K0 steps emitted just before them, a wire's trailing K0 step
     * joins the last block on that wire, and a wire that no op touches
     * gets a one-step block at the end. A K0 step is diagonal on a wire
     * its block already holds, so every block keeps the ideal's wires;
     * members are in step order, which keeps each wire's order.
     */
    std::vector<exec::FusedGroup> ideal_partition(
        const std::vector<std::uint32_t>& source) const {
        const std::vector<exec::CompiledOp>& blocks = ideal.ops();
        std::vector<exec::FusedGroup> groups(blocks.size());
        std::vector<std::uint32_t> block_of_op(entry->circuit().num_ops());
        std::vector<std::ptrdiff_t> last_block(
            static_cast<std::size_t>(ideal.dims().num_wires()), -1);
        for (std::size_t k = 0; k < blocks.size(); ++k) {
            groups[k].wires = blocks[k].wires;
            for (const std::uint32_t i : blocks[k].source_ops) {
                block_of_op[i] = static_cast<std::uint32_t>(k);
            }
            for (const int w : blocks[k].wires) {
                last_block[static_cast<std::size_t>(w)] =
                    static_cast<std::ptrdiff_t>(k);
            }
        }
        std::vector<std::uint32_t> pending;  // K0 steps before the next op
        for (std::uint32_t s = 0; s < source.size(); ++s) {
            if (source[s] == kNoSource) {
                pending.push_back(s);
                continue;
            }
            std::vector<std::uint32_t>& members =
                groups[block_of_op[source[s]]].members;
            members.insert(members.end(), pending.begin(), pending.end());
            members.push_back(s);
            pending.clear();
        }
        std::vector<exec::FusedGroup> idle;
        for (const std::uint32_t s : pending) {
            const int w = steps[s].wire;
            const std::ptrdiff_t k = last_block[static_cast<std::size_t>(w)];
            if (k >= 0) {
                groups[static_cast<std::size_t>(k)].members.push_back(s);
            } else {
                idle.push_back(exec::FusedGroup{{w}, {s}});
            }
        }
        for (exec::FusedGroup& g : groups) {
            std::sort(g.members.begin(), g.members.end());
        }
        groups.insert(groups.end(), idle.begin(), idle.end());
        return groups;
    }

    /**
     * The noisy program's source ops (filling `steps`, `source` and, under
     * dephasing, where the program stays per op, `kick`): the circuit's
     * ops in ASAP-moment order, each preceded by the K0 steps of its
     * wires' idle stretches (idle_stretches), and each wire's trailing
     * stretch at the end. Under dephasing a kick over the moment's
     * duration follows each moment's last op.
     */
    Circuit build_program(const Circuit& circuit,
                          std::vector<std::uint32_t>& source) {
        const WireDims& dims = circuit.dims();
        const IdleStretches idle = idle_stretches(circuit, model);
        Circuit program(dims);
        auto push = [&](const Gate& gate, const std::vector<int>& wires,
                        Step step, std::uint32_t src) {
            program.append(gate, wires);
            steps.push_back(step);
            source.push_back(src);
            if (model.has_dephasing()) {
                kick.push_back(0.0);
            }
        };
        auto damp = [&](int w, Real tau) {
            if (tau > 0 && model.has_damping()) {
                if (const Damping* d = damping_for(dims.dim(w), tau)) {
                    push(d->k0, {w}, Step{d, w}, kNoSource);
                    damping = true;
                }
            }
        };
        for (std::size_t m = 0; m < idle.moments.size(); ++m) {
            for (const std::size_t idx : idle.moments[m].op_indices) {
                const Operation& op = circuit.ops()[idx];
                for (std::size_t j = 0; j < op.wires.size(); ++j) {
                    damp(op.wires[j], idle.before[idx][j]);
                }
                push(op.gate, op.wires, Step{},
                     static_cast<std::uint32_t>(idx));
            }
            if (model.has_dephasing()) {
                kick.back() = idle.durations[m];  // after the moment's last op
            }
        }
        for (int w = 0; w < dims.num_wires(); ++w) {
            damp(w, idle.trailing[static_cast<std::size_t>(w)]);
        }
        return program;
    }

    /** The memoised K0 of a d-level wire over `tau`; null when no level
     *  decays (K0 is the identity and the step is dropped). */
    const Damping* damping_for(int d, Real tau) {
        auto [it, fresh] = damping_memo_.try_emplace({d, tau});
        Damping& damp = it->second;
        if (fresh) {
            damp.lambda.assign(static_cast<std::size_t>(d), 0.0);
            std::vector<Complex> diag(static_cast<std::size_t>(d),
                                      Complex(1, 0));
            bool decays = false;
            for (int m = 1; m < d; ++m) {
                const Real lam = model.lambda(m, tau);
                damp.lambda[static_cast<std::size_t>(m)] = lam;
                diag[static_cast<std::size_t>(m)] =
                    Complex(std::sqrt(1.0 - lam), 0);
                damp.keep = std::min(damp.keep, 1.0 - lam);
                decays = decays || lam > 0;
            }
            if (decays) {
                damp.k0 = Gate("k0", {d}, Matrix::diagonal(diag));
            }
        }
        return damp.k0.empty() ? nullptr : &damp;
    }

    /**
     * Builds every depolarizing error lottery a trajectory can draw and
     * lists them in step order. Placement comes from
     * enumerate_error_sites — the same policy the exact density-matrix
     * engine compiles against, so the two stay comparable. Draws are
     * memoised by (wires, per-channel probability), so a circuit with
     * many gates on the same wire pair builds its channel once.
     */
    void build_sites(const Circuit& circuit,
                     const std::vector<std::uint32_t>& source) {
        const auto per_op = enumerate_error_sites(circuit, model);
        for (std::size_t s = 0; s < source.size(); ++s) {
            if (source[s] == kNoSource) {
                continue;
            }
            for (const ErrorSite& site : per_op[source[s]]) {
                const auto key = std::make_pair(site.wires, site.per_channel);
                auto it = error_memo_.find(key);
                if (it == error_memo_.end()) {
                    MixedUnitaryChannel ch =
                        site.dims.size() == 1
                            ? depolarizing1(site.dims[0], site.per_channel)
                            : depolarizing2(site.dims[0], site.dims[1],
                                            site.per_channel);
                    ErrorDraw draw;
                    draw.total = static_cast<Real>(ch.probs.size()) *
                                 site.per_channel;
                    draw.wires = site.wires;
                    draw.unitaries.reserve(ch.unitaries.size());
                    for (Matrix& u : ch.unitaries) {
                        draw.unitaries.emplace_back("err", site.dims,
                                                    std::move(u));
                    }
                    it = error_memo_.emplace(key, std::move(draw)).first;
                }
                sites.push_back(
                    Site{static_cast<std::uint32_t>(s), &it->second});
            }
        }
    }

    const exec::CompiledCircuit* noisy_ = nullptr;
    const exec::CompiledCircuit* replay_ = nullptr;
    /** Owns the deduplicated draws and K0s; node-based maps keep the
     *  pointers in `sites` and `steps` stable. */
    std::map<std::pair<std::vector<int>, Real>, ErrorDraw> error_memo_;
    std::map<std::pair<int, Real>, Damping> damping_memo_;
};

TrajectoryCompilation::TrajectoryCompilation(
    const Circuit& circuit, const NoiseModel& model,
    const exec::FusionOptions& fusion)
    : TrajectoryCompilation(
          std::make_shared<const exec::CircuitEntry>(circuit, fusion),
          model) {}

TrajectoryCompilation::TrajectoryCompilation(
    std::shared_ptr<const exec::CircuitEntry> entry, const NoiseModel& model)
    : impl_(std::make_unique<Impl>(std::move(entry), model)) {}

TrajectoryCompilation::~TrajectoryCompilation() = default;

const NoiseModel&
TrajectoryCompilation::model() const
{
    return impl_->model;
}

const WireDims&
TrajectoryCompilation::dims() const
{
    return impl_->ideal.dims();
}

const exec::CompiledCircuit&
TrajectoryCompilation::ideal() const
{
    return impl_->ideal;
}

const exec::CompiledCircuit&
TrajectoryCompilation::noisy() const
{
    return impl_->noisy();
}

const Circuit&
TrajectoryCompilation::noisy_program() const
{
    return impl_->noisy_program();
}

std::vector<exec::FusedGroup>
TrajectoryCompilation::noisy_partition() const
{
    std::vector<exec::FusedGroup> groups;
    for (const exec::CompiledOp& op : impl_->noisy().ops()) {
        groups.push_back(exec::FusedGroup{op.wires, op.source_ops});
    }
    return groups;
}

namespace {

// The engine helpers below read the compilation through its original
// working name.
using EngineContext = TrajectoryCompilation::Impl;

// --------------------------------------------------------------------------
// One engine: B trajectory lanes advance through one pass per noisy op
// (run_single_trajectory is B = 1). A lane leaves the group only around an
// op holding one of its own events — a presampled gate error that fired,
// or a damping-threshold crossing — and replays that op's source steps
// from a checkpoint as one-lane passes of the same kernels, through the
// same scratch. Every decision reads only the lane's own stream and
// norms, and every lane primitive computes a lane from that lane alone,
// so a lane's result does not depend on the batch width.
// --------------------------------------------------------------------------

/** A presampled gate error: unitary `pick` of `draw` runs right after
 *  step `step`, which noisy op `block` realises. */
struct Fire {
    std::uint32_t block = 0;
    std::uint32_t step = 0;
    const EngineContext::ErrorDraw* draw = nullptr;
    std::size_t pick = 0;
};

/** One lane's noise state. */
struct LaneNoise {
    std::vector<Fire> fires;  ///< in program order
    std::size_t next = 0;     ///< first fire not applied yet
    Real threshold = 0;       ///< damping threshold r on ||psi||^2
    /** Lower bound on ||psi||^2 (exact right after a measure or a
     *  replayed K0 step). */
    Real norm = 1;
};

/** Draws every gate-error lottery of the program and the first damping
 *  threshold from the lane's stream, keeping the lotteries that fired. */
LaneNoise
presample(const EngineContext& ctx, Rng& rng)
{
    LaneNoise noise;
    for (const EngineContext::Site& site : ctx.sites) {
        if (rng.uniform() >= site.draw->total) {
            continue;  // no error at this site
        }
        obs::count(obs::Counter::kTrajGateErrorsFired);
        const std::size_t pick = static_cast<std::size_t>(
            rng.uniform_int(site.draw->unitaries.size()));
        noise.fires.push_back(
            Fire{ctx.block_of[site.step], site.step, site.draw, pick});
    }
    // Sites are listed in step order; a fused op may realise later steps
    // before earlier ones of another op. Stable: a step's errors keep
    // their site order.
    std::stable_sort(noise.fires.begin(), noise.fires.end(),
                     [](const Fire& a, const Fire& b) {
                         return a.block != b.block ? a.block < b.block
                                                   : a.step < b.step;
                     });
    if (ctx.damping) {
        noise.threshold = 1 - rng.uniform();  // U(0, 1]: r = 0 never jumps
    }
    return noise;
}

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

/**
 * One K0(wire, tau) step of a replay (step `s`). K0 keeps
 * sum_m (1 - lambda_m) * population(m) of ||psi||^2; when that falls
 * below the threshold the lane jumps instead, to |0> from level m with
 * weight lambda_m * population(m), renormalises and draws a new
 * threshold. Returns true on a jump.
 */
bool
damping_step(const EngineContext& ctx, std::size_t s, StateVector& lane,
             LaneNoise& noise, Rng& rng, exec::BatchedScratch& scratch)
{
    const EngineContext::Step& step = ctx.steps[s];
    const std::vector<Real>& lambda = step.damping->lambda;
    std::vector<Real> jump = lane.populations(step.wire);
    Real kept = 0;
    for (std::size_t m = 0; m < jump.size(); ++m) {
        kept += jump[m] * (1 - lambda[m]);
        jump[m] *= lambda[m];  // the weight of a jump from level m
    }
    const std::optional<std::size_t> level =
        kept < noise.threshold ? rng.weighted_draw(jump) : std::nullopt;
    if (!level) {
        // No crossing, or nothing to jump from (a lane left below its
        // threshold by rounding jumps at its next step that can).
        exec::apply_op(ctx.replay(s), lane, scratch);
        noise.norm = kept;
        return false;
    }
    apply_jump(lane, step.wire, static_cast<int>(*level));
    noise.norm = 1;
    noise.threshold = 1 - rng.uniform();
    return true;
}

/** Re-runs noisy op `k` on `lane` (its checkpoint from before the op),
 *  one source step at a time: K0 steps check the threshold, and each
 *  fired error runs right after its step. */
void
replay_op(const EngineContext& ctx, std::size_t k, StateVector& lane,
          LaneNoise& noise, Rng& rng, exec::BatchedScratch& scratch)
{
    obs::count(obs::Counter::kTrajLaneExtracts);
    bool crossed = false;
    for (const std::uint32_t s : ctx.noisy().ops()[k].source_ops) {
        if (ctx.steps[s].damping != nullptr) {
            crossed = damping_step(ctx, s, lane, noise, rng, scratch) ||
                      crossed;
        } else {
            exec::apply_op(ctx.replay(s), lane, scratch);
        }
        for (; noise.next < noise.fires.size() &&
               noise.fires[noise.next].step == s;
             ++noise.next) {
            const Fire& fire = noise.fires[noise.next];
            exec::apply_op(ctx.compile_error(*fire.draw, fire.pick), lane,
                           scratch);
        }
    }
    if (crossed) {
        obs::count(obs::Counter::kTrajRareBranches);
    }
}

/** Batched coherent dephasing kick: per-lane per-wire phase walks fused
 *  into one product-diagonal pass over all lanes. `factors[lane][wire]`
 *  is sized on first use and refilled in place after that. */
void
apply_idle_dephasing_batched(
    exec::BatchedStateVector& psi, const NoiseModel& model, Real dt,
    std::vector<Rng>& rngs,
    std::vector<std::vector<std::vector<Complex>>>& factors)
{
    const WireDims& dims = psi.dims();
    const int lanes = psi.lanes();
    const Real s = model.dephasing_sigma * std::sqrt(dt);
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
 * The noisy loop: advances the prepared lanes `psi` (the inputs) through
 * the noisy program, lane j drawing from rngs[j], and returns each lane's
 * fidelity against the same lane of `ideal` (the noiseless outputs),
 * divided by the lane's final ||psi||^2. Counts one shot per lane.
 *
 * Before the pass of op k, every lane that fires an error in k, or whose
 * norm times keep[k] is below its threshold (the norm measured afresh
 * whenever the carried bound says so), is copied out as a checkpoint.
 * After the pass, a lane that fired, or whose measured norm fell below
 * its threshold, replays k from the checkpoint and is written back; a
 * lane measured above its threshold keeps the measured norm, and every
 * other lane carries norm * keep[k] forward.
 */
std::vector<Real>
run_lanes(const EngineContext& ctx, exec::BatchedStateVector& psi,
          const exec::BatchedStateVector& ideal, std::vector<Rng>& rngs,
          exec::BatchedScratch& scratch)
{
    const int lanes = psi.lanes();
    const std::size_t B = static_cast<std::size_t>(lanes);
    obs::count(obs::Counter::kTrajShots, B);
    // One draw per (error site, lane): the same lotteries a one-lane run
    // tests, so the draw totals are batch-width invariant.
    obs::count(obs::Counter::kTrajGateErrorDraws, ctx.sites.size() * B);
    std::vector<LaneNoise> noise;
    noise.reserve(B);
    for (std::size_t j = 0; j < B; ++j) {
        noise.push_back(presample(ctx, rngs[j]));
    }

    enum : std::uint8_t { kStays, kMayCross, kFires };
    std::vector<std::uint8_t> event(B, kStays);
    std::vector<std::optional<StateVector>> checkpoint(B);
    std::vector<std::vector<std::vector<Complex>>> kick_factors;
    const std::vector<exec::CompiledOp>& ops = ctx.noisy().ops();
    for (std::size_t k = 0; k < ops.size(); ++k) {
        for (std::size_t j = 0; j < B; ++j) {
            LaneNoise& n = noise[j];
            if (n.next < n.fires.size() && n.fires[n.next].block == k) {
                event[j] = kFires;
            } else if (ctx.damping && n.norm * ctx.keep[k] < n.threshold) {
                // The bound allows a crossing in k: measure the norm
                // before paying for a checkpoint.
                n.norm = psi.norm_sq_lane(static_cast<int>(j));
                event[j] =
                    n.norm * ctx.keep[k] < n.threshold ? kMayCross : kStays;
            } else {
                event[j] = kStays;
            }
            if (event[j] != kStays) {
                if (!checkpoint[j]) {
                    checkpoint[j].emplace(psi.dims());
                }
                psi.extract_lane(static_cast<int>(j), *checkpoint[j]);
            }
        }
        exec::apply_op_batched(ops[k], psi, scratch);
        for (std::size_t j = 0; j < B; ++j) {
            LaneNoise& n = noise[j];
            if (event[j] == kStays) {
                n.norm *= ctx.keep[k];
                continue;
            }
            if (event[j] == kMayCross) {
                const Real measured = psi.norm_sq_lane(static_cast<int>(j));
                if (measured >= n.threshold) {
                    n.norm = measured;
                    continue;
                }
            }
            replay_op(ctx, k, *checkpoint[j], n, rngs[j], scratch);
            psi.set_lane(static_cast<int>(j), *checkpoint[j]);
        }
        if (ctx.kick[k] > 0) {
            apply_idle_dephasing_batched(psi, ctx.model, ctx.kick[k], rngs,
                                         kick_factors);
        }
    }
    std::vector<Real> fidelity = psi.fidelity_lanes(ideal);
    const std::vector<Real> norm_sq = psi.norm_sq_lanes();
    for (std::size_t j = 0; j < B; ++j) {
        fidelity[j] /= norm_sq[j];
    }
    return fidelity;
}

/**
 * Runs trials [start, start + lanes) as one shot group: per-lane streams
 * root.child(t) and random initial states, one batched noiseless pass for
 * the ideal outputs, then the noisy loop. Writes each lane's fidelity to
 * fidelities[start + j].
 */
void
run_trajectory_batch(const EngineContext& ctx,
                     const TrajectoryOptions& options, const Rng& root,
                     int start, int lanes, std::vector<Real>& fidelities,
                     exec::BatchedScratch& scratch)
{
    const WireDims& dims = ctx.ideal.dims();
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
    exec::run_batched(ctx.ideal, ideal, scratch);

    const std::vector<Real> fid = run_lanes(ctx, psi, ideal, rngs, scratch);
    std::copy(fid.begin(), fid.end(),
              fidelities.begin() + static_cast<std::ptrdiff_t>(start));
}

}  // namespace

Real
run_single_trajectory(const Circuit& circuit, const NoiseModel& model,
                      const StateVector& initial,
                      const StateVector& ideal_out, Rng& rng)
{
    // Admitted and cached by the compile service, as run_noisy_trials
    // (circuit, ...) is.
    return run_single_trajectory(
        *exec::CompileService::global()
             .compile(circuit, model, exec::EngineKind::kTrajectory, {})
             ->trajectory,
        initial, ideal_out, rng);
}

Real
run_single_trajectory(const TrajectoryCompilation& compiled,
                      const StateVector& initial,
                      const StateVector& ideal_out, Rng& rng)
{
    const EngineContext& ctx = compiled.impl();
    // One lane of the batched engine. set_lane rejects a state on another
    // register before any kernel runs.
    exec::BatchedStateVector psi(compiled.dims(), 1);
    exec::BatchedStateVector ideal(compiled.dims(), 1);
    psi.set_lane(0, initial);
    ideal.set_lane(0, ideal_out);
    std::vector<Rng> rngs{rng};
    exec::BatchedScratch scratch;
    const Real fidelity = run_lanes(ctx, psi, ideal, rngs, scratch)[0];
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
    // and caches the compilation across calls. After the cheap argument
    // checks so the documented invalid_argument contract wins.
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
    const EngineContext& ctx = compiled.impl();
    // Trials are dealt out in fixed groups of `batch` lanes (the last
    // group may be narrower, covering trials < batch); lane t always runs
    // on stream root.child(t), so results are independent of the batch
    // width and of which worker claims which group.
    const int batch =
        options.batch > 0
            ? options.batch
            : default_lane_count(compiled.dims().size(), trials,
                                 std::min(threads, trials));
    const int num_batches = ceil_div(trials, batch);
    const int workers = std::min(threads, num_batches);
    // `threads` is the whole budget: each worker's kernels get an equal
    // share of it for their OpenMP teams.
    const int team = std::max(1, threads / workers);

    std::vector<Real> fidelities(static_cast<std::size_t>(trials), 0.0);
    std::atomic<int> next{0};
    const Rng root(options.seed);

    auto worker = [&]() {
        // Reused across this worker's groups and the replays between
        // their passes, which run on this thread.
        exec::BatchedScratch scratch;
        scratch.threads = team;
        for (;;) {
            const int g = next.fetch_add(1);
            if (g >= num_batches) {
                return;
            }
            const int start = g * batch;
            run_trajectory_batch(ctx, options, root, start,
                                 std::min(batch, trials - start), fidelities,
                                 scratch);
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
    Real sum = 0;
    for (const Real f : fidelities) {
        sum += f;
    }
    result.mean_fidelity = sum / trials;
    if (trials > 1) {
        // Two passes: the spread about the mean, not sum_sq - sum^2 / n,
        // whose cancellation loses every digit when fidelities cluster.
        Real sq = 0;
        for (const Real f : fidelities) {
            sq += (f - result.mean_fidelity) * (f - result.mean_fidelity);
        }
        result.std_error = std::sqrt(sq / static_cast<Real>(trials - 1) /
                                     static_cast<Real>(trials));
    }
    if (options.keep_per_trial) {
        result.per_trial = std::move(fidelities);
    }
    return result;
}

}  // namespace qd::noise
