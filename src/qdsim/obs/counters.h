/**
 * @file counters.h
 * Per-thread, deterministically-mergeable instrumentation counters.
 *
 * Every hook site in the engines calls obs::count(...) (usually under one
 * obs::enabled() check so disabled builds pay a single relaxed atomic load
 * plus a predictable branch). Counts land in a thread-local block, so hook
 * sites inside OpenMP or std::thread worker loops never serialize on a
 * shared cache line; a snapshot merges the per-thread blocks in registry
 * order. Because every counter is an unsigned integer and integer addition
 * is associative and commutative, the merged totals are bitwise identical
 * regardless of thread count or merge order — the "ordered merge" is
 * trivially deterministic.
 *
 * Thread-safety of the hot path: each slot is a std::atomic<uint64_t>
 * written ONLY by its owning thread with a relaxed load+add+store (plain
 * mov/add/mov on x86 — no lock prefix), while snapshot/reset use relaxed
 * loads/stores from other threads. A concurrent reader and a single writer
 * on an atomic object is not a data race, so the instrumented build is
 * clean under ThreadSanitizer. reset_counters() while hooks are firing is
 * allowed (no UB) but may lose in-flight increments; call it quiescent for
 * exact numbers.
 *
 * QD_PROFILE=OFF (CMake) defines QD_OBS_BUILD=0 and compiles every hook in
 * this header to an empty inline function.
 */
#ifndef QDSIM_OBS_COUNTERS_H
#define QDSIM_OBS_COUNTERS_H

#include <array>
#include <atomic>
#include <cstddef>
#include <cstdint>
#include <string>

#ifndef QD_OBS_BUILD
#define QD_OBS_BUILD 1
#endif

namespace qd::obs {

/**
 * Everything the instrumentation layer tracks. Kernel-dispatch counts are
 * kept per entry point of the one kernel set: the kSs* ("ss", single
 * state) counters advance by 1 per exec::apply_op, a one-lane pass, and
 * the kBat* counters by the lane count per apply_op_batched, so the
 * per-class SUM over both is invariant under the batch width (a lane of a
 * B-lane pass is bitwise the one-lane pass on it).
 */
enum class Counter : unsigned {
    // One state through exec::apply_op (a one-lane pass of
    // exec/batched_kernels.cc), one per dispatch.
    kSsPermutation = 0,
    kSsDiagonal,
    kSsMonomial,
    kSsSingleWire,  ///< unrolled d=2 / d=3 single-wire kernels
    kSsControlled,  ///< controlled and block-monomial kernels
    kSsDense,
    // exec::apply_op_batched over B lanes, LANES per dispatch.
    kBatPermutation,
    kBatDiagonal,
    kBatMonomial,
    kBatSingleWire,
    kBatControlled,  ///< controlled and block-monomial kernels
    kBatDense,
    kBatDispatches,  ///< apply_op_batched calls (NOT batch-invariant)
    // Density-matrix conjugations (noise/density_matrix.cc), one per
    // K rho K^dagger, by the CompiledOp's kernel class: permutation and
    // monomial count as monomial, block-monomial as controlled, and
    // single-wire and dense as dense.
    kSuperDiagonal,
    kSuperMonomial,
    kSuperControlled,
    kSuperDense,
    // PlanCache (exec/apply_plan.cc).
    kPlanCacheHits,
    kPlanCacheMisses,
    kPlanCacheInserts,  ///< explicit PlanCache::put seeds
    kPlanBuilds,        ///< make_apply_plan calls (cache misses + uncached)
    // Fusion (exec/fusion.cc).
    kFusionOpsIn,
    kFusionBlocksOut,
    kFusionFusedGroups,      ///< groups with >= 2 members
    kFusionCapTruncations,   ///< merges rejected by a fusion block cap
    kFusionCostAccepted,     ///< stage-2 union merges the cost model accepted
    kFusionCostRejected,     ///< stage-2 candidates rejected by the cost model
    // Compile service (exec/compile_service.cc).
    kServiceHits,        ///< artifact-cache hits (compile + verify skipped)
    kServiceMisses,      ///< artifact-cache misses (fresh compile)
    kServiceEvictions,   ///< LRU evictions past the configured capacity
    kServiceRejects,     ///< admissions rejected by the verify gate
    /** Circuit-tier lookups on an artifact miss: the circuit's entry
     *  (fused ideal, plans, admission reports) was live and reused. */
    kServiceCircuitHits,
    kServiceCircuitMisses,  ///< circuit-tier lookups that built an entry
    // Trajectory noise events (noise/trajectory.cc). Every count but
    // kTrajBatches is a per-lane sum, invariant under the batch width.
    kTrajShots,             ///< trajectories run (one per lane)
    kTrajBatches,           ///< batched shot groups (NOT batch-invariant)
    kTrajGateErrorDraws,    ///< gate-error lotteries presampled: sites x shots
    kTrajGateErrorsFired,   ///< presampled lotteries that drew an error
    kTrajDampingJumps,      ///< amplitude-damping jumps (threshold crossings)
    kTrajRareBranches,      ///< lane replays that crossed a damping threshold
    /** Lane replays: a lane re-ran one noisy op source op by source op as
     *  one-lane passes, from its checkpoint, after a fire or a
     *  threshold crossing inside the op. (A lane copied out as a
     *  checkpoint whose measured norm stayed above its threshold is not
     *  replayed and not counted.) */
    kTrajLaneExtracts,
    // Serving front-end (src/serve/): the qd_served daemon's request path,
    // which the stdin loop runs as one connection. Each moves only
    // together with its daemon-local ServeStats count.
    kServeConnections,   ///< client connections accepted (stdin loop = 1)
    kServeJobsAccepted,  ///< submit frames admitted to the run queue
    kServeJobsRejected,  ///< protocol/quota/decode/admission rejections
    kServeJobsFailed,    ///< admitted jobs that threw during execution
    kServeJobsOk,        ///< admitted jobs that completed successfully
    kServeWarmHits,      ///< jobs served from a warm CompiledArtifact
    // Work estimate (complex multiply-adds ~ 8 real flops each).
    kEstimatedFlops,

    kCount
};

inline constexpr std::size_t kNumCounters =
    static_cast<std::size_t>(Counter::kCount);

/** Stable snake_case identifier, used for report/JSON keys. */
const char* counter_name(Counter c) noexcept;

/** A merged point-in-time view of every counter. */
struct CounterSnapshot {
    std::array<std::uint64_t, kNumCounters> v{};

    std::uint64_t operator[](Counter c) const {
        return v[static_cast<std::size_t>(c)];
    }
    bool operator==(const CounterSnapshot& o) const { return v == o.v; }
};

#if QD_OBS_BUILD

namespace detail {

/** One thread's counter slots. Owner-only writers, relaxed everywhere. */
struct CounterBlock {
    std::array<std::atomic<std::uint64_t>, kNumCounters> v{};
};

/** The calling thread's block (registered on first use, merged into a
 *  retired accumulator when the thread exits). */
CounterBlock& tls_block();

extern std::atomic<bool> g_enabled;

}  // namespace detail

/** Runtime master switch. Initialised from the QD_OBS environment variable
 *  ("1"/"on"/"true" enable) so tests and CI can instrument without code
 *  changes; toggle with set_enabled(). */
inline bool enabled() noexcept {
    return detail::g_enabled.load(std::memory_order_relaxed);
}

void set_enabled(bool on) noexcept;

/** Adds `n` to counter `c` for the calling thread. Checks enabled()
 *  internally; hook sites that touch several counters (or compute an
 *  argument) should hoist their own enabled() check. */
inline void count(Counter c, std::uint64_t n = 1) noexcept {
    if (!enabled()) {
        return;
    }
    auto& slot = detail::tls_block().v[static_cast<std::size_t>(c)];
    slot.store(slot.load(std::memory_order_relaxed) + n,
               std::memory_order_relaxed);
}

/** Unconditional variant for sites already under an enabled() check. */
inline void count_unchecked(Counter c, std::uint64_t n = 1) noexcept {
    auto& slot = detail::tls_block().v[static_cast<std::size_t>(c)];
    slot.store(slot.load(std::memory_order_relaxed) + n,
               std::memory_order_relaxed);
}

/** Merged totals across every live and retired thread block. */
CounterSnapshot counters_snapshot();

/** Zeroes every slot (live blocks and the retired accumulator). */
void reset_counters();

#else  // !QD_OBS_BUILD — hooks compile to nothing.

inline bool enabled() noexcept { return false; }
inline void set_enabled(bool) noexcept {}
inline void count(Counter, std::uint64_t = 1) noexcept {}
inline void count_unchecked(Counter, std::uint64_t = 1) noexcept {}
inline CounterSnapshot counters_snapshot() { return {}; }
inline void reset_counters() {}

#endif  // QD_OBS_BUILD

}  // namespace qd::obs

#endif  // QDSIM_OBS_COUNTERS_H
