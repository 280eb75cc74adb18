#include "qdsim/obs/counters.h"

#include <cstdlib>
#include <cstring>
#include <mutex>
#include <vector>

namespace qd::obs {

const char*
counter_name(Counter c) noexcept
{
    static constexpr const char* kNames[kNumCounters] = {
        "ss_permutation",
        "ss_diagonal",
        "ss_monomial",
        "ss_single_wire",
        "ss_controlled",
        "ss_dense",
        "bat_permutation",
        "bat_diagonal",
        "bat_monomial",
        "bat_single_wire",
        "bat_controlled",
        "bat_dense",
        "bat_dispatches",
        "super_diagonal",
        "super_monomial",
        "super_controlled",
        "super_dense",
        "plan_cache_hits",
        "plan_cache_misses",
        "plan_cache_inserts",
        "plan_builds",
        "fusion_ops_in",
        "fusion_blocks_out",
        "fusion_fused_groups",
        "fusion_cap_truncations",
        "fusion_cost_accepted",
        "fusion_cost_rejected",
        "service_hits",
        "service_misses",
        "service_evictions",
        "service_rejects",
        "service_circuit_hits",
        "service_circuit_misses",
        "traj_shots",
        "traj_batches",
        "traj_gate_error_draws",
        "traj_gate_errors_fired",
        "traj_damping_jumps",
        "traj_rare_branches",
        "traj_lane_extracts",
        "serve_connections",
        "serve_jobs_accepted",
        "serve_jobs_rejected",
        "serve_jobs_failed",
        "serve_jobs_ok",
        "serve_warm_hits",
        "estimated_flops",
    };
    const auto i = static_cast<std::size_t>(c);
    return i < kNumCounters ? kNames[i] : "unknown";
}

#if QD_OBS_BUILD

namespace detail {

namespace {

/** Registry of live per-thread blocks plus the retired accumulator.
 *  Constructed on first use and intentionally leaked so thread-exit
 *  destructors running after main() can still merge safely. */
struct Registry {
    std::mutex mu;
    std::vector<CounterBlock*> live;
    std::array<std::uint64_t, kNumCounters> retired{};
};

Registry&
registry()
{
    static Registry* r = new Registry();
    return *r;
}

/** Owns a thread's block; merges it into the retired totals on exit. */
struct TlsHolder {
    CounterBlock block;

    TlsHolder()
    {
        Registry& r = registry();
        const std::lock_guard<std::mutex> lock(r.mu);
        r.live.push_back(&block);
    }

    ~TlsHolder()
    {
        Registry& r = registry();
        const std::lock_guard<std::mutex> lock(r.mu);
        for (std::size_t i = 0; i < kNumCounters; ++i) {
            r.retired[i] += block.v[i].load(std::memory_order_relaxed);
        }
        for (std::size_t i = 0; i < r.live.size(); ++i) {
            if (r.live[i] == &block) {
                r.live.erase(r.live.begin() +
                             static_cast<std::ptrdiff_t>(i));
                break;
            }
        }
    }
};

bool
env_enabled()
{
    const char* v = std::getenv("QD_OBS");
    if (v == nullptr) {
        return false;
    }
    return std::strcmp(v, "1") == 0 || std::strcmp(v, "on") == 0 ||
           std::strcmp(v, "true") == 0;
}

}  // namespace

std::atomic<bool> g_enabled{env_enabled()};

CounterBlock&
tls_block()
{
    thread_local TlsHolder holder;
    return holder.block;
}

}  // namespace detail

void
set_enabled(bool on) noexcept
{
    detail::g_enabled.store(on, std::memory_order_relaxed);
}

CounterSnapshot
counters_snapshot()
{
    auto& r = detail::registry();
    const std::lock_guard<std::mutex> lock(r.mu);
    CounterSnapshot snap;
    snap.v = r.retired;
    for (const detail::CounterBlock* block : r.live) {
        for (std::size_t i = 0; i < kNumCounters; ++i) {
            snap.v[i] += block->v[i].load(std::memory_order_relaxed);
        }
    }
    return snap;
}

void
reset_counters()
{
    auto& r = detail::registry();
    const std::lock_guard<std::mutex> lock(r.mu);
    r.retired.fill(0);
    for (detail::CounterBlock* block : r.live) {
        for (std::size_t i = 0; i < kNumCounters; ++i) {
            block->v[i].store(0, std::memory_order_relaxed);
        }
    }
}

#endif  // QD_OBS_BUILD

}  // namespace qd::obs
