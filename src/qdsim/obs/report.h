/**
 * @file report.h
 * SimReport: a merged snapshot of the instrumentation counters with the
 * derived metrics the benches gate on, serialisable both human-readable
 * and as flat JSON matching the BENCH_*.json shape (every key prefixed
 * "obs_") so scripts/compare_bench.py can track observability metrics
 * alongside speedups.
 */
#ifndef QDSIM_OBS_REPORT_H
#define QDSIM_OBS_REPORT_H

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "qdsim/obs/counters.h"

namespace qd::obs {

struct SimReport {
    CounterSnapshot counters;

    /** Kernel-class totals summed over the one-state (kSs*) and batched
     *  (kBat*) counters of the one kernel set (batched counters advance by
     *  lane count, so these totals are invariant under the batch width).
     *  Order: permutation, diagonal, monomial, single_wire, controlled,
     *  dense. */
    std::array<std::uint64_t, 6> kernel_class_totals() const;

    /** hits / (hits + misses); 1.0 when the cache was never consulted. */
    double plan_cache_hit_rate() const;

    /**
     * Flat metric list in emission order: every raw counter as
     * ("obs_<counter_name>", value) followed by the derived
     * ("obs_kernel_<class>", total) entries. cache_hit_rate is the only
     * non-integer metric and is exposed separately.
     */
    std::vector<std::pair<std::string, std::uint64_t>> metrics() const;

    /** Aligned human-readable table (only non-zero counters, plus the
     *  derived metrics). */
    std::string to_string() const;

    /** Flat JSON object: {"obs_...": N, ..., "obs_cache_hit_rate": x}. */
    std::string to_json() const;
};

/** Snapshot of the current counter totals. With QD_OBS_BUILD=0 this
 *  returns an all-zero report. */
SimReport report_snapshot();

}  // namespace qd::obs

#endif  // QDSIM_OBS_REPORT_H
