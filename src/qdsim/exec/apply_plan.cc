#include "qdsim/exec/apply_plan.h"

#include <algorithm>
#include <stdexcept>

#include "qdsim/obs/counters.h"

namespace qd::exec {

std::vector<Index>
local_offsets(const WireDims& dims, std::span<const int> wires)
{
    const int k = static_cast<int>(wires.size());
    Index block = 1;
    for (const int w : wires) {
        block *= static_cast<Index>(dims.dim(w));
    }
    // Odometer over operand digits, wires[0] most significant (matching
    // the gate-matrix basis), accumulating the linear offset incrementally.
    std::vector<Index> offsets(static_cast<std::size_t>(block));
    std::vector<int> digit(static_cast<std::size_t>(k), 0);
    Index off = 0;
    for (Index b = 0;; ++b) {
        offsets[static_cast<std::size_t>(b)] = off;
        if (b + 1 >= block) {
            break;
        }
        for (int i = k; i-- > 0;) {
            const std::size_t ui = static_cast<std::size_t>(i);
            const int w = wires[i];
            if (++digit[ui] < dims.dim(w)) {
                off += dims.stride(w);
                break;
            }
            off -= static_cast<Index>(digit[ui] - 1) * dims.stride(w);
            digit[ui] = 0;
        }
    }
    return offsets;
}

namespace {

/** Base index of every digit tuple over wires of `dims` / `strides`
 *  (least significant last), in odometer order. */
std::vector<Index>
odometer_bases(std::span<const Index> dims, std::span<const Index> strides)
{
    Index count = 1;
    for (const Index d : dims) {
        count *= d;
    }
    std::vector<Index> bases(static_cast<std::size_t>(count));
    std::vector<Index> odo(dims.size(), 0);
    Index base = 0;
    for (Index step = 0;; ++step) {
        bases[static_cast<std::size_t>(step)] = base;
        if (step + 1 >= count) {
            break;
        }
        for (std::size_t i = dims.size(); i-- > 0;) {
            if (++odo[i] < dims[i]) {
                base += strides[i];
                break;
            }
            base -= (odo[i] - 1) * strides[i];
            odo[i] = 0;
        }
    }
    return bases;
}

}  // namespace

std::shared_ptr<const ApplyPlan>
make_apply_plan(const WireDims& dims, std::span<const int> wires)
{
    const int k = static_cast<int>(wires.size());
    const int n = dims.num_wires();
    for (int i = 0; i < k; ++i) {
        if (wires[i] < 0 || wires[i] >= n) {
            throw std::invalid_argument(
                "make_apply_plan: wire index out of range");
        }
        for (int j = i + 1; j < k; ++j) {
            if (wires[i] == wires[j]) {
                throw std::invalid_argument(
                    "make_apply_plan: duplicate wire");
            }
        }
    }

    obs::count(obs::Counter::kPlanBuilds);
    auto plan = std::make_shared<ApplyPlan>();
    for (const int w : wires) {
        plan->block *= static_cast<Index>(dims.dim(w));
    }
    plan->local_offset = local_offsets(dims, wires);
    plan->outer = dims.size() / plan->block;
    if (plan->outer / ApplyPlan::kBaseTableCap > ApplyPlan::kBaseTableCap) {
        // Keeps the split tables near sqrt(outer) <= kBaseTableCap
        // entries; no such register fits in memory anyway.
        throw std::length_error("make_apply_plan: register too large");
    }

    // Non-operand wire geometry (least significant last).
    std::vector<Index> other_dims;
    std::vector<Index> other_strides;
    for (int w = 0; w < n; ++w) {
        bool is_operand = false;
        for (const int t : wires) {
            if (t == w) {
                is_operand = true;
                break;
            }
        }
        if (!is_operand) {
            other_dims.push_back(static_cast<Index>(dims.dim(w)));
            other_strides.push_back(dims.stride(w));
        }
    }
    // The low table takes the least significant wires while it stays
    // within sqrt(outer) entries; the high table takes the rest.
    std::size_t split = other_dims.size();
    for (Index lo = 1; split > 0;) {
        const Index next = lo * other_dims[split - 1];
        if (next > plan->outer / next) {
            break;
        }
        lo = next;
        --split;
    }
    const std::span<const Index> od(other_dims), os(other_strides);
    plan->base_hi = odometer_bases(od.first(split), os.first(split));
    plan->base_lo = odometer_bases(od.subspan(split), os.subspan(split));
    Index below = dims.size();  // configurations below the lowest operand
    for (const int w : wires) {
        below = std::min(below, dims.stride(w));
    }
    plan->run = std::min(below, static_cast<Index>(plan->base_lo.size()));

    if (plan->outer > ApplyPlan::kBaseTableCap) {
        return plan;  // large register: split tables only
    }
    plan->base_offsets.reserve(static_cast<std::size_t>(plan->outer));
    for (const Index hi : plan->base_hi) {
        for (const Index lo : plan->base_lo) {
            plan->base_offsets.push_back(hi + lo);
        }
    }
    return plan;
}

PlanCache::PlanCache(const PlanCache& other) : dims_(other.dims_)
{
    std::lock_guard<std::mutex> lock(other.mutex_);
    plans_ = other.plans_;
}

PlanCache&
PlanCache::operator=(const PlanCache& other)
{
    if (this == &other) {
        return *this;
    }
    // Consistent order (address order) prevents lock-order inversion.
    std::scoped_lock lock(this < &other ? mutex_ : other.mutex_,
                          this < &other ? other.mutex_ : mutex_);
    dims_ = other.dims_;
    plans_ = other.plans_;
    return *this;
}

std::shared_ptr<const ApplyPlan>
PlanCache::get(std::span<const int> wires, Index salt)
{
    auto key = std::make_pair(std::vector<int>(wires.begin(), wires.end()),
                              salt);
    std::lock_guard<std::mutex> lock(mutex_);
    auto it = plans_.find(key);
    if (it == plans_.end()) {
        // The plan is built under the lock, so concurrent requests for one
        // key see exactly one miss; the rest are hits.
        obs::count(obs::Counter::kPlanCacheMisses);
        it = plans_.emplace(std::move(key), make_apply_plan(dims_, wires))
                 .first;
    } else {
        obs::count(obs::Counter::kPlanCacheHits);
    }
    return it->second;
}

void
PlanCache::put(std::span<const int> wires,
               std::shared_ptr<const ApplyPlan> plan, Index salt)
{
    if (plan == nullptr) {
        return;
    }
    obs::count(obs::Counter::kPlanCacheInserts);
    std::lock_guard<std::mutex> lock(mutex_);
    plans_.emplace(std::make_pair(
                       std::vector<int>(wires.begin(), wires.end()), salt),
                   std::move(plan));
}

}  // namespace qd::exec
