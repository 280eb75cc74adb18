#include "qdsim/verify/fusion_audit.h"

#include <algorithm>
#include <cstddef>
#include <iterator>
#include <set>
#include <string>
#include <vector>

#include "qdsim/exec/kernels.h"
#include "qdsim/gate.h"

namespace qd::verify {

namespace {

using exec::FusedGroup;
using exec::FusionOptions;

/** A per-class cap of 0 inherits the global max_block (fusion.cc rule). */
Index
effective_cap(Index specific, Index fallback)
{
    return specific != 0 ? specific : fallback;
}

/** Coarse kernel class of a gate, mirroring fusion.cc's classify():
 *  0 = light (permutation/diagonal/monomial), 1 = controlled, 2 = heavy. */
int
coarse_class(const Gate& gate)
{
    if (gate.is_permutation() || gate.is_diagonal_gate()) {
        return 0;
    }
    std::vector<Index> perm;
    std::vector<Complex> phase;
    if (exec::monomial_action(gate.matrix(), perm, phase)) {
        return 0;
    }
    return gate.has_controlled_structure() ? 1 : 2;
}

/** The fused operator of a group as a Gate, so its cached structure
 *  classifies exactly the way compile_op will. */
Gate
probe_gate(const WireDims& dims, std::span<const Operation> ops,
           const FusedGroup& group)
{
    std::vector<int> gdims;
    gdims.reserve(group.wires.size());
    for (const int w : group.wires) {
        gdims.push_back(dims.dim(w));
    }
    return Gate("fused-audit", std::move(gdims),
                exec::fused_matrix(dims, ops, group));
}

std::string
members_str(const FusedGroup& group)
{
    std::string s = "group {";
    for (std::size_t i = 0; i < group.members.size(); ++i) {
        if (i > 0) {
            s += ',';
        }
        s += std::to_string(group.members[i]);
    }
    return s + "}";
}

/** Structural invariants of a partition; returns true when the cover is
 *  sound enough for the order/fence/cost checks to be meaningful. */
bool
check_cover(std::span<const Operation> ops,
            std::span<const FusedGroup> groups, Report& report)
{
    std::vector<std::uint8_t> seen(ops.size(), 0);
    bool ok = true;
    for (const FusedGroup& g : groups) {
        if (g.members.empty()) {
            report.add("fusion.cover", Severity::kError, -1,
                       "empty fused group in the partition");
            ok = false;
            continue;
        }
        std::uint32_t prev = 0;
        for (std::size_t j = 0; j < g.members.size(); ++j) {
            const std::uint32_t m = g.members[j];
            if (m >= ops.size()) {
                report.add("fusion.cover", Severity::kError, -1,
                           members_str(g) + ": member " + std::to_string(m) +
                               " outside the operation sequence");
                ok = false;
            } else if (seen[m]) {
                report.add("fusion.cover", Severity::kError,
                           static_cast<std::ptrdiff_t>(m),
                           members_str(g) + ": op appears in two groups");
                ok = false;
            } else {
                seen[m] = 1;
            }
            if (j > 0 && m <= prev) {
                report.add("fusion.cover", Severity::kError,
                           static_cast<std::ptrdiff_t>(m),
                           members_str(g) + ": members not ascending");
                ok = false;
            }
            prev = m;
        }
    }
    for (std::size_t i = 0; i < seen.size(); ++i) {
        if (!seen[i]) {
            report.add("fusion.cover", Severity::kError,
                       static_cast<std::ptrdiff_t>(i),
                       "op missing from every fused group");
            ok = false;
        }
    }
    return ok;
}

void
check_wires(const WireDims& dims, std::span<const Operation> ops,
            const FusedGroup& g, Report& report)
{
    std::set<int> wire_set;
    for (const int w : g.wires) {
        if (w < 0 || w >= dims.num_wires() || !wire_set.insert(w).second) {
            report.add("fusion.wires", Severity::kError,
                       g.members.empty()
                           ? -1
                           : static_cast<std::ptrdiff_t>(g.members.front()),
                       members_str(g) + ": group wire " + std::to_string(w) +
                           " out of range or duplicated");
            return;
        }
    }
    for (const std::uint32_t m : g.members) {
        if (m >= ops.size()) {
            continue;
        }
        for (const int w : ops[m].wires) {
            if (!wire_set.count(w)) {
                report.add("fusion.wires", Severity::kError,
                           static_cast<std::ptrdiff_t>(m),
                           members_str(g) + ": member op wire " +
                               std::to_string(w) +
                               " not covered by the group wires");
            }
        }
    }
}

/** Cap bound for a block of final class `cls`: the builder may have
 *  assigned any class at least as heavy while merging (products only get
 *  lighter), so the sound bound is the max cap over those classes. */
Index
cap_bound(int cls, const FusionOptions& options)
{
    const Index light =
        effective_cap(options.max_block_light, options.max_block);
    const Index ctrl =
        effective_cap(options.max_block_controlled, options.max_block);
    const Index dense =
        effective_cap(options.max_block_dense, options.max_block);
    if (cls == 2) {
        return dense;
    }
    if (cls == 1) {
        return std::max(ctrl, dense);
    }
    return std::max({light, ctrl, dense});
}

struct GroupEval {
    Gate probe;
    int cls = 2;
    Index block = 1;
    std::uint64_t cost = 0;
};

GroupEval
eval_group(const WireDims& dims, std::span<const Operation> ops,
           const FusedGroup& g)
{
    GroupEval e;
    e.probe = probe_gate(dims, ops, g);
    e.cls = coarse_class(e.probe);
    e.block = e.probe.block_size();
    e.cost = exec::estimate_block_cost(dims, g.wires, e.probe, dims.size());
    return e;
}

std::uint64_t
member_cost_sum(const WireDims& dims, std::span<const Operation> ops,
                const FusedGroup& g)
{
    std::uint64_t sum = 0;
    for (const std::uint32_t m : g.members) {
        const Operation& op = ops[m];
        sum += exec::estimate_block_cost(dims, op.wires, op.gate,
                                         dims.size());
    }
    return sum;
}

/** Admission slack absorbing float noise in fused-matrix products. */
bool
cost_within(std::uint64_t cand, double ratio, std::uint64_t parts)
{
    return static_cast<double>(cand) <=
           ratio * static_cast<double>(parts) * (1.0 + 1e-9) + 1.0;
}

void
check_caps_and_cost(const WireDims& dims, std::span<const Operation> ops,
                    std::span<const FusedGroup> groups,
                    const FusionOptions& options, bool check_cost,
                    Report& report)
{
    for (const FusedGroup& g : groups) {
        if (g.wires.size() <= 1) {
            continue;  // single-wire collapses run the unrolled kernels
        }
        if (g.members.size() < 2) {
            continue;  // nothing fused; compiled exactly like a plain op
        }
        const GroupEval e = eval_group(dims, ops, g);
        const std::ptrdiff_t anchor =
            static_cast<std::ptrdiff_t>(g.members.front());
        const Index cap = cap_bound(e.cls, options);
        if (e.block > cap) {
            report.add("fusion.cap", Severity::kError, anchor,
                       members_str(g) + ": fused block " +
                           std::to_string(e.block) +
                           " exceeds the per-class cap " +
                           std::to_string(cap));
        }

        // Class algebra: a group built purely from light members must
        // still land on a light (cycle-walk/diagonal) kernel.
        bool all_light = true;
        for (const std::uint32_t m : g.members) {
            all_light = all_light && coarse_class(ops[m].gate) == 0;
        }
        if (all_light && e.cls != 0) {
            report.add("fusion.class-algebra", Severity::kError, anchor,
                       members_str(g) +
                           ": light members fused into a non-light block");
        }

        if (check_cost) {
            const std::uint64_t parts = member_cost_sum(dims, ops, g);
            const double ratio = std::max(1.0, options.cost_ratio);
            if (!cost_within(e.cost, ratio, parts)) {
                report.add("fusion.cost-regression", Severity::kError,
                           anchor,
                           members_str(g) + ": fused cost " +
                               std::to_string(e.cost) +
                               " exceeds bound over member costs " +
                               std::to_string(parts));
            }
        }
    }
}

void
check_order_and_fences(std::span<const Operation> ops,
                       std::span<const std::uint8_t> fence_after,
                       std::span<const FusedGroup> groups, Report& report)
{
    const std::size_t n = ops.size();

    // Execution position of every op in the concatenated group order.
    std::vector<std::size_t> exec_pos(n, 0);
    std::size_t pos = 0;
    for (const FusedGroup& g : groups) {
        for (const std::uint32_t m : g.members) {
            exec_pos[m] = pos++;
        }
    }

    // Commute safety: when op m executes, every earlier op sharing one of
    // its wires must already have executed (ops may only slide past
    // disjoint-wire groups). Per-wire pending index sets give the
    // earliest not-yet-executed op on each wire.
    std::vector<std::set<std::uint32_t>> pending;
    int max_wire = -1;
    for (const Operation& op : ops) {
        for (const int w : op.wires) {
            max_wire = std::max(max_wire, w);
        }
    }
    pending.resize(static_cast<std::size_t>(max_wire + 1));
    for (std::uint32_t m = 0; m < n; ++m) {
        for (const int w : ops[m].wires) {
            if (w >= 0) {
                pending[static_cast<std::size_t>(w)].insert(m);
            }
        }
    }
    for (const FusedGroup& g : groups) {
        for (const std::uint32_t m : g.members) {
            for (const int w : ops[m].wires) {
                if (w < 0) {
                    continue;
                }
                auto& set = pending[static_cast<std::size_t>(w)];
                if (!set.empty() && *set.begin() < m) {
                    report.add("fusion.commute", Severity::kError,
                               static_cast<std::ptrdiff_t>(m),
                               members_str(g) + ": op slid past op " +
                                   std::to_string(*set.begin()) +
                                   " sharing wire " + std::to_string(w));
                }
            }
            for (const int w : ops[m].wires) {
                if (w >= 0) {
                    pending[static_cast<std::size_t>(w)].erase(m);
                }
            }
        }
    }

    if (fence_after.empty()) {
        return;
    }

    // Fences: nothing after fence f may execute before anything at or
    // before f (prefix-max vs suffix-min of execution positions), and no
    // group may span a fence internally.
    std::vector<std::size_t> fence_prefix(n + 1, 0);
    for (std::size_t i = 0; i < n; ++i) {
        fence_prefix[i + 1] = fence_prefix[i] + (fence_after[i] ? 1 : 0);
    }
    for (const FusedGroup& g : groups) {
        const std::uint32_t lo = g.members.front();
        const std::uint32_t hi = g.members.back();
        if (fence_prefix[hi] - fence_prefix[lo] > 0) {
            report.add("fusion.fence-span", Severity::kError,
                       static_cast<std::ptrdiff_t>(lo),
                       members_str(g) + ": fused block spans a noise fence "
                                        "between its members");
        }
    }
    std::vector<std::size_t> prefix_max(n, 0);
    std::vector<std::size_t> suffix_min(n, 0);
    for (std::size_t i = 0; i < n; ++i) {
        prefix_max[i] =
            i ? std::max(prefix_max[i - 1], exec_pos[i]) : exec_pos[i];
    }
    for (std::size_t i = n; i-- > 0;) {
        suffix_min[i] = i + 1 < n ? std::min(suffix_min[i + 1], exec_pos[i])
                                  : exec_pos[i];
    }
    for (std::size_t f = 0; f + 1 < n; ++f) {
        if (fence_after[f] && prefix_max[f] > suffix_min[f + 1]) {
            report.add("fusion.fence-span", Severity::kError,
                       static_cast<std::ptrdiff_t>(f),
                       "an op crossed the noise fence after op " +
                           std::to_string(f) + " in the fused order");
        }
    }
}

void
audit_partition_impl(const WireDims& dims, std::span<const Operation> ops,
                     std::span<const std::uint8_t> fence_after,
                     std::span<const FusedGroup> groups,
                     const FusionOptions& options, bool check_cost,
                     Report& report)
{
    if (!fence_after.empty() && fence_after.size() != ops.size()) {
        report.add("fusion.cover", Severity::kError, -1,
                   "fence_after length does not match the op sequence");
        return;
    }
    if (!check_cover(ops, groups, report)) {
        return;
    }
    for (const FusedGroup& g : groups) {
        check_wires(dims, ops, g, report);
    }
    check_order_and_fences(ops, fence_after, groups, report);
    check_caps_and_cost(dims, ops, groups, options, check_cost, report);
}

}  // namespace

void
audit_partition(const WireDims& dims, std::span<const Operation> ops,
                std::span<const std::uint8_t> fence_after,
                std::span<const FusedGroup> groups,
                const FusionOptions& options, Report& report)
{
    audit_partition_impl(dims, ops, fence_after, groups, options,
                         /*check_cost=*/true, report);
}

void
audit_fusion(const WireDims& dims, std::span<const Operation> ops,
             std::span<const std::uint8_t> fence_after,
             const FusionOptions& options, Report& report)
{
    const std::vector<FusedGroup> groups =
        exec::fuse_sites(dims, ops, fence_after, options);
    // Structural invariants; the singleton-sum cost bound is replaced by
    // the exact two-level contract below (stage-1 single-wire collapses
    // may legitimately exceed it — the builder's documented exemption).
    audit_partition_impl(dims, ops, fence_after, groups, options,
                         /*check_cost=*/false, report);
    if (report.has_errors()) {
        return;  // cover/order broken; cost accounting is meaningless
    }

    FusionOptions stage1_options = options;
    stage1_options.cost_model = false;
    const std::vector<FusedGroup> stage1 =
        exec::fuse_sites(dims, ops, fence_after, stage1_options);

    // Stage-1 contract: a multi-wire class-algebra merge never exceeds
    // the summed cost of its members (light stays light, controlled
    // merges share one pass, dense blocks only absorb).
    std::vector<std::uint64_t> stage1_cost(stage1.size(), 0);
    std::vector<std::size_t> op_to_stage1(ops.size(), 0);
    for (std::size_t s = 0; s < stage1.size(); ++s) {
        const FusedGroup& g = stage1[s];
        for (const std::uint32_t m : g.members) {
            op_to_stage1[m] = s;
        }
        const GroupEval e = eval_group(dims, ops, g);
        stage1_cost[s] = e.cost;
        if (g.wires.size() > 1 && g.members.size() > 1 &&
            !cost_within(e.cost, 1.0, member_cost_sum(dims, ops, g))) {
            report.add("fusion.cost-regression", Severity::kError,
                       static_cast<std::ptrdiff_t>(g.members.front()),
                       members_str(g) +
                           ": stage-1 merge costlier than its members");
        }
    }

    // Stage-2 contract: a union merge of whole stage-1 groups was
    // admitted at est(union) <= cost_ratio * sum(est(stage-1 parts)).
    if (!options.cost_model) {
        return;
    }
    for (const FusedGroup& g : groups) {
        std::set<std::size_t> parts;
        for (const std::uint32_t m : g.members) {
            parts.insert(op_to_stage1[m]);
        }
        if (parts.size() < 2) {
            continue;  // identical to a stage-1 group (or finer; stage 2
                       // only coarsens, so finer would fail the cover)
        }
        std::uint64_t part_sum = 0;
        bool whole = true;
        for (const std::size_t s : parts) {
            part_sum += stage1_cost[s];
            whole = whole && std::includes(g.members.begin(),
                                           g.members.end(),
                                           stage1[s].members.begin(),
                                           stage1[s].members.end());
        }
        if (!whole) {
            continue;  // not a coarsening; structural checks already ran
        }
        const GroupEval e = eval_group(dims, ops, g);
        if (!cost_within(e.cost, options.cost_ratio, part_sum)) {
            report.add("fusion.cost-regression", Severity::kError,
                       static_cast<std::ptrdiff_t>(g.members.front()),
                       members_str(g) + ": union cost " +
                           std::to_string(e.cost) +
                           " exceeds the admission bound over its stage-1 "
                           "parts (" +
                           std::to_string(part_sum) + ")");
        }
    }
}

namespace {

/**
 * Field-count pin for the salt contract: decomposing FusionOptions into
 * exactly this many bindings fails to compile the moment a field is
 * added or removed, forcing plan_salt() and kSaltFields below to be
 * revisited together.
 */
[[maybe_unused]] void
salt_field_count_pin()
{
    constexpr exec::FusionOptions o{};
    const auto& [enabled, max_block, cost_model, cost_ratio,
                 max_block_light, max_block_controlled, max_block_dense] = o;
    static_cast<void>(enabled);
    static_cast<void>(max_block);
    static_cast<void>(cost_model);
    static_cast<void>(cost_ratio);
    static_cast<void>(max_block_light);
    static_cast<void>(max_block_controlled);
    static_cast<void>(max_block_dense);
}

struct SaltField {
    const char* name;
    void (*mutate)(exec::FusionOptions&);
};

constexpr SaltField kSaltFields[] = {
    {"enabled", [](exec::FusionOptions& o) { o.enabled = !o.enabled; }},
    {"max_block", [](exec::FusionOptions& o) { o.max_block += 1; }},
    {"cost_model",
     [](exec::FusionOptions& o) { o.cost_model = !o.cost_model; }},
    {"cost_ratio", [](exec::FusionOptions& o) { o.cost_ratio += 0.5; }},
    {"max_block_light",
     [](exec::FusionOptions& o) { o.max_block_light += 1; }},
    {"max_block_controlled",
     [](exec::FusionOptions& o) { o.max_block_controlled += 1; }},
    {"max_block_dense",
     [](exec::FusionOptions& o) { o.max_block_dense += 1; }},
};
static_assert(std::size(kSaltFields) == 7,
              "keep the mutator list in step with FusionOptions (see "
              "salt_field_count_pin)");

}  // namespace

std::size_t
check_salt_coverage(
    const std::function<Index(const exec::FusionOptions&)>& salt,
    Report& report)
{
    const exec::FusionOptions base{};
    const Index base_salt = salt(base);
    std::size_t covered = 0;
    for (const SaltField& field : kSaltFields) {
        exec::FusionOptions mutated = base;
        field.mutate(mutated);
        if (salt(mutated) == base_salt) {
            report.add("fusion.salt-coverage", Severity::kError, -1,
                       std::string("FusionOptions::") + field.name +
                           " does not reach the plan salt: toggling it on "
                           "a shared PlanCache would alias plan variants");
        } else {
            ++covered;
        }
    }
    return covered;
}

std::size_t
check_salt_coverage(Report& report)
{
    return check_salt_coverage(
        [](const exec::FusionOptions& o) { return o.plan_salt(); }, report);
}

}  // namespace qd::verify
