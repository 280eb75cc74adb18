#include "qdsim/circuit.h"

#include <algorithm>
#include <stdexcept>

#include "qdsim/moments.h"

namespace qd {

void
Circuit::validate_op(const Gate& gate, const std::vector<int>& wires) const
{
    if (gate.empty()) {
        throw std::invalid_argument("Circuit: empty gate");
    }
    if (static_cast<int>(wires.size()) != gate.arity()) {
        throw std::invalid_argument("Circuit: wire count mismatch "
                                    "for gate " + gate.name());
    }
    for (std::size_t i = 0; i < wires.size(); ++i) {
        const int w = wires[i];
        if (w < 0 || w >= dims_.num_wires()) {
            throw std::out_of_range("Circuit: wire out of range");
        }
        if (dims_.dim(w) != gate.dims()[i]) {
            throw std::invalid_argument(
                "Circuit: gate " + gate.name() + " operand " +
                std::to_string(i) + " dim " +
                std::to_string(gate.dims()[i]) + " != wire dim " +
                std::to_string(dims_.dim(w)));
        }
        for (std::size_t j = i + 1; j < wires.size(); ++j) {
            if (wires[j] == w) {
                throw std::invalid_argument(
                    "Circuit: duplicate wire for " + gate.name());
            }
        }
    }
}

void
Circuit::append(const Gate& gate, const std::vector<int>& wires)
{
    validate_op(gate, wires);
    ops_.push_back(Operation{gate, wires});
}

void
Circuit::erase_op(std::size_t index)
{
    if (index >= ops_.size()) {
        throw std::out_of_range("Circuit::erase_op: index out of range");
    }
    ops_.erase(ops_.begin() + static_cast<std::ptrdiff_t>(index));
}

void
Circuit::erase_ops(std::vector<std::size_t> indices)
{
    if (indices.empty()) {
        return;
    }
    std::sort(indices.begin(), indices.end());
    indices.erase(std::unique(indices.begin(), indices.end()),
                  indices.end());
    if (indices.back() >= ops_.size()) {
        throw std::out_of_range("Circuit::erase_ops: index out of range");
    }
    std::vector<Operation> kept;
    kept.reserve(ops_.size() - indices.size());
    std::size_t next = 0;
    for (std::size_t i = 0; i < ops_.size(); ++i) {
        if (next < indices.size() && indices[next] == i) {
            ++next;
        } else {
            kept.push_back(std::move(ops_[i]));
        }
    }
    ops_ = std::move(kept);
}

void
Circuit::replace_op(std::size_t index, const Gate& gate,
                    const std::vector<int>& wires)
{
    if (index >= ops_.size()) {
        throw std::out_of_range("Circuit::replace_op: index out of range");
    }
    validate_op(gate, wires);
    ops_[index] = Operation{gate, wires};
}

void
Circuit::insert_op(std::size_t index, const Gate& gate,
                   const std::vector<int>& wires)
{
    if (index > ops_.size()) {
        throw std::out_of_range("Circuit::insert_op: index out of range");
    }
    validate_op(gate, wires);
    ops_.insert(ops_.begin() + static_cast<std::ptrdiff_t>(index),
                Operation{gate, wires});
}

void
Circuit::splice(std::size_t index, const Circuit& replacement,
                const std::vector<int>& wire_map)
{
    if (index >= ops_.size()) {
        throw std::out_of_range("Circuit::splice: index out of range");
    }
    if (static_cast<int>(wire_map.size()) != replacement.num_wires()) {
        throw std::invalid_argument(
            "Circuit::splice: wire_map size != replacement width");
    }
    for (std::size_t i = 0; i < wire_map.size(); ++i) {
        if (wire_map[i] < 0 || wire_map[i] >= dims_.num_wires()) {
            throw std::out_of_range("Circuit::splice: wire_map out of range");
        }
        for (std::size_t j = i + 1; j < wire_map.size(); ++j) {
            if (wire_map[j] == wire_map[i]) {
                throw std::invalid_argument(
                    "Circuit::splice: duplicate wire in wire_map");
            }
        }
    }
    std::vector<Operation> expanded;
    expanded.reserve(replacement.ops_.size());
    for (const Operation& op : replacement.ops_) {
        std::vector<int> wires;
        wires.reserve(op.wires.size());
        for (const int w : op.wires) {
            wires.push_back(wire_map[static_cast<std::size_t>(w)]);
        }
        validate_op(op.gate, wires);
        expanded.push_back(Operation{op.gate, std::move(wires)});
    }
    ops_.erase(ops_.begin() + static_cast<std::ptrdiff_t>(index));
    ops_.insert(ops_.begin() + static_cast<std::ptrdiff_t>(index),
                std::make_move_iterator(expanded.begin()),
                std::make_move_iterator(expanded.end()));
}

Circuit
Circuit::redimensioned(
    const WireDims& new_dims,
    const std::function<Gate(const Gate&)>& adapt) const
{
    if (new_dims.num_wires() != dims_.num_wires()) {
        throw std::invalid_argument(
            "Circuit::redimensioned: wire count mismatch");
    }
    Circuit out(new_dims);
    out.ops_.reserve(ops_.size());
    // Gates are flyweights: adapt each distinct payload once.
    std::vector<std::pair<const Matrix*, Gate>> cache;
    for (const Operation& op : ops_) {
        const Matrix* key = &op.gate.matrix();
        const Gate* adapted = nullptr;
        for (const auto& [k, g] : cache) {
            if (k == key) {
                adapted = &g;
                break;
            }
        }
        if (adapted == nullptr) {
            cache.emplace_back(key, adapt(op.gate));
            adapted = &cache.back().second;
        }
        out.append(*adapted, op.wires);
    }
    return out;
}

void
Circuit::extend(const Circuit& other)
{
    if (!(other.dims_ == dims_)) {
        throw std::invalid_argument("Circuit::extend: register mismatch");
    }
    ops_.insert(ops_.end(), other.ops_.begin(), other.ops_.end());
}

Circuit
Circuit::inverse() const
{
    Circuit inv(dims_);
    inv.ops_.reserve(ops_.size());
    for (auto it = ops_.rbegin(); it != ops_.rend(); ++it) {
        inv.ops_.push_back(Operation{it->gate.inverse(), it->wires});
    }
    return inv;
}

Circuit::Stats
Circuit::stats() const
{
    Stats s;
    s.total_gates = ops_.size();
    for (const Operation& op : ops_) {
        switch (op.gate.arity()) {
          case 1:
            ++s.one_qudit;
            break;
          case 2:
            ++s.two_qudit;
            break;
          default:
            ++s.three_plus_qudit;
            break;
        }
    }
    s.depth = depth();
    return s;
}

std::size_t
Circuit::two_qudit_count() const
{
    std::size_t n = 0;
    for (const Operation& op : ops_) {
        if (op.gate.arity() == 2) {
            ++n;
        }
    }
    return n;
}

int
Circuit::depth() const
{
    return circuit_depth(*this);
}

std::string
Circuit::summary(const std::string& label) const
{
    const Stats s = stats();
    std::string out = label.empty() ? std::string("circuit") : label;
    out += ": width=" + std::to_string(num_wires());
    out += " gates=" + std::to_string(s.total_gates);
    out += " (1q=" + std::to_string(s.one_qudit);
    out += ", 2q=" + std::to_string(s.two_qudit);
    out += ", 3q+=" + std::to_string(s.three_plus_qudit);
    out += ") depth=" + std::to_string(s.depth);
    return out;
}

std::vector<std::pair<std::size_t, std::size_t>>
inverse_pairs(std::span<const Operation> ops, int num_wires, Real tol,
              std::size_t first)
{
    // Per wire, the live ops on it in order. Erasing a pair pops it, so
    // the op below becomes the one a later op on that wire meets.
    std::vector<std::vector<std::size_t>> live(
        static_cast<std::size_t>(std::max(num_wires, 0)));
    std::vector<std::pair<std::size_t, std::size_t>> pairs;
    for (std::size_t j = first; j < ops.size(); ++j) {
        const Operation& op = ops[j];
        const auto in_register = [num_wires](int w) {
            return w >= 0 && w < num_wires;
        };
        if (op.gate.empty() || op.wires.empty() ||
            !std::all_of(op.wires.begin(), op.wires.end(), in_register)) {
            continue;
        }
        // The partner is the op on top of every one of op's wires.
        const std::size_t none = ops.size();
        std::size_t i = none;
        for (const int w : op.wires) {
            const auto& stack = live[static_cast<std::size_t>(w)];
            if (stack.empty() || (i != none && stack.back() != i)) {
                i = none;
                break;
            }
            i = stack.back();
        }
        if (i != none && ops[i].wires == op.wires) {
            const Matrix& a = ops[i].gate.matrix();
            const Matrix& b = op.gate.matrix();
            if (a.rows() == b.rows() &&
                (b * a).approx_equal_up_to_phase(Matrix::identity(a.rows()),
                                                 tol)) {
                for (const int w : op.wires) {
                    live[static_cast<std::size_t>(w)].pop_back();
                }
                pairs.emplace_back(i, j);
                continue;
            }
        }
        for (const int w : op.wires) {
            live[static_cast<std::size_t>(w)].push_back(j);
        }
    }
    return pairs;
}

}  // namespace qd
