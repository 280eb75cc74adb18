#include "qdsim/state_vector.h"

#include <cmath>
#include <stdexcept>

namespace qd {

StateVector::StateVector(WireDims dims)
    : dims_(std::move(dims)), amps_(dims_.size(), Complex(0, 0)) {
    amps_[0] = Complex(1, 0);
}

StateVector::StateVector(WireDims dims, const std::vector<int>& digits)
    : dims_(std::move(dims)), amps_(dims_.size(), Complex(0, 0)) {
    amps_[dims_.pack(digits)] = Complex(1, 0);
}

void
StateVector::apply(const Matrix& op, std::span<const int> wires)
{
    const int k = static_cast<int>(wires.size());
    for (int i = 0; i < k; ++i) {
        if (wires[i] < 0 || wires[i] >= dims_.num_wires()) {
            throw std::invalid_argument(
                "StateVector::apply: wire index out of range");
        }
        for (int j = i + 1; j < k; ++j) {
            if (wires[i] == wires[j]) {
                throw std::invalid_argument(
                    "StateVector::apply: duplicate wire");
            }
        }
    }
    // Block size = product of operand dims.
    Index block = 1;
    for (const int w : wires) {
        block *= static_cast<Index>(dims_.dim(w));
    }
    if (op.rows() != block || op.cols() != block) {
        throw std::invalid_argument("StateVector::apply: operator size "
                                    "does not match operand dims");
    }

    // Strides of each operand digit in the linear index, and in the local
    // block index (wires[0] most significant).
    std::vector<Index> wire_stride(static_cast<std::size_t>(k));
    std::vector<Index> local_stride(static_cast<std::size_t>(k));
    Index ls = 1;
    for (int i = k; i-- > 0;) {
        wire_stride[static_cast<std::size_t>(i)] = dims_.stride(wires[i]);
        local_stride[static_cast<std::size_t>(i)] = ls;
        ls *= static_cast<Index>(dims_.dim(wires[i]));
    }

    // Enumerate the non-operand subspace with an odometer over the other
    // wires. To avoid a digit odometer over N-k wires per step, we instead
    // iterate over all indices whose operand digits are all zero. Those are
    // exactly the base offsets.
    const int n = dims_.num_wires();
    std::vector<int> other;
    other.reserve(static_cast<std::size_t>(n));
    for (int w = 0; w < n; ++w) {
        bool is_operand = false;
        for (const int t : wires) {
            if (t == w) {
                is_operand = true;
                break;
            }
        }
        if (!is_operand) {
            other.push_back(w);
        }
    }

    std::vector<Complex> in(block), out(block);
    std::vector<int> odo(other.size(), 0);
    Index base = 0;
    const Index outer_count = dims_.size() / block;
    for (Index step = 0;; ++step) {
        // Gather.
        for (Index b = 0; b < block; ++b) {
            Index off = 0;
            Index rem = b;
            for (int i = 0; i < k; ++i) {
                const Index digit =
                    rem / local_stride[static_cast<std::size_t>(i)];
                rem %= local_stride[static_cast<std::size_t>(i)];
                off += digit * wire_stride[static_cast<std::size_t>(i)];
            }
            in[b] = amps_[base + off];
        }
        // Multiply.
        for (Index r = 0; r < block; ++r) {
            Complex acc(0, 0);
            const Complex* row = &op.data()[r * block];
            for (Index c = 0; c < block; ++c) {
                acc += row[c] * in[c];
            }
            out[r] = acc;
        }
        // Scatter.
        for (Index b = 0; b < block; ++b) {
            Index off = 0;
            Index rem = b;
            for (int i = 0; i < k; ++i) {
                const Index digit =
                    rem / local_stride[static_cast<std::size_t>(i)];
                rem %= local_stride[static_cast<std::size_t>(i)];
                off += digit * wire_stride[static_cast<std::size_t>(i)];
            }
            amps_[base + off] = out[b];
        }
        if (step + 1 >= outer_count) {
            break;
        }
        // Advance odometer over non-operand wires (least significant last).
        for (std::size_t i = other.size(); i-- > 0;) {
            const int w = other[i];
            if (++odo[i] < dims_.dim(w)) {
                base += dims_.stride(w);
                break;
            }
            base -= static_cast<Index>(odo[i] - 1) * dims_.stride(w);
            odo[i] = 0;
        }
    }
}

Complex
StateVector::inner(const StateVector& other) const
{
    if (!(dims_ == other.dims_)) {
        throw std::invalid_argument("inner: dimension mismatch");
    }
    Complex acc(0, 0);
    for (Index i = 0; i < amps_.size(); ++i) {
        acc += std::conj(amps_[i]) * other.amps_[i];
    }
    return acc;
}

Real
StateVector::norm() const
{
    Real acc = 0;
    for (const Complex& a : amps_) {
        acc += std::norm(a);
    }
    return std::sqrt(acc);
}

bool
StateVector::normalize()
{
    const Real n = norm();
    if (n <= 0 || !std::isfinite(n)) {
        return false;
    }
    const Real inv = 1.0 / n;
    for (Complex& a : amps_) {
        a *= inv;
    }
    return true;
}

Real
StateVector::population(int wire, int level) const
{
    const Index stride = dims_.stride(wire);
    const int d = dims_.dim(wire);
    const Index period = stride * static_cast<Index>(d);
    const Index total = dims_.size();
    Real acc = 0;
    for (Index start = 0; start < total; start += period) {
        const Complex* p = &amps_[start + static_cast<Index>(level) * stride];
        for (Index i = 0; i < stride; ++i) {
            acc += std::norm(p[i]);
        }
    }
    return acc;
}

std::vector<Real>
StateVector::populations(int wire) const
{
    const Index stride = dims_.stride(wire);
    const int d = dims_.dim(wire);
    const Index period = stride * static_cast<Index>(d);
    const Index total = dims_.size();
    std::vector<Real> acc(static_cast<std::size_t>(d), 0.0);
    for (Index start = 0; start < total; start += period) {
        for (int v = 0; v < d; ++v) {
            const Complex* p =
                &amps_[start + static_cast<Index>(v) * stride];
            Real s = 0;
            for (Index i = 0; i < stride; ++i) {
                s += std::norm(p[i]);
            }
            acc[static_cast<std::size_t>(v)] += s;
        }
    }
    return acc;
}

Real
StateVector::fidelity(const StateVector& other) const
{
    return std::norm(inner(other));
}

}  // namespace qd
