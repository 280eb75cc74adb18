#include "qdsim/gate.h"

#include <cmath>
#include <stdexcept>

#include "qdsim/hash.h"

namespace qd {

namespace {

/** Attempts to read `m` as a permutation matrix; empty optional if not. */
std::optional<std::vector<Index>>
derive_permutation(const Matrix& m)
{
    const std::size_t n = m.rows();
    std::vector<Index> perm(n, 0);
    std::vector<bool> hit(n, false);
    for (std::size_t col = 0; col < n; ++col) {
        int ones = 0;
        std::size_t row_of_one = 0;
        for (std::size_t row = 0; row < n; ++row) {
            const Complex v = m(row, col);
            const Real mag = std::abs(v);
            if (mag > kTol) {
                if (std::abs(v - Complex(1, 0)) > kTol) {
                    return std::nullopt;  // entry not exactly 1
                }
                ++ones;
                row_of_one = row;
            }
        }
        if (ones != 1 || hit[row_of_one]) {
            return std::nullopt;
        }
        hit[row_of_one] = true;
        // Column = input basis state, row = output basis state.
        perm[col] = static_cast<Index>(row_of_one);
    }
    return perm;
}

/**
 * Attempts to read `m` as identity-except-one-control-subspace: for some
 * split after the first `c` operands, the matrix is block diagonal in the
 * control index with identity blocks everywhere except a single active
 * block. Prefers the largest working `c` (smallest active subspace).
 */
std::optional<ControlledStructure>
derive_controlled_structure(const Matrix& m, const std::vector<int>& dims)
{
    const int k = static_cast<int>(dims.size());
    const std::size_t block = m.rows();
    for (int c = k - 1; c >= 1; --c) {
        std::size_t ctrl_block = 1;
        for (int i = 0; i < c; ++i) {
            ctrl_block *= static_cast<std::size_t>(dims[static_cast<
                std::size_t>(i)]);
        }
        const std::size_t inner = block / ctrl_block;
        bool ok = true;
        std::size_t active = ctrl_block;  // sentinel: none found yet
        for (std::size_t r = 0; ok && r < block; ++r) {
            for (std::size_t col = 0; col < block; ++col) {
                const std::size_t p = r / inner, q = col / inner;
                const Complex v = m(r, col);
                if (p != q) {
                    if (std::abs(v) > kTol) {
                        ok = false;
                        break;
                    }
                    continue;
                }
                const Complex expect =
                    r == col ? Complex(1, 0) : Complex(0, 0);
                if (std::abs(v - expect) > kTol) {
                    if (active == ctrl_block) {
                        active = p;
                    } else if (active != p) {
                        ok = false;
                        break;
                    }
                }
            }
        }
        if (!ok || active == ctrl_block) {
            continue;  // no such split, or the gate is the identity
        }
        ControlledStructure cs;
        cs.num_controls = c;
        cs.control_values.resize(static_cast<std::size_t>(c));
        std::size_t rem = active;
        for (int i = c; i-- > 0;) {
            const std::size_t d =
                static_cast<std::size_t>(dims[static_cast<std::size_t>(i)]);
            cs.control_values[static_cast<std::size_t>(i)] =
                static_cast<int>(rem % d);
            rem /= d;
        }
        cs.inner = Matrix(inner, inner);
        for (std::size_t r = 0; r < inner; ++r) {
            for (std::size_t col = 0; col < inner; ++col) {
                cs.inner(r, col) = m(active * inner + r, active * inner + col);
            }
        }
        return cs;
    }
    return std::nullopt;
}

}  // namespace

Gate::Gate(std::string name, std::vector<int> dims, Matrix matrix) {
    Index block = 1;
    for (const int d : dims) {
        if (d < 2) {
            throw std::invalid_argument("Gate: operand dim must be >= 2");
        }
        block *= static_cast<Index>(d);
    }
    if (matrix.rows() != block || matrix.cols() != block) {
        throw std::invalid_argument("Gate '" + name +
                                    "': matrix size does not match dims");
    }
    auto p = std::make_shared<Payload>();
    p->name = std::move(name);
    p->dims = std::move(dims);
    p->diagonal = matrix.is_diagonal();
    p->perm = derive_permutation(matrix);
    if (!p->perm && !p->diagonal && p->dims.size() >= 2) {
        p->ctrl = derive_controlled_structure(matrix, p->dims);
    }
    p->matrix = std::move(matrix);
    payload_ = std::move(p);
}

std::uint64_t
Gate::digest() const
{
    std::uint64_t d = payload_->digest.load();
    if (d == 0) {
        // Racing first calls compute the same value; either store wins.
        const Matrix& m = payload_->matrix;
        Hasher h(m.rows());
        h.add_bytes(m.data().data(), m.data().size() * sizeof(Complex));
        d = h.finish();
        d = d == 0 ? 1 : d;  // 0 marks "not computed yet"
        payload_->digest.store(d);
    }
    return d;
}

Gate
Gate::inverse() const
{
    const std::string base = payload_->name;
    std::string inv_name;
    constexpr const char* kDagger = "†";
    if (base.size() >= 3 && base.compare(base.size() - 3, 3, kDagger) == 0) {
        inv_name = base.substr(0, base.size() - 3);
    } else {
        inv_name = base + kDagger;
    }
    return Gate(inv_name, payload_->dims, payload_->matrix.dagger());
}

Gate
Gate::controlled(const std::vector<int>& control_dims,
                 const std::vector<int>& control_values) const
{
    if (control_dims.size() != control_values.size()) {
        throw std::invalid_argument(
            "Gate::controlled: dims/values size mismatch");
    }
    Index ctrl_block = 1;
    for (std::size_t i = 0; i < control_dims.size(); ++i) {
        if (control_values[i] < 0 || control_values[i] >= control_dims[i]) {
            throw std::invalid_argument(
                "Gate::controlled: control value out of range");
        }
        ctrl_block *= static_cast<Index>(control_dims[i]);
    }
    const Index inner = block_size();
    const Index total = ctrl_block * inner;

    // The activating control pattern as a packed index.
    Index active = 0;
    for (std::size_t i = 0; i < control_dims.size(); ++i) {
        active = active * static_cast<Index>(control_dims[i]) +
                 static_cast<Index>(control_values[i]);
    }

    Matrix m = Matrix::identity(total);
    for (Index r = 0; r < inner; ++r) {
        for (Index c = 0; c < inner; ++c) {
            m(active * inner + r, active * inner + c) = payload_->matrix(r, c);
        }
    }

    std::string name = "C";
    for (std::size_t i = 0; i < control_values.size(); ++i) {
        name += "[";
        name += std::to_string(control_values[i]);
        name += "]";
    }
    name += payload_->name;

    std::vector<int> dims = control_dims;
    dims.insert(dims.end(), payload_->dims.begin(), payload_->dims.end());
    return Gate(std::move(name), std::move(dims), std::move(m));
}

Gate
Gate::controlled(int control_dim, int control_value) const
{
    return controlled(std::vector<int>{control_dim},
                      std::vector<int>{control_value});
}

}  // namespace qd
