#include "qdsim/exec/batched_state.h"

#include "qdsim/exec/simd.h"

#include <cmath>
#include <stdexcept>

namespace qd::exec {

namespace {

std::size_t
checked_lane_count(int lanes)
{
    if (lanes < 1) {
        throw std::invalid_argument(
            "BatchedStateVector: lane count must be >= 1");
    }
    return static_cast<std::size_t>(lanes);
}

// The hot lane loops below run on re/im doubles via the std::complex
// array-oriented-access guarantee: a real-factor complex multiply is two
// independent double multiplies and |z|^2 is re*re + im*im — the exact
// expression trees of the StateVector counterparts, so per-lane results
// stay bitwise identical while the loops vectorise and skip libstdc++'s
// complex-multiply NaN-recovery branches.

/** Mutable double view of a lane-contiguous Complex run. */
inline Real*
as_reals(Complex* p)
{
    return reinterpret_cast<Real*>(p);
}

inline const Real*
as_reals(const Complex* p)
{
    return reinterpret_cast<const Real*>(p);
}

/**
 * ns[b] = sum over the n amplitudes of lane b of re^2 + im^2, accumulated
 * in amplitude-index order (the StateVector::norm accumulation order, so
 * per-lane sums are bitwise reproducible and equal norm_sq_lane). Lanes are processed in tiles of
 * four with register accumulators: a single flat loop would re-load and
 * re-store ns[b] per amplitude because the compiler cannot prove the
 * accumulator array does not alias the amplitudes.
 */
void
accumulate_norm_sq(const Real* d, std::size_t n, std::size_t B, Real* ns)
{
    std::size_t b = 0;
    for (; b + 4 <= B; b += 4) {
        Real a0 = 0, a1 = 0, a2 = 0, a3 = 0;
        const Real* p = d + 2 * b;
        for (std::size_t i = 0; i < n; ++i, p += 2 * B) {
            a0 += p[0] * p[0] + p[1] * p[1];
            a1 += p[2] * p[2] + p[3] * p[3];
            a2 += p[4] * p[4] + p[5] * p[5];
            a3 += p[6] * p[6] + p[7] * p[7];
        }
        ns[b] = a0;
        ns[b + 1] = a1;
        ns[b + 2] = a2;
        ns[b + 3] = a3;
    }
    for (; b < B; ++b) {
        Real acc = 0;
        const Real* p = d + 2 * b;
        for (std::size_t i = 0; i < n; ++i, p += 2 * B) {
            acc += p[0] * p[0] + p[1] * p[1];
        }
        ns[b] = acc;
    }
}

/** Per-lane products of the factors of wires [first, last) of `dims`:
 *  entry t * B + b is lane b's product at the t-th digit tuple over those
 *  wires (odometer order), multiplied in wire order. */
std::vector<Complex>
lane_products(const WireDims& dims,
              const std::vector<std::vector<std::vector<Complex>>>& factors,
              int first, int last)
{
    const std::size_t B = factors.size();
    std::vector<Complex> table(B, Complex(1, 0));
    for (int w = first; w < last; ++w) {
        const std::size_t uw = static_cast<std::size_t>(w);
        const std::size_t d = static_cast<std::size_t>(dims.dim(w));
        std::vector<Complex> next(table.size() * d);
        for (std::size_t t = 0; t < table.size() / B; ++t) {
            for (std::size_t m = 0; m < d; ++m) {
                for (std::size_t b = 0; b < B; ++b) {
                    next[(t * d + m) * B + b] =
                        table[t * B + b] * factors[b][uw][m];
                }
            }
        }
        table = std::move(next);
    }
    return table;
}

}  // namespace

BatchedStateVector::BatchedStateVector(WireDims dims, int lanes)
    : dims_(std::move(dims)), lanes_(lanes),
      amps_(static_cast<std::size_t>(dims_.size()) * checked_lane_count(lanes),
            Complex(0, 0)) {
    for (int b = 0; b < lanes_; ++b) {
        amps_[static_cast<std::size_t>(b)] = Complex(1, 0);
    }
}

void
BatchedStateVector::set_lane(int lane, const StateVector& src)
{
    if (!(src.dims() == dims_)) {
        throw std::invalid_argument("set_lane: dimension mismatch");
    }
    const Complex* s = src.amplitudes().data();
    const std::size_t B = static_cast<std::size_t>(lanes_);
    const std::size_t n = static_cast<std::size_t>(dims_.size());
    Complex* a = amps_.data() + static_cast<std::size_t>(lane);
    for (std::size_t i = 0; i < n; ++i) {
        a[i * B] = s[i];
    }
}

void
BatchedStateVector::extract_lane(int lane, StateVector& dst) const
{
    if (!(dst.dims() == dims_)) {
        throw std::invalid_argument("extract_lane: dimension mismatch");
    }
    Complex* d = dst.amplitudes().data();
    const std::size_t B = static_cast<std::size_t>(lanes_);
    const std::size_t n = static_cast<std::size_t>(dims_.size());
    const Complex* a = amps_.data() + static_cast<std::size_t>(lane);
    for (std::size_t i = 0; i < n; ++i) {
        d[i] = a[i * B];
    }
}

Real
BatchedStateVector::norm_sq_lane(int lane) const
{
    const std::size_t n = static_cast<std::size_t>(dims_.size());
    const std::size_t B = static_cast<std::size_t>(lanes_);
    Real acc = 0;
    const Real* p =
        as_reals(amps_.data()) + 2 * static_cast<std::size_t>(lane);
    for (std::size_t i = 0; i < n; ++i, p += 2 * B) {
        acc += p[0] * p[0] + p[1] * p[1];
    }
    return acc;
}

std::vector<Real>
BatchedStateVector::norm_sq_lanes() const
{
    const std::size_t n = static_cast<std::size_t>(dims_.size());
    const std::size_t B = static_cast<std::size_t>(lanes_);
    std::vector<Real> norm_sq(B);
    accumulate_norm_sq(as_reals(amps_.data()), n, B, norm_sq.data());
    return norm_sq;
}

void
BatchedStateVector::apply_product_diag_lanes(
    const std::vector<std::vector<std::vector<Complex>>>& factors)
{
    const int n = dims_.num_wires();
    const std::size_t B = static_cast<std::size_t>(lanes_);
    if (factors.size() != B) {
        throw std::invalid_argument(
            "apply_product_diag_lanes: lane count mismatch");
    }
    for (const auto& lane_factors : factors) {
        if (static_cast<int>(lane_factors.size()) != n) {
            throw std::invalid_argument(
                "apply_product_diag_lanes: factor count mismatch");
        }
        for (int w = 0; w < n; ++w) {
            if (static_cast<int>(
                    lane_factors[static_cast<std::size_t>(w)].size()) !=
                dims_.dim(w)) {
                throw std::invalid_argument(
                    "apply_product_diag_lanes: factor length mismatch");
            }
        }
    }
    // Amplitude h * L + l of a lane takes the product of its high wires'
    // factors at digit tuple h and its low wires' at l. The low group is
    // the least significant wires while it stays within sqrt(size)
    // configurations (the ApplyPlan split), so both tables are small.
    const Index total = dims_.size();
    int split = n;
    for (Index lo = 1; split > 0;) {
        const Index next = lo * static_cast<Index>(dims_.dim(split - 1));
        if (next > total / next) {
            break;
        }
        lo = next;
        --split;
    }
    const std::vector<Complex> hi = lane_products(dims_, factors, 0, split);
    const std::vector<Complex> lo = lane_products(dims_, factors, split, n);
    const std::size_t nhi = hi.size() / B, nlo = lo.size() / B;
    const Real* lr = as_reals(lo.data());
    Real* d = as_reals(amps_.data());
    for (std::size_t h = 0; h < nhi; ++h) {
        const Real* hr = as_reals(hi.data()) + 2 * h * B;
        for (std::size_t l = 0; l < nlo; ++l, d += 2 * B) {
            const Real* f = lr + 2 * l * B;
            QD_SIMD
            for (std::size_t b = 0; b < B; ++b) {
                const Real fr = hr[2 * b] * f[2 * b] -
                                hr[2 * b + 1] * f[2 * b + 1];
                const Real fi = hr[2 * b] * f[2 * b + 1] +
                                hr[2 * b + 1] * f[2 * b];
                const Real ar = d[2 * b], ai = d[2 * b + 1];
                d[2 * b] = ar * fr - ai * fi;
                d[2 * b + 1] = ar * fi + ai * fr;
            }
        }
    }
}

std::vector<Real>
BatchedStateVector::fidelity_lanes(const BatchedStateVector& other) const
{
    if (!(dims_ == other.dims_) || lanes_ != other.lanes_) {
        throw std::invalid_argument("fidelity_lanes: shape mismatch");
    }
    const std::size_t n = static_cast<std::size_t>(dims_.size());
    const std::size_t B = static_cast<std::size_t>(lanes_);
    // Lane pairs with register accumulators; per lane the sum runs in
    // amplitude-index order and (conj(a) * o).re == ar*or + ai*oi bitwise,
    // matching StateVector::inner.
    std::vector<Real> fid(B);
    const Real* base_a = as_reals(amps_.data());
    const Real* base_o = as_reals(other.amps_.data());
    std::size_t b = 0;
    for (; b + 2 <= B; b += 2) {
        Real r0 = 0, i0 = 0, r1 = 0, i1 = 0;
        const Real* __restrict pa = base_a + 2 * b;
        const Real* __restrict po = base_o + 2 * b;
        for (std::size_t i = 0; i < n; ++i, pa += 2 * B, po += 2 * B) {
            r0 += pa[0] * po[0] + pa[1] * po[1];
            i0 += pa[0] * po[1] - pa[1] * po[0];
            r1 += pa[2] * po[2] + pa[3] * po[3];
            i1 += pa[2] * po[3] - pa[3] * po[2];
        }
        fid[b] = r0 * r0 + i0 * i0;
        fid[b + 1] = r1 * r1 + i1 * i1;
    }
    for (; b < B; ++b) {
        Real re = 0, im = 0;
        const Real* __restrict pa = base_a + 2 * b;
        const Real* __restrict po = base_o + 2 * b;
        for (std::size_t i = 0; i < n; ++i, pa += 2 * B, po += 2 * B) {
            re += pa[0] * po[0] + pa[1] * po[1];
            im += pa[0] * po[1] - pa[1] * po[0];
        }
        fid[b] = re * re + im * im;
    }
    return fid;
}

}  // namespace qd::exec
