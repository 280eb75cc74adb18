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
    }
    // One odometer drives all lanes (the digit sequence only depends on the
    // dims); each lane keeps a running product, multiplied on every digit
    // change by a quotient of that lane's own factors. The quotients are
    // computed once per call rather than once per amplitude:
    // step[m] = f[m] / f[m-1] on a digit increment to m, and
    // step[0] = f[0] / f[d-1] on rollover. Laid out
    // step[(level0[w] + m) * B + b].
    std::vector<std::size_t> level0(static_cast<std::size_t>(n) + 1, 0);
    for (int w = 0; w < n; ++w) {
        const std::size_t uw = static_cast<std::size_t>(w);
        level0[uw + 1] =
            level0[uw] + static_cast<std::size_t>(dims_.dim(w));
    }
    std::vector<Complex> step(level0.back() * B);
    std::vector<Complex> cur(B, Complex(1, 0));
    for (std::size_t b = 0; b < B; ++b) {
        for (int w = 0; w < n; ++w) {
            const std::size_t uw = static_cast<std::size_t>(w);
            const std::vector<Complex>& f = factors[b][uw];
            const std::size_t d = static_cast<std::size_t>(dims_.dim(w));
            cur[b] *= f[0];
            step[level0[uw] * B + b] = f[0] / f[d - 1];
            for (std::size_t m = 1; m < d; ++m) {
                step[(level0[uw] + m) * B + b] = f[m] / f[m - 1];
            }
        }
    }
    std::vector<int> odo(static_cast<std::size_t>(n), 0);
    std::vector<Real> cur2(2 * B);
    const Index total = dims_.size();
    Complex* a = amps_.data();
    for (Index idx = 0;; ++idx, a += B) {
        for (std::size_t b = 0; b < B; ++b) {
            cur2[2 * b] = cur[b].real();
            cur2[2 * b + 1] = cur[b].imag();
        }
        Real* d = as_reals(a);
        QD_SIMD
        for (std::size_t b = 0; b < B; ++b) {
            const Real ar = d[2 * b], ai = d[2 * b + 1];
            d[2 * b] = ar * cur2[2 * b] - ai * cur2[2 * b + 1];
            d[2 * b + 1] = ar * cur2[2 * b + 1] + ai * cur2[2 * b];
        }
        if (idx + 1 >= total) {
            break;
        }
        for (int w = n - 1;; --w) {
            const std::size_t uw = static_cast<std::size_t>(w);
            const bool carry = ++odo[uw] == dims_.dim(w);
            if (carry) {
                odo[uw] = 0;
            }
            const Complex* s =
                step.data() +
                (level0[uw] + static_cast<std::size_t>(odo[uw])) * B;
            for (std::size_t b = 0; b < B; ++b) {
                cur[b] *= s[b];
            }
            if (!carry) {
                break;
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
