#include "qdsim/exec/batched_state.h"

#include <stdexcept>

#include "qdsim/exec/lane_kernels.h"

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
    return lane_kernels().norm_sq_lane(
        amps_.data(), static_cast<std::size_t>(dims_.size()),
        static_cast<std::size_t>(lanes_), static_cast<std::size_t>(lane));
}

std::vector<Real>
BatchedStateVector::norm_sq_lanes() const
{
    std::vector<Real> norm_sq(static_cast<std::size_t>(lanes_));
    lane_kernels().norm_sq_lanes(amps_.data(),
                                 static_cast<std::size_t>(dims_.size()),
                                 norm_sq.size(), norm_sq.data());
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
    lane_kernels().product_diag_lanes(amps_.data(), hi.data(), hi.size() / B,
                                      lo.data(), lo.size() / B, B);
}

std::vector<Real>
BatchedStateVector::fidelity_lanes(const BatchedStateVector& other) const
{
    if (!(dims_ == other.dims_) || lanes_ != other.lanes_) {
        throw std::invalid_argument("fidelity_lanes: shape mismatch");
    }
    std::vector<Real> fid(static_cast<std::size_t>(lanes_));
    lane_kernels().fidelity_lanes(amps_.data(), other.amps_.data(),
                                  static_cast<std::size_t>(dims_.size()),
                                  fid.size(), fid.data());
    return fid;
}

}  // namespace qd::exec
