/**
 * @file batched_kernels.cc
 * The lane kernels: the one kernel set (one-lane passes for single states,
 * B-lane passes for shot groups) and BatchedStateVector's lane loops.
 * This file is compiled twice (lane_kernels.h): QD_LANE_ISA names
 * the build, baseline unless CMake's -mavx2 copy sets it to avx2, and
 * every name defined here lives in qd::exec::QD_LANE_ISA, so the two
 * builds share no symbol of their own.
 */
#include "qdsim/exec/lane_kernels.h"

#include "qdsim/exec/simd.h"

#include <cstdint>

#ifndef QD_LANE_ISA
#define QD_LANE_ISA baseline
#endif
#define QD_LANE_STR2(x) #x
#define QD_LANE_STR(x) QD_LANE_STR2(x)

namespace qd::exec::QD_LANE_ISA {

namespace {

// Inner lane loops run on re/im doubles (std::complex array-oriented
// access): the expression trees match std::complex arithmetic exactly —
// (a*b).re == a.re*b.re - a.im*b.im bitwise at runtime — and do the same
// operations per lane at every lane count, while the loops vectorise and
// skip libstdc++'s complex-multiply NaN-recovery branches.
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

/** kernel_team for a pass over `outer` blocks of B lanes each: the
 *  threshold counts lane-blocks, so a wide batch (a density matrix has
 *  D lanes) goes parallel on few outer blocks. */
inline int
lane_team(std::int64_t outer, std::size_t B, const BatchedScratch& scratch)
{
    return kernel_team(outer * static_cast<std::int64_t>(B),
                       scratch.threads);
}

/**
 * Calls block(base, width, buf) once per outer block of `plan`; the block
 * holds, for each local offset x, one row of `width` lanes starting at
 * amps + (base + x) * B. Outer blocks come in runs of plan.run
 * consecutive bases (the non-operand wires below every operand). The
 * rows of a run sit back to back, so a run is walked as one block of
 * run * B lanes: every amplitude sees the arithmetic it would see in a
 * block of B, with the per-block overhead paid once per run. `buf` holds
 * `buf_rows` rows of `width` lanes (one buffer per thread). The team is
 * sized on outer blocks x lanes, as for every other kernel.
 */
template <class Block>
void
walk_blocks(const ApplyPlan& plan, const std::size_t B,
            const std::size_t buf_rows, BatchedScratch& scratch,
            Block&& block)
{
    const Index run = plan.run;
    const std::size_t width = static_cast<std::size_t>(run) * B;
    const std::size_t need = buf_rows * width;
    const Index nlo = static_cast<Index>(plan.base_lo.size()) / run;
#ifdef _OPENMP
    const std::int64_t nouter = static_cast<std::int64_t>(plan.outer);
    if (const int team = lane_team(nouter, B, scratch); team > 1) {
        const std::int64_t nruns = static_cast<std::int64_t>(plan.outer / run);
#pragma omp parallel num_threads(team)
        {
            std::vector<Complex> own;
            Complex* const buf = grow_buffer(own, need);
#pragma omp for schedule(static)
            for (std::int64_t i = 0; i < nruns; ++i) {
                const Index u = static_cast<Index>(i);
                const Index base =
                    run == 1 ? plan.base_of(u)
                             : plan.base_hi[u / nlo] +
                                   plan.base_lo[u % nlo * run];
                block(base, width, buf);
            }
        }
        return;
    }
#endif
    Complex* const buf = grow_buffer(scratch.tmp, need);
    for (const Index hi : plan.base_hi) {
        for (Index k = 0; k < nlo; ++k) {
            block(hi + plan.base_lo[k * run], width, buf);
        }
    }
}

void
run_permutation_b(const CompiledOp& op, Complex* amps, const std::size_t B,
                  BatchedScratch& scratch)
{
    const Index* cyc = op.cycle_offsets.data();
    const std::uint32_t* lens = op.cycle_lengths.data();
    const std::size_t ncycles = op.cycle_lengths.size();
    walk_blocks(*op.plan, B, 1, scratch,
                [&](Index base, std::size_t width, Complex* tmp) {
        Complex* const a = amps + base * B;
        const Index* c = cyc;
        for (std::size_t j = 0; j < ncycles; ++j) {
            const std::uint32_t len = lens[j];
            const Complex* last = a + c[len - 1] * B;
            for (std::size_t l = 0; l < width; ++l) {
                tmp[l] = last[l];
            }
            for (std::uint32_t i = len - 1; i >= 1; --i) {
                Complex* dst = a + c[i] * B;
                const Complex* src = a + c[i - 1] * B;
                for (std::size_t l = 0; l < width; ++l) {
                    dst[l] = src[l];
                }
            }
            Complex* first = a + c[0] * B;
            for (std::size_t l = 0; l < width; ++l) {
                first[l] = tmp[l];
            }
            c += len;
        }
    });
}

void
run_monomial_b(const CompiledOp& op, Complex* amps, const std::size_t B,
               BatchedScratch& scratch)
{
    const Index* cyc = op.cycle_offsets.data();
    const Complex* ph = op.cycle_phases.data();
    const std::uint32_t* lens = op.cycle_lengths.data();
    const std::size_t ncycles = op.cycle_lengths.size();
    // dst[l] = src[l] * phase, lane loop on raw re/im doubles (matches the
    // std::complex multiply bitwise; see the note at the top).
    auto move_scaled = [](Complex* dst, const Complex* src, Complex f,
                          std::size_t width) {
        const Real fr = f.real(), fi = f.imag();
        Real* d = as_reals(dst);
        const Real* s = as_reals(src);
        QD_SIMD
        for (std::size_t l = 0; l < width; ++l) {
            const Real ar = s[2 * l], ai = s[2 * l + 1];
            d[2 * l] = ar * fr - ai * fi;
            d[2 * l + 1] = ar * fi + ai * fr;
        }
    };
    walk_blocks(*op.plan, B, 1, scratch,
                [&](Index base, std::size_t width, Complex* tmp) {
        Complex* const a = amps + base * B;
        const Index* c = cyc;
        const Complex* v = ph;
        for (std::size_t j = 0; j < ncycles; ++j) {
            const std::uint32_t len = lens[j];
            if (len == 1) {
                Complex* p = a + c[0] * B;
                move_scaled(p, p, v[0], width);
            } else {
                move_scaled(tmp, a + c[len - 1] * B, v[len - 1], width);
                for (std::uint32_t i = len - 1; i >= 1; --i) {
                    move_scaled(a + c[i] * B, a + c[i - 1] * B, v[i - 1],
                                width);
                }
                Complex* first = a + c[0] * B;
                for (std::size_t l = 0; l < width; ++l) {
                    first[l] = tmp[l];
                }
            }
            c += len;
            v += len;
        }
    });
}

void
run_diagonal_b(const CompiledOp& op, Complex* amps, const std::size_t B,
               BatchedScratch& scratch)
{
    const Index* off = op.plan->local_offset.data();
    const Complex* diag = op.diag.data();
    const Index block = op.plan->block;
    walk_blocks(*op.plan, B, 0, scratch,
                [&](Index base, std::size_t width, Complex*) {
        for (Index b = 0; b < block; ++b) {
            const Real fr = diag[b].real(), fi = diag[b].imag();
            Real* d = as_reals(amps + (base + off[b]) * B);
            QD_SIMD
            for (std::size_t l = 0; l < width; ++l) {
                const Real ar = d[2 * l], ai = d[2 * l + 1];
                d[2 * l] = ar * fr - ai * fi;
                d[2 * l + 1] = ar * fi + ai * fr;
            }
        }
    });
}

void
run_single_d2_b(const CompiledOp& op, Complex* amps, Index total,
                const std::size_t B,
                [[maybe_unused]] const BatchedScratch& scratch)
{
    const Complex u00 = op.u[0], u01 = op.u[1];
    const Complex u10 = op.u[2], u11 = op.u[3];
    const Index stride = op.stride1, period = op.period1;
    const std::int64_t nchunks = static_cast<std::int64_t>(total / period);
    const std::size_t jump = static_cast<std::size_t>(stride) * B;
    const Real u00r = u00.real(), u00i = u00.imag();
    const Real u01r = u01.real(), u01i = u01.imag();
    const Real u10r = u10.real(), u10i = u10.imag();
    const Real u11r = u11.real(), u11i = u11.imag();
    auto do_chunk = [&](Index start) {
        Complex* p0 = amps + start * B;
        for (Index i = 0; i < stride; ++i, p0 += B) {
            Real* d0 = as_reals(p0);
            Real* d1 = as_reals(p0 + jump);
            QD_SIMD
            for (std::size_t b = 0; b < B; ++b) {
                const Real a0r = d0[2 * b], a0i = d0[2 * b + 1];
                const Real a1r = d1[2 * b], a1i = d1[2 * b + 1];
                d0[2 * b] = (u00r * a0r - u00i * a0i) +
                            (u01r * a1r - u01i * a1i);
                d0[2 * b + 1] = (u00r * a0i + u00i * a0r) +
                                (u01r * a1i + u01i * a1r);
                d1[2 * b] = (u10r * a0r - u10i * a0i) +
                            (u11r * a1r - u11i * a1i);
                d1[2 * b + 1] = (u10r * a0i + u10i * a0r) +
                                (u11r * a1i + u11i * a1r);
            }
        }
    };
#ifdef _OPENMP
    if (const int team = lane_team(nchunks, B, scratch); team > 1) {
#pragma omp parallel for num_threads(team) schedule(static)
        for (std::int64_t c = 0; c < nchunks; ++c) {
            do_chunk(static_cast<Index>(c) * period);
        }
        return;
    }
#endif
    for (std::int64_t c = 0; c < nchunks; ++c) {
        do_chunk(static_cast<Index>(c) * period);
    }
}

void
run_single_d3_b(const CompiledOp& op, Complex* amps, Index total,
                const std::size_t B,
                [[maybe_unused]] const BatchedScratch& scratch)
{
    const Complex u00 = op.u[0], u01 = op.u[1], u02 = op.u[2];
    const Complex u10 = op.u[3], u11 = op.u[4], u12 = op.u[5];
    const Complex u20 = op.u[6], u21 = op.u[7], u22 = op.u[8];
    const Index stride = op.stride1, period = op.period1;
    const std::int64_t nchunks = static_cast<std::int64_t>(total / period);
    const std::size_t jump = static_cast<std::size_t>(stride) * B;
    auto do_chunk = [&](Index start) {
        Complex* p0 = amps + start * B;
        for (Index i = 0; i < stride; ++i, p0 += B) {
            Real* d0 = as_reals(p0);
            Real* d1 = as_reals(p0 + jump);
            Real* d2 = as_reals(p0 + 2 * jump);
            QD_SIMD
            for (std::size_t b = 0; b < B; ++b) {
                const Real a0r = d0[2 * b], a0i = d0[2 * b + 1];
                const Real a1r = d1[2 * b], a1i = d1[2 * b + 1];
                const Real a2r = d2[2 * b], a2i = d2[2 * b + 1];
                d0[2 * b] = (u00.real() * a0r - u00.imag() * a0i) +
                            (u01.real() * a1r - u01.imag() * a1i) +
                            (u02.real() * a2r - u02.imag() * a2i);
                d0[2 * b + 1] = (u00.real() * a0i + u00.imag() * a0r) +
                                (u01.real() * a1i + u01.imag() * a1r) +
                                (u02.real() * a2i + u02.imag() * a2r);
                d1[2 * b] = (u10.real() * a0r - u10.imag() * a0i) +
                            (u11.real() * a1r - u11.imag() * a1i) +
                            (u12.real() * a2r - u12.imag() * a2i);
                d1[2 * b + 1] = (u10.real() * a0i + u10.imag() * a0r) +
                                (u11.real() * a1i + u11.imag() * a1r) +
                                (u12.real() * a2i + u12.imag() * a2r);
                d2[2 * b] = (u20.real() * a0r - u20.imag() * a0i) +
                            (u21.real() * a1r - u21.imag() * a1i) +
                            (u22.real() * a2r - u22.imag() * a2i);
                d2[2 * b + 1] = (u20.real() * a0i + u20.imag() * a0r) +
                                (u21.real() * a1i + u21.imag() * a1r) +
                                (u22.real() * a2i + u22.imag() * a2r);
            }
        }
    };
#ifdef _OPENMP
    if (const int team = lane_team(nchunks, B, scratch); team > 1) {
#pragma omp parallel for num_threads(team) schedule(static)
        for (std::int64_t c = 0; c < nchunks; ++c) {
            do_chunk(static_cast<Index>(c) * period);
        }
        return;
    }
#endif
    for (std::int64_t c = 0; c < nchunks; ++c) {
        do_chunk(static_cast<Index>(c) * period);
    }
}

/**
 * Shared gather / per-lane matvec core of the controlled and dense
 * kernels: `off` lists `nb` block offsets relative to `base`, and `m` is
 * the row-major nb x nb operator. The originals are gathered into `in`
 * once, so each output row can accumulate in registers and store straight
 * back to the state — no zero-fill or scatter pass. Per lane the
 * accumulation runs 0 + row[0]*in[0] + row[1]*in[1] + ... in column
 * order at every lane count, so a lane equals its one-lane pass bitwise.
 */
void
matvec_block_b(Complex* amps, Index base, const Index* off, Index nb,
               const Complex* m, const std::size_t B, Complex* in)
{
    for (Index b = 0; b < nb; ++b) {
        const Complex* src = amps + (base + off[b]) * B;
        Complex* dst = in + static_cast<std::size_t>(b) * B;
        for (std::size_t l = 0; l < B; ++l) {
            dst[l] = src[l];
        }
    }
    // The gather buffer never aliases the state, and the matrix row is
    // hoisted into locals, so the lane loop runs on registers; without the
    // restrict/hoist the compiler re-loads every operand per lane against
    // possible aliasing with the output stores.
    const Real* __restrict din = as_reals(in);
    constexpr Index kUnrollCap = 8;
    Real fr[kUnrollCap], fi[kUnrollCap];
    for (Index r = 0; r < nb; ++r) {
        const Complex* row = m + r * nb;
        Real* __restrict dst = as_reals(amps + (base + off[r]) * B);
        if (nb <= kUnrollCap) {
            for (Index c = 0; c < nb; ++c) {
                fr[c] = row[c].real();
                fi[c] = row[c].imag();
            }
            QD_SIMD
            for (std::size_t l = 0; l < B; ++l) {
                Real accr = 0.0, acci = 0.0;
                for (Index c = 0; c < nb; ++c) {
                    const Real sr =
                        din[static_cast<std::size_t>(c) * 2 * B + 2 * l];
                    const Real si =
                        din[static_cast<std::size_t>(c) * 2 * B + 2 * l + 1];
                    accr += fr[c] * sr - fi[c] * si;
                    acci += fr[c] * si + fi[c] * sr;
                }
                dst[2 * l] = accr;
                dst[2 * l + 1] = acci;
            }
            continue;
        }
        QD_SIMD
        for (std::size_t l = 0; l < B; ++l) {
            Real accr = 0.0, acci = 0.0;
            for (Index c = 0; c < nb; ++c) {
                const Real cr = row[c].real(), ci = row[c].imag();
                const Real sr =
                    din[static_cast<std::size_t>(c) * 2 * B + 2 * l];
                const Real si =
                    din[static_cast<std::size_t>(c) * 2 * B + 2 * l + 1];
                accr += cr * sr - ci * si;
                acci += cr * si + ci * sr;
            }
            dst[2 * l] = accr;
            dst[2 * l + 1] = acci;
        }
    }
}

/** An N x N row-major block split into locals: real and imaginary parts. */
template <std::size_t N>
struct SmallBlock {
    Real re[N * N], im[N * N];

    explicit SmallBlock(const Complex* m) {
        for (std::size_t i = 0; i < N * N; ++i) {
            re[i] = m[i].real();
            im[i] = m[i].imag();
        }
    }
};

/**
 * dst[r] = sum_c m[r][c] * src[c] over `width` lanes, for N rows of raw
 * re/im doubles. Each lane loads its N inputs into registers before it
 * stores, so dst may be src (an in-place update). Per lane the
 * accumulation is matvec_block_b's, 0 + row[0]*in[0] + row[1]*in[1] +
 * ..., so a lane equals its one-lane pass bitwise.
 */
template <std::size_t N>
inline void
small_matvec(Real* const* dst, const Real* const* src,
             const SmallBlock<N>& m, std::size_t width)
{
    QD_SIMD
    for (std::size_t l = 0; l < width; ++l) {
        Real sr[N], si[N];
        for (std::size_t c = 0; c < N; ++c) {
            sr[c] = src[c][2 * l];
            si[c] = src[c][2 * l + 1];
        }
        for (std::size_t r = 0; r < N; ++r) {
            Real accr = 0.0, acci = 0.0;
            for (std::size_t c = 0; c < N; ++c) {
                accr += m.re[r * N + c] * sr[c] - m.im[r * N + c] * si[c];
                acci += m.re[r * N + c] * si[c] + m.im[r * N + c] * sr[c];
            }
            dst[r][2 * l] = accr;
            dst[r][2 * l + 1] = acci;
        }
    }
}

/**
 * kControlled with one target of N = 2 or 3 levels: the inner matrix is
 * hoisted into locals once per op, and each lane's N target amplitudes
 * load straight into registers, with no gather buffer (small_matvec in
 * place).
 */
template <std::size_t N>
void
run_controlled_small_b(const CompiledOp& op, Complex* amps,
                       const std::size_t B, BatchedScratch& scratch)
{
    const SmallBlock<N> m(op.inner.data().data());
    Index target[N];
    for (std::size_t c = 0; c < N; ++c) {
        target[c] = op.ctrl_offset + op.inner_offset[c];
    }
    walk_blocks(*op.plan, B, 0, scratch,
                [&](Index base, std::size_t width, Complex*) {
        Real* p[N];
        for (std::size_t c = 0; c < N; ++c) {
            p[c] = as_reals(amps + (base + target[c]) * B);
        }
        small_matvec<N>(p, p, m, width);
    });
}

/**
 * kBlockMonomial with a target of N = 2 or 3 levels: the values of each
 * slot (a configuration of the other operands) move, times the slot's
 * N x N block, to the next slot of its cycle. As in run_monomial_b, a
 * cycle first stores the last slot's product in `tmp` (N rows of `width`
 * lanes), walks backwards, and then writes `tmp` to the first slot; a
 * fixed point runs in place. Every move is one small_matvec.
 */
template <std::size_t N>
void
run_block_monomial_b(const CompiledOp& op, Complex* amps,
                     const std::size_t B, BatchedScratch& scratch)
{
    const Index* cyc = op.cycle_offsets.data();
    const Complex* blk = op.cycle_blocks.data();
    const std::uint32_t* lens = op.cycle_lengths.data();
    const std::size_t ncycles = op.cycle_lengths.size();
    Index target[N];
    for (std::size_t c = 0; c < N; ++c) {
        target[c] = op.inner_offset[c];
    }
    walk_blocks(*op.plan, B, N, scratch,
                [&](Index base, std::size_t width, Complex* tmp) {
        Complex* const a = amps + base * B;
        auto rows = [&](Index slot, Real* (&p)[N]) {
            for (std::size_t c = 0; c < N; ++c) {
                p[c] = as_reals(a + (slot + target[c]) * B);
            }
        };
        const Index* c = cyc;
        const Complex* m = blk;
        Real* dst[N];
        Real* src[N];
        for (std::size_t j = 0; j < ncycles; ++j) {
            const std::uint32_t len = lens[j];
            auto block = [m](std::uint32_t i) {  // slot i's block
                return SmallBlock<N>(m + i * N * N);
            };
            if (len == 1) {
                rows(c[0], dst);
                small_matvec<N>(dst, dst, block(0), width);
            } else {
                rows(c[len - 1], src);
                for (std::size_t r = 0; r < N; ++r) {
                    dst[r] = as_reals(tmp + r * width);
                }
                small_matvec<N>(dst, src, block(len - 1), width);
                for (std::uint32_t i = len - 1; i >= 1; --i) {
                    rows(c[i], dst);
                    rows(c[i - 1], src);
                    small_matvec<N>(dst, src, block(i - 1), width);
                }
                rows(c[0], dst);
                for (std::size_t r = 0; r < N; ++r) {
                    const Real* t = as_reals(tmp + r * width);
                    for (std::size_t l = 0; l < 2 * width; ++l) {
                        dst[r][l] = t[l];
                    }
                }
            }
            c += len;
            m += len * N * N;
        }
    });
}

void
run_block_matvec_b(const CompiledOp& op, Complex* amps, const std::size_t B,
                   BatchedScratch& scratch, const Index* off, Index nb,
                   const Complex* m, Index extra_offset)
{
    const ApplyPlan& plan = *op.plan;
    const std::int64_t nouter =
        static_cast<std::int64_t>(plan.outer_count());
    const std::size_t need = static_cast<std::size_t>(nb) * B;
#ifdef _OPENMP
    if (const int team = lane_team(nouter, B, scratch); team > 1) {
#pragma omp parallel num_threads(team)
        {
            std::vector<Complex> own;
            Complex* const in = grow_buffer(own, need);
#pragma omp for schedule(static)
            for (std::int64_t o = 0; o < nouter; ++o) {
                matvec_block_b(amps,
                               plan.base_of(static_cast<Index>(o)) +
                                   extra_offset,
                               off, nb, m, B, in);
            }
        }
        return;
    }
#endif
    Complex* const in = grow_buffer(scratch.in, need);
    for (std::int64_t o = 0; o < nouter; ++o) {
        matvec_block_b(amps,
                       plan.base_of(static_cast<Index>(o)) + extra_offset,
                       off, nb, m, B, in);
    }
}

/**
 * Squared norm of one lane, accumulated in amplitude-index order (the
 * StateVector::norm order, and the order norm_sq_lanes uses per lane).
 */
Real
norm_sq_lane(const Complex* amps, std::size_t n, const std::size_t B,
             std::size_t lane)
{
    Real acc = 0;
    const Real* p = as_reals(amps) + 2 * lane;
    for (std::size_t i = 0; i < n; ++i, p += 2 * B) {
        acc += p[0] * p[0] + p[1] * p[1];
    }
    return acc;
}

/**
 * ns[b] = sum over the n amplitudes of lane b of re^2 + im^2, accumulated
 * in amplitude-index order, so each sum equals norm_sq_lane bitwise. Lanes
 * are processed in tiles of four with register accumulators: a single
 * flat loop would re-load and re-store ns[b] per amplitude because the
 * compiler cannot prove the accumulator array does not alias the
 * amplitudes.
 */
void
norm_sq_lanes(const Complex* amps, std::size_t n, const std::size_t B,
              Real* ns)
{
    const Real* d = as_reals(amps);
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

/**
 * fid[b] = |<a_b|o_b>|^2, lane pairs with register accumulators; per lane
 * the sum runs in amplitude-index order and (conj(a) * o).re ==
 * ar*or + ai*oi bitwise, matching StateVector::inner.
 */
void
fidelity_lanes(const Complex* a, const Complex* o, std::size_t n,
               const std::size_t B, Real* fid)
{
    const Real* base_a = as_reals(a);
    const Real* base_o = as_reals(o);
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
}

/** The dephasing kick's one pass: each lane's amplitude h * nlo + l is
 *  scaled by its factor hi[h] * lo[l], formed first, with no serial
 *  dependence between amplitudes. */
void
product_diag_lanes(Complex* amps, const Complex* hi, std::size_t nhi,
                   const Complex* lo, std::size_t nlo, const std::size_t B)
{
    const Real* lr = as_reals(lo);
    Real* d = as_reals(amps);
    for (std::size_t h = 0; h < nhi; ++h) {
        const Real* hr = as_reals(hi) + 2 * h * B;
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

void
apply_op_lanes(const CompiledOp& op, Complex* amps, const std::size_t B,
               BatchedScratch& scratch)
{
    switch (op.kind) {
        case KernelKind::kPermutation:
            run_permutation_b(op, amps, B, scratch);
            return;
        case KernelKind::kDiagonal:
            run_diagonal_b(op, amps, B, scratch);
            return;
        case KernelKind::kMonomial:
            run_monomial_b(op, amps, B, scratch);
            return;
        case KernelKind::kSingleWireD2:
            run_single_d2_b(op, amps, op.dim, B, scratch);
            return;
        case KernelKind::kSingleWireD3:
            run_single_d3_b(op, amps, op.dim, B, scratch);
            return;
        case KernelKind::kControlled:
            if (op.inner_offset.size() == 2) {
                run_controlled_small_b<2>(op, amps, B, scratch);
                return;
            }
            if (op.inner_offset.size() == 3) {
                run_controlled_small_b<3>(op, amps, B, scratch);
                return;
            }
            run_block_matvec_b(op, amps, B, scratch, op.inner_offset.data(),
                               static_cast<Index>(op.inner_offset.size()),
                               op.inner.data().data(), op.ctrl_offset);
            return;
        case KernelKind::kBlockMonomial:
            if (op.inner_offset.size() == 2) {
                run_block_monomial_b<2>(op, amps, B, scratch);
            } else {
                run_block_monomial_b<3>(op, amps, B, scratch);
            }
            return;
        case KernelKind::kDense:
            run_block_matvec_b(op, amps, B, scratch,
                               op.plan->local_offset.data(), op.plan->block,
                               op.gate.matrix().data().data(), 0);
            return;
    }
}

}  // namespace

extern const LaneKernels kLaneKernels = {
    QD_LANE_STR(QD_LANE_ISA), &apply_op_lanes,  &norm_sq_lane,
    &norm_sq_lanes,           &fidelity_lanes, &product_diag_lanes,
};

}  // namespace qd::exec::QD_LANE_ISA
