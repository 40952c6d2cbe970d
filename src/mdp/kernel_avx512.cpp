// AVX-512F sweep kernels: 8 lanes per vector step over the ELL mirror.
//
// Probabilities come from the mirror's one-byte palette codes, not its
// double column (CompiledModel::has_codes; the dispatcher sends uncoded
// rows to AVX2): eight codes load as one 8-byte word, zero-extend to 64-bit
// lane indices and pick from the palette's two registers in one permute.
//
// Needs only the F (foundation) subset — gathers, mul, add, the
// zero-extension and the two-register permute — so -mavx512f suffices.
// Compiled with that flag when the toolchain accepts it (see
// src/mdp/CMakeLists.txt); resolve() only routes here when the running CPU
// reports AVX-512F. Otherwise the stub below forwards to scalar and
// avx512_compiled() reports false.
#include "mdp/kernel.hpp"

#if defined(__AVX512F__)

#include <immintrin.h>

#include <algorithm>

namespace bvc::mdp::kernel::detail {

namespace {

/// The eight probabilities whose palette codes start at `codes`: an 8-byte
/// load zero-extended to 64-bit indices, which pick from `lo` (palette
/// entries 0-7) or `hi` (8-15) by their bit 3. The zero-extension is the
/// all-lanes maskz form of _mm512_cvtepu8_epi64 (the same instruction),
/// whose zero merge source keeps GCC's uninitialized-value warning quiet.
inline __m512d decode(const std::uint8_t* codes, __m512d lo,
                      __m512d hi) noexcept {
  const __m512i index = _mm512_maskz_cvtepu8_epi64(
      0xFF, _mm_loadl_epi64(reinterpret_cast<const __m128i*>(codes)));
  return _mm512_permutex2var_pd(lo, index, hi);
}

}  // namespace

bool avx512_compiled() noexcept { return true; }

namespace {

// The fused-sweep body, specialized on the ELL width for the common small
// widths (kWidthSpec 0 keeps it a runtime loop). With the width a compile
// constant the j loop flattens into straight-line code — all twelve
// gathers of a superblock visible to the scheduler at once — which is
// worth a few percent on a kernel this latency-sensitive. Specialization
// changes instruction scheduling only, never lane arithmetic.
template <int kWidthSpec>
void rvi_sweep_avx512_impl(const CompiledModel& model, const double* rewards,
                           double tau, const double* bias_in,
                           double reference_residual, StateId s_begin,
                           StateId s_end, double* bias_out,
                           std::uint32_t* policy_out, double* span_min_io,
                           double* span_max_io) noexcept {
  // Dispatcher precondition: coded ELL mirror, uniform 2-action menu,
  // greedy mode. Sixteen states (32 flat actions) per outer step: four
  // 8-lane gather chains accumulate the expected-next values in registers
  // — the unroll keeps enough gathers in flight to cover their latency —
  // and the combine consumes them before they ever touch memory. Every
  // lane evaluates the exact scalar expression tree (separate mul/add,
  // -ffp-contract=off), so the result is bit-identical to
  // rvi_sweep_scalar. The combine deinterleaves the two action columns
  // from the contiguous q/rewards streams (sa = 2s + a), and takes
  // fl(1 - tau) once, then fl(that * bias) per lane — the scalar damped
  // term's exact roundings.
  constexpr StateId kBlock = 8;   // states per combine vector
  constexpr StateId kStep = 16;   // states per unrolled outer iteration
  const std::size_t width =
      kWidthSpec > 0 ? static_cast<std::size_t>(kWidthSpec)
                     : model.ell_width();
  const std::size_t stride = model.ell_stride();
  const std::uint8_t* ell_code = model.ell_code();
  const StateId* ell_next = model.ell_next();
  const __m512d pal_lo = _mm512_loadu_pd(model.palette());
  const __m512d pal_hi = _mm512_loadu_pd(model.palette() + 8);
  const __m512d vtau = _mm512_set1_pd(tau);
  const __m512d vdamp = _mm512_set1_pd(1.0 - tau);
  const __m512d vref = _mm512_set1_pd(reference_residual);
  const __m512i even = _mm512_setr_epi64(0, 2, 4, 6, 8, 10, 12, 14);
  const __m512i odd = _mm512_setr_epi64(1, 3, 5, 7, 9, 11, 13, 15);
  const __m512i action_one = _mm512_set1_epi64(1);
  __m512d vmin = _mm512_set1_pd(*span_min_io);
  __m512d vmax = _mm512_set1_pd(*span_max_io);

  StateId s = s_begin;
  for (; s + kStep <= s_end; s += kStep) {
    const std::size_t sa = 2 * static_cast<std::size_t>(s);
    __m512d q0 = _mm512_setzero_pd();
    __m512d q1 = _mm512_setzero_pd();
    __m512d q2 = _mm512_setzero_pd();
    __m512d q3 = _mm512_setzero_pd();
    for (std::size_t j = 0; j < width; ++j) {
      const StateId* row_next = ell_next + j * stride + sa;
      const std::uint8_t* row_code = ell_code + j * stride + sa;
      const __m512d b0 = _mm512_i32gather_pd(
          _mm256_loadu_si256(reinterpret_cast<const __m256i*>(row_next)),
          bias_in, 8);
      const __m512d b1 = _mm512_i32gather_pd(
          _mm256_loadu_si256(reinterpret_cast<const __m256i*>(row_next + 8)),
          bias_in, 8);
      const __m512d b2 = _mm512_i32gather_pd(
          _mm256_loadu_si256(reinterpret_cast<const __m256i*>(row_next + 16)),
          bias_in, 8);
      const __m512d b3 = _mm512_i32gather_pd(
          _mm256_loadu_si256(reinterpret_cast<const __m256i*>(row_next + 24)),
          bias_in, 8);
      // Each term is fl(p * b), mul and add kept separate, never FMA.
      q0 = _mm512_add_pd(
          q0, _mm512_mul_pd(decode(row_code, pal_lo, pal_hi), b0));
      q1 = _mm512_add_pd(
          q1, _mm512_mul_pd(decode(row_code + 8, pal_lo, pal_hi), b1));
      q2 = _mm512_add_pd(
          q2, _mm512_mul_pd(decode(row_code + 16, pal_lo, pal_hi), b2));
      q3 = _mm512_add_pd(
          q3, _mm512_mul_pd(decode(row_code + 24, pal_lo, pal_hi), b3));
    }
    for (int half = 0; half < 2; ++half) {
      const __m512d qlo = half == 0 ? q0 : q2;
      const __m512d qhi = half == 0 ? q1 : q3;
      const StateId so = s + half * kBlock;
      const std::size_t sao = sa + half * 2 * kBlock;
      const __m512d rlo = _mm512_loadu_pd(rewards + sao);
      const __m512d rhi = _mm512_loadu_pd(rewards + sao + kBlock);
      const __m512d qa = _mm512_permutex2var_pd(qlo, even, qhi);
      const __m512d qb = _mm512_permutex2var_pd(qlo, odd, qhi);
      const __m512d ra = _mm512_permutex2var_pd(rlo, even, rhi);
      const __m512d rb = _mm512_permutex2var_pd(rlo, odd, rhi);
      const __m512d b = _mm512_loadu_pd(bias_in + so);
      const __m512d damped = _mm512_mul_pd(vdamp, b);
      const __m512d v0 = _mm512_add_pd(
          _mm512_mul_pd(vtau, _mm512_add_pd(ra, qa)), damped);
      const __m512d v1 = _mm512_add_pd(
          _mm512_mul_pd(vtau, _mm512_add_pd(rb, qb)), damped);
      // Strict greater-than, exactly the scalar `if (q > best)`: ties
      // keep action 0.
      const __mmask8 take1 = _mm512_cmp_pd_mask(v1, v0, _CMP_GT_OQ);
      const __m512d best = _mm512_mask_blend_pd(take1, v0, v1);
      if (policy_out != nullptr) {
        // 64-bit mask-move then narrow: the 256-bit masked forms need
        // AVX512VL, which -mavx512f does not carry.
        _mm256_storeu_si256(
            reinterpret_cast<__m256i*>(policy_out + so),
            _mm512_cvtepi64_epi32(_mm512_maskz_mov_epi64(take1, action_one)));
      }
      const __m512d residual = _mm512_sub_pd(best, b);
      vmin = _mm512_min_pd(vmin, residual);
      vmax = _mm512_max_pd(vmax, residual);
      _mm512_storeu_pd(bias_out + so, _mm512_sub_pd(best, vref));
    }
  }
  *span_min_io = std::min(*span_min_io, _mm512_reduce_min_pd(vmin));
  *span_max_io = std::max(*span_max_io, _mm512_reduce_max_pd(vmax));
  if (s < s_end) {
    rvi_sweep_scalar(model, rewards, tau, bias_in, reference_residual, s,
                     s_end, bias_out, policy_out, span_min_io, span_max_io);
  }
}

}  // namespace

void rvi_sweep_avx512(const CompiledModel& model, const double* rewards,
                      double tau, const double* bias_in,
                      double reference_residual, StateId s_begin,
                      StateId s_end, double* bias_out,
                      std::uint32_t* policy_out, double* span_min_io,
                      double* span_max_io) noexcept {
  switch (model.ell_width()) {
    case 1:
      rvi_sweep_avx512_impl<1>(model, rewards, tau, bias_in,
                               reference_residual, s_begin, s_end, bias_out,
                               policy_out, span_min_io, span_max_io);
      return;
    case 2:
      rvi_sweep_avx512_impl<2>(model, rewards, tau, bias_in,
                               reference_residual, s_begin, s_end, bias_out,
                               policy_out, span_min_io, span_max_io);
      return;
    case 3:
      rvi_sweep_avx512_impl<3>(model, rewards, tau, bias_in,
                               reference_residual, s_begin, s_end, bias_out,
                               policy_out, span_min_io, span_max_io);
      return;
    case 4:
      rvi_sweep_avx512_impl<4>(model, rewards, tau, bias_in,
                               reference_residual, s_begin, s_end, bias_out,
                               policy_out, span_min_io, span_max_io);
      return;
    default:
      rvi_sweep_avx512_impl<0>(model, rewards, tau, bias_in,
                               reference_residual, s_begin, s_end, bias_out,
                               policy_out, span_min_io, span_max_io);
      return;
  }
}

namespace {

// The fixed-policy chain sweep, width-specialized like the greedy body,
// over a coded chain (the dispatcher's precondition). One row per state,
// so lane l of a vector step is state s + l's whole backup: the
// expected-next sum (outcome order, separate mul/add), the reward + tau
// transform, and the reference/span outputs, all in registers. Four
// 8-state gather chains per outer step keep enough gathers in flight to
// cover their latency.
template <int kWidthSpec>
void rvi_eval_sweep_avx512_impl(const PolicyChain& chain, double tau,
                                const double* bias_in,
                                double reference_residual, StateId s_begin,
                                StateId s_end, double* bias_out,
                                double* span_min_io,
                                double* span_max_io) noexcept {
  constexpr StateId kLanes = 8;
  constexpr StateId kStep = 32;
  const std::size_t width =
      kWidthSpec > 0 ? static_cast<std::size_t>(kWidthSpec) : chain.width();
  const std::size_t stride = chain.stride();
  const std::uint8_t* code = chain.code();
  const StateId* next = chain.next();
  const double* reward = chain.reward();
  const __m512d pal_lo = _mm512_loadu_pd(chain.palette());
  const __m512d pal_hi = _mm512_loadu_pd(chain.palette() + 8);
  const __m512d vtau = _mm512_set1_pd(tau);
  const __m512d vdamp = _mm512_set1_pd(1.0 - tau);
  const __m512d vref = _mm512_set1_pd(reference_residual);
  __m512d vmin = _mm512_set1_pd(*span_min_io);
  __m512d vmax = _mm512_set1_pd(*span_max_io);

  // Outcome j's term for the 8 states at `so`: fl(p * b), never fused.
  const auto term = [&](std::size_t j, StateId so) {
    const std::size_t at = j * stride + so;
    const __m512d b = _mm512_i32gather_pd(
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(next + at)),
        bias_in, 8);
    return _mm512_mul_pd(decode(code + at, pal_lo, pal_hi), b);
  };
  // The combine for the 8 states at `so`, exactly rvi_eval_sweep_scalar's
  // elementwise tree.
  const auto finish = [&](StateId so, __m512d expected_next) {
    const __m512d b = _mm512_loadu_pd(bias_in + so);
    const __m512d value = _mm512_add_pd(
        _mm512_mul_pd(vtau,
                      _mm512_add_pd(_mm512_loadu_pd(reward + so),
                                    expected_next)),
        _mm512_mul_pd(vdamp, b));
    const __m512d residual = _mm512_sub_pd(value, b);
    vmin = _mm512_min_pd(vmin, residual);
    vmax = _mm512_max_pd(vmax, residual);
    _mm512_storeu_pd(bias_out + so, _mm512_sub_pd(value, vref));
  };

  StateId s = s_begin;
  for (; s + kStep <= s_end; s += kStep) {
    __m512d q0 = _mm512_setzero_pd();
    __m512d q1 = _mm512_setzero_pd();
    __m512d q2 = _mm512_setzero_pd();
    __m512d q3 = _mm512_setzero_pd();
    for (std::size_t j = 0; j < width; ++j) {
      q0 = _mm512_add_pd(q0, term(j, s));
      q1 = _mm512_add_pd(q1, term(j, s + kLanes));
      q2 = _mm512_add_pd(q2, term(j, s + 2 * kLanes));
      q3 = _mm512_add_pd(q3, term(j, s + 3 * kLanes));
    }
    finish(s, q0);
    finish(s + kLanes, q1);
    finish(s + 2 * kLanes, q2);
    finish(s + 3 * kLanes, q3);
  }
  // Single blocks, then the scalar remainder; no vector store crosses
  // s_end (chunked callers own disjoint state ranges).
  for (; s + kLanes <= s_end; s += kLanes) {
    __m512d q = _mm512_setzero_pd();
    for (std::size_t j = 0; j < width; ++j) {
      q = _mm512_add_pd(q, term(j, s));
    }
    finish(s, q);
  }
  // min/max are exact, so the horizontal reduction order is irrelevant.
  *span_min_io = std::min(*span_min_io, _mm512_reduce_min_pd(vmin));
  *span_max_io = std::max(*span_max_io, _mm512_reduce_max_pd(vmax));
  if (s < s_end) {
    rvi_eval_sweep_scalar(chain, tau, bias_in, reference_residual, s, s_end,
                          bias_out, span_min_io, span_max_io);
  }
}

}  // namespace

void rvi_eval_sweep_avx512(const PolicyChain& chain, double tau,
                           const double* bias_in, double reference_residual,
                           StateId s_begin, StateId s_end, double* bias_out,
                           double* span_min_io, double* span_max_io) noexcept {
  switch (chain.width()) {
    case 1:
      rvi_eval_sweep_avx512_impl<1>(chain, tau, bias_in, reference_residual,
                                    s_begin, s_end, bias_out, span_min_io,
                                    span_max_io);
      return;
    case 2:
      rvi_eval_sweep_avx512_impl<2>(chain, tau, bias_in, reference_residual,
                                    s_begin, s_end, bias_out, span_min_io,
                                    span_max_io);
      return;
    case 3:
      rvi_eval_sweep_avx512_impl<3>(chain, tau, bias_in, reference_residual,
                                    s_begin, s_end, bias_out, span_min_io,
                                    span_max_io);
      return;
    default:
      rvi_eval_sweep_avx512_impl<0>(chain, tau, bias_in, reference_residual,
                                    s_begin, s_end, bias_out, span_min_io,
                                    span_max_io);
      return;
  }
}

}  // namespace bvc::mdp::kernel::detail

#else  // !defined(__AVX512F__)

namespace bvc::mdp::kernel::detail {

bool avx512_compiled() noexcept { return false; }

void rvi_sweep_avx512(const CompiledModel& model, const double* rewards,
                      double tau, const double* bias_in,
                      double reference_residual, StateId s_begin,
                      StateId s_end, double* bias_out,
                      std::uint32_t* policy_out, double* span_min_io,
                      double* span_max_io) noexcept {
  rvi_sweep_scalar(model, rewards, tau, bias_in, reference_residual, s_begin,
                   s_end, bias_out, policy_out, span_min_io, span_max_io);
}

void rvi_eval_sweep_avx512(const PolicyChain& chain, double tau,
                           const double* bias_in, double reference_residual,
                           StateId s_begin, StateId s_end, double* bias_out,
                           double* span_min_io, double* span_max_io) noexcept {
  rvi_eval_sweep_scalar(chain, tau, bias_in, reference_residual, s_begin,
                        s_end, bias_out, span_min_io, span_max_io);
}

}  // namespace bvc::mdp::kernel::detail

#endif
