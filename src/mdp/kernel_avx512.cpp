// AVX-512F sweep kernels: 8 lanes per vector step over the ELL mirror.
//
// Probabilities come from the mirror's one-byte palette codes, not its
// double column (CompiledModel::has_codes; the dispatcher sends uncoded
// rows to AVX2): eight codes load as one 8-byte word, zero-extend to 64-bit
// lane indices and pick from the palette's two registers in one permute.
//
// The greedy body serves uniform menus of two and three actions with one
// template: the gather loop runs over consecutive flat actions whatever
// the menu, and only the combine's deinterleave (ActionLanes) and its
// argmax length depend on the width. Two actions split with one
// two-register permute per action, three with two.
//
// Needs only the F (foundation) subset — gathers, mul, add, the
// zero-extension, the two-register permute and the mask moves — so
// -mavx512f suffices.
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

/// Action a's eight lanes out of kActions consecutive 8-lane vectors of
/// flat actions (v[i] holds flat actions 8i..8i+7 of eight states, so
/// state l's action a is flat action kActions * l + a). Two actions take
/// one two-register permute; three take a second one that fills the lanes
/// past flat action 15 from v[2]. Permutes move bits, never round.
template <int kActions>
struct ActionLanes;

template <>
struct ActionLanes<2> {
  __m512i index[2] = {_mm512_setr_epi64(0, 2, 4, 6, 8, 10, 12, 14),
                      _mm512_setr_epi64(1, 3, 5, 7, 9, 11, 13, 15)};
  [[nodiscard]] __m512d of(const __m512d* v, int a) const noexcept {
    return _mm512_permutex2var_pd(v[0], index[a], v[1]);
  }
};

template <>
struct ActionLanes<3> {
  // First permute: flat actions a + 3l below 16 from (v[0], v[1]); the
  // lanes past them are don't-cares. Second: keep those lanes (0-7 select
  // the first operand) and take the rest from v[2] (8 + flat - 16).
  __m512i low[3] = {_mm512_setr_epi64(0, 3, 6, 9, 12, 15, 0, 0),
                    _mm512_setr_epi64(1, 4, 7, 10, 13, 0, 0, 0),
                    _mm512_setr_epi64(2, 5, 8, 11, 14, 0, 0, 0)};
  __m512i high[3] = {_mm512_setr_epi64(0, 1, 2, 3, 4, 5, 10, 13),
                     _mm512_setr_epi64(0, 1, 2, 3, 4, 8, 11, 14),
                     _mm512_setr_epi64(0, 1, 2, 3, 4, 9, 12, 15)};
  [[nodiscard]] __m512d of(const __m512d* v, int a) const noexcept {
    return _mm512_permutex2var_pd(_mm512_permutex2var_pd(v[0], low[a], v[1]),
                                  high[a], v[2]);
  }
};

// The fused-sweep body for a uniform kActions-action menu (2 or 3),
// specialized on the ELL width for the common small widths (kWidthSpec 0
// keeps it a runtime loop). With the width a compile constant the j loop
// flattens into straight-line code — every gather of a superblock visible
// to the scheduler at once — which is worth a few percent on a kernel this
// latency-sensitive. Specialization changes instruction scheduling only,
// never lane arithmetic.
template <int kActions, int kWidthSpec>
void rvi_sweep_avx512_impl(const CompiledModel& model, const double* rewards,
                           double tau, const double* bias_in,
                           double reference_residual, StateId s_begin,
                           StateId s_end, double* bias_out,
                           std::uint32_t* policy_out, double* span_min_io,
                           double* span_max_io) noexcept {
  // Dispatcher precondition: coded ELL mirror, uniform kActions-action
  // menu, greedy mode. Sixteen states (16 * kActions flat actions) per
  // outer step: 2 * kActions 8-lane gather chains over consecutive flat
  // actions accumulate the expected-next values in registers — the unroll
  // keeps enough gathers in flight to cover their latency — and the
  // combine consumes them before they ever touch memory. Every lane
  // evaluates the exact scalar expression tree (separate mul/add,
  // -ffp-contract=off), so the result is bit-identical to
  // rvi_sweep_scalar. The combine forms fl(tau * fl(r + q)) on the
  // contiguous flat-action streams (sa = kActions * s + a), deinterleaves
  // its action columns, and takes fl(1 - tau) once, then fl(that * bias)
  // per lane — the scalar damped term's exact roundings.
  constexpr StateId kBlock = 8;   // states per combine vector
  constexpr StateId kStep = 16;   // states per unrolled outer iteration
  constexpr int kChains = kActions * kStep / kBlock;
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
  const ActionLanes<kActions> lanes;
  __m512d vmin = _mm512_set1_pd(*span_min_io);
  __m512d vmax = _mm512_set1_pd(*span_max_io);

  StateId s = s_begin;
  for (; s + kStep <= s_end; s += kStep) {
    const std::size_t sa = kActions * static_cast<std::size_t>(s);
    __m512d q[kChains];
    for (int c = 0; c < kChains; ++c) {
      q[c] = _mm512_setzero_pd();
    }
    for (std::size_t j = 0; j < width; ++j) {
      const StateId* row_next = ell_next + j * stride + sa;
      const std::uint8_t* row_code = ell_code + j * stride + sa;
      __m512d b[kChains];
      for (int c = 0; c < kChains; ++c) {
        b[c] = _mm512_i32gather_pd(
            _mm256_loadu_si256(
                reinterpret_cast<const __m256i*>(row_next + 8 * c)),
            bias_in, 8);
      }
      // Each term is fl(p * b), mul and add kept separate, never FMA.
      for (int c = 0; c < kChains; ++c) {
        q[c] = _mm512_add_pd(
            q[c], _mm512_mul_pd(decode(row_code + 8 * c, pal_lo, pal_hi),
                                b[c]));
      }
    }
    for (int half = 0; half < 2; ++half) {
      const __m512d* qh = q + half * kActions;
      const StateId so = s + half * kBlock;
      const std::size_t sao = sa + half * kActions * kBlock;
      // fl(tau * fl(r + q)) is elementwise, so it runs on the flat
      // layout, and only its kActions vectors are deinterleaved.
      __m512d scaled[kActions];
      for (int i = 0; i < kActions; ++i) {
        scaled[i] = _mm512_mul_pd(
            vtau,
            _mm512_add_pd(_mm512_loadu_pd(rewards + sao + i * kBlock), qh[i]));
      }
      const __m512d b = _mm512_loadu_pd(bias_in + so);
      const __m512d damped = _mm512_mul_pd(vdamp, b);
      const auto value = [&](int a) {
        return _mm512_add_pd(lanes.of(scaled, a), damped);
      };
      // Strict greater-than in action order, exactly the scalar
      // `if (q > best)`: ties keep the lower action.
      __m512d best = value(0);
      __m512i pick = _mm512_setzero_si512();
      for (int a = 1; a < kActions; ++a) {
        const __m512d v = value(a);
        const __mmask8 take = _mm512_cmp_pd_mask(v, best, _CMP_GT_OQ);
        best = _mm512_mask_blend_pd(take, best, v);
        pick = _mm512_mask_mov_epi64(pick, take, _mm512_set1_epi64(a));
      }
      if (policy_out != nullptr) {
        // Narrow the 64-bit picks: the 256-bit masked forms need
        // AVX512VL, which -mavx512f does not carry.
        _mm256_storeu_si256(reinterpret_cast<__m256i*>(policy_out + so),
                            _mm512_cvtepi64_epi32(pick));
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

/// rvi_sweep_avx512_impl<kActions, width> for the model's ELL width.
template <int kActions>
void rvi_sweep_avx512_menu(const CompiledModel& model, const double* rewards,
                           double tau, const double* bias_in,
                           double reference_residual, StateId s_begin,
                           StateId s_end, double* bias_out,
                           std::uint32_t* policy_out, double* span_min_io,
                           double* span_max_io) noexcept {
  switch (model.ell_width()) {
    case 1:
      rvi_sweep_avx512_impl<kActions, 1>(
          model, rewards, tau, bias_in, reference_residual, s_begin, s_end,
          bias_out, policy_out, span_min_io, span_max_io);
      return;
    case 2:
      rvi_sweep_avx512_impl<kActions, 2>(
          model, rewards, tau, bias_in, reference_residual, s_begin, s_end,
          bias_out, policy_out, span_min_io, span_max_io);
      return;
    case 3:
      rvi_sweep_avx512_impl<kActions, 3>(
          model, rewards, tau, bias_in, reference_residual, s_begin, s_end,
          bias_out, policy_out, span_min_io, span_max_io);
      return;
    case 4:
      rvi_sweep_avx512_impl<kActions, 4>(
          model, rewards, tau, bias_in, reference_residual, s_begin, s_end,
          bias_out, policy_out, span_min_io, span_max_io);
      return;
    default:
      rvi_sweep_avx512_impl<kActions, 0>(
          model, rewards, tau, bias_in, reference_residual, s_begin, s_end,
          bias_out, policy_out, span_min_io, span_max_io);
      return;
  }
}

}  // namespace

void rvi_sweep_avx512(const CompiledModel& model, const double* rewards,
                      double tau, const double* bias_in,
                      double reference_residual, StateId s_begin,
                      StateId s_end, double* bias_out,
                      std::uint32_t* policy_out, double* span_min_io,
                      double* span_max_io) noexcept {
  if (model.uniform_actions() == 3) {
    rvi_sweep_avx512_menu<3>(model, rewards, tau, bias_in, reference_residual,
                             s_begin, s_end, bias_out, policy_out,
                             span_min_io, span_max_io);
  } else {
    rvi_sweep_avx512_menu<2>(model, rewards, tau, bias_in, reference_residual,
                             s_begin, s_end, bias_out, policy_out,
                             span_min_io, span_max_io);
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
