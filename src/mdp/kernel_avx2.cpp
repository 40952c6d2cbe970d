// AVX2 sweep kernels: 4 lanes per vector step over the ELL mirror.
//
// As in the AVX-512 twin, one greedy body serves uniform menus of two and
// three actions: the gather loop runs over consecutive flat actions, and
// only the combine's deinterleave (action_lanes) and its argmax length
// depend on the menu width.
//
// This translation unit is compiled with -mavx2 when the toolchain accepts
// it (see src/mdp/CMakeLists.txt); resolve() only routes here when the
// running CPU reports AVX2. On toolchains without the flag the stub at the
// bottom forwards to scalar and avx2_compiled() reports false.
#include "mdp/kernel.hpp"

#if defined(__AVX2__)

#include <immintrin.h>

#include <algorithm>

namespace bvc::mdp::kernel::detail {

bool avx2_compiled() noexcept { return true; }

namespace {

/// Action a's four lanes out of kActions consecutive 4-lane vectors of
/// flat actions (v[i] holds flat actions 4i..4i+3 of four states, so state
/// l's action a is flat action kActions * l + a). AVX2 has no two-source
/// lane permute for doubles: two actions unpack the pairs and restore the
/// state order with one cross-lane permute; three blend each action's four
/// values into one register (they sit in distinct lanes) and permute them
/// into state order. Blends and permutes move bits, never round.
template <int kActions>
[[nodiscard]] __m256d action_lanes(const __m256d* v, int a) noexcept;

template <>
[[nodiscard]] __m256d action_lanes<2>(const __m256d* v, int a) noexcept {
  constexpr int kDeinterleave = _MM_SHUFFLE(3, 1, 2, 0);
  return a == 0 ? _mm256_permute4x64_pd(_mm256_unpacklo_pd(v[0], v[1]),
                                        kDeinterleave)
                : _mm256_permute4x64_pd(_mm256_unpackhi_pd(v[0], v[1]),
                                        kDeinterleave);
}

template <>
[[nodiscard]] __m256d action_lanes<3>(const __m256d* v, int a) noexcept {
  // Flat action f = a + 3l sits in lane f % 4 of v[f / 4], and an
  // action's four values occupy four distinct lanes.
  switch (a) {
    case 0:  // {v0[0], v2[1], v1[2], v0[3]} -> lanes 0, 3, 2, 1
      return _mm256_permute4x64_pd(
          _mm256_blend_pd(_mm256_blend_pd(v[0], v[1], 0b0100), v[2], 0b0010),
          _MM_SHUFFLE(1, 2, 3, 0));
    case 1:  // {v1[0], v0[1], v2[2], v1[3]} -> lanes 1, 0, 3, 2
      return _mm256_permute4x64_pd(
          _mm256_blend_pd(_mm256_blend_pd(v[0], v[1], 0b1001), v[2], 0b0100),
          _MM_SHUFFLE(2, 3, 0, 1));
    default:  // {v2[0], v1[1], v0[2], v2[3]} -> lanes 2, 1, 0, 3
      return _mm256_permute4x64_pd(
          _mm256_blend_pd(_mm256_blend_pd(v[0], v[1], 0b0010), v[2], 0b1001),
          _MM_SHUFFLE(3, 0, 1, 2));
  }
}

// The fused-sweep body for a uniform kActions-action menu (2 or 3),
// width-specialized; see the AVX-512 twin for why the small common widths
// get straight-line instantiations (kWidthSpec 0 is the runtime-width
// fallback).
template <int kActions, int kWidthSpec>
void rvi_sweep_avx2_impl(const CompiledModel& model, const double* rewards,
                         double tau, const double* bias_in,
                         double reference_residual, StateId s_begin,
                         StateId s_end, double* bias_out,
                         std::uint32_t* policy_out, double* span_min_io,
                         double* span_max_io) noexcept {
  // Dispatcher precondition: ELL mirror present, uniform kActions-action
  // menu, greedy mode. Eight states (8 * kActions flat actions) per outer
  // step: 2 * kActions 4-lane gather chains accumulate the expected-next
  // values in registers and the combine consumes them before they ever
  // touch memory. See the AVX-512 fused sweep for the unroll and rounding
  // rationale.
  constexpr StateId kBlock = 4;  // states per combine vector
  constexpr StateId kStep = 8;   // states per unrolled outer iteration
  constexpr int kChains = kActions * kStep / kBlock;
  const std::size_t width =
      kWidthSpec > 0 ? static_cast<std::size_t>(kWidthSpec)
                     : model.ell_width();
  const std::size_t stride = model.ell_stride();
  const double* ell_prob = model.ell_prob();
  const StateId* ell_next = model.ell_next();
  const __m256d vtau = _mm256_set1_pd(tau);
  const __m256d vdamp = _mm256_set1_pd(1.0 - tau);
  const __m256d vref = _mm256_set1_pd(reference_residual);
  __m256d vmin = _mm256_set1_pd(*span_min_io);
  __m256d vmax = _mm256_set1_pd(*span_max_io);

  StateId s = s_begin;
  for (; s + kStep <= s_end; s += kStep) {
    const std::size_t sa = kActions * static_cast<std::size_t>(s);
    __m256d q[kChains];
    for (int c = 0; c < kChains; ++c) {
      q[c] = _mm256_setzero_pd();
    }
    for (std::size_t j = 0; j < width; ++j) {
      const StateId* row_next = ell_next + j * stride + sa;
      const double* row_prob = ell_prob + j * stride + sa;
      __m256d b[kChains];
      for (int c = 0; c < kChains; ++c) {
        b[c] = _mm256_i32gather_pd(
            bias_in,
            _mm_loadu_si128(
                reinterpret_cast<const __m128i*>(row_next + 4 * c)),
            8);
      }
      // Each term is fl(p * b), mul and add kept separate, never FMA.
      for (int c = 0; c < kChains; ++c) {
        q[c] = _mm256_add_pd(
            q[c], _mm256_mul_pd(_mm256_loadu_pd(row_prob + 4 * c), b[c]));
      }
    }
    for (int half = 0; half < 2; ++half) {
      const __m256d* qh = q + half * kActions;
      const StateId so = s + half * kBlock;
      const std::size_t sao = sa + half * kActions * kBlock;
      // fl(tau * fl(r + q)) is elementwise, so it runs on the flat
      // layout, and only its kActions vectors are deinterleaved.
      __m256d scaled[kActions];
      for (int i = 0; i < kActions; ++i) {
        scaled[i] = _mm256_mul_pd(
            vtau,
            _mm256_add_pd(_mm256_loadu_pd(rewards + sao + i * kBlock), qh[i]));
      }
      const __m256d b = _mm256_loadu_pd(bias_in + so);
      const __m256d damped = _mm256_mul_pd(vdamp, b);
      const auto value = [&](int a) {
        return _mm256_add_pd(action_lanes<kActions>(scaled, a), damped);
      };
      // Strict greater-than in action order, exactly the scalar
      // `if (q > best)`: ties keep the lower action.
      __m256d best = value(0);
      int taken[kActions] = {};
      for (int a = 1; a < kActions; ++a) {
        const __m256d v = value(a);
        const __m256d take = _mm256_cmp_pd(v, best, _CMP_GT_OQ);
        best = _mm256_blendv_pd(best, v, take);
        taken[a] = _mm256_movemask_pd(take);
      }
      if (policy_out != nullptr) {
        // A lane's action is the last one that took it.
        for (StateId lane = 0; lane < kBlock; ++lane) {
          std::uint32_t action = 0;
          for (int a = 1; a < kActions; ++a) {
            if (((taken[a] >> lane) & 1) != 0) {
              action = static_cast<std::uint32_t>(a);
            }
          }
          policy_out[so + lane] = action;
        }
      }
      const __m256d residual = _mm256_sub_pd(best, b);
      vmin = _mm256_min_pd(vmin, residual);
      vmax = _mm256_max_pd(vmax, residual);
      _mm256_storeu_pd(bias_out + so, _mm256_sub_pd(best, vref));
    }
  }
  // min/max are exact, so the horizontal reduction order is irrelevant.
  alignas(32) double lanes_min[kBlock];
  alignas(32) double lanes_max[kBlock];
  _mm256_store_pd(lanes_min, vmin);
  _mm256_store_pd(lanes_max, vmax);
  for (StateId lane = 0; lane < kBlock; ++lane) {
    *span_min_io = std::min(*span_min_io, lanes_min[lane]);
    *span_max_io = std::max(*span_max_io, lanes_max[lane]);
  }
  if (s < s_end) {
    rvi_sweep_scalar(model, rewards, tau, bias_in, reference_residual, s,
                     s_end, bias_out, policy_out, span_min_io, span_max_io);
  }
}

/// rvi_sweep_avx2_impl<kActions, width> for the model's ELL width.
template <int kActions>
void rvi_sweep_avx2_menu(const CompiledModel& model, const double* rewards,
                         double tau, const double* bias_in,
                         double reference_residual, StateId s_begin,
                         StateId s_end, double* bias_out,
                         std::uint32_t* policy_out, double* span_min_io,
                         double* span_max_io) noexcept {
  switch (model.ell_width()) {
    case 1:
      rvi_sweep_avx2_impl<kActions, 1>(
          model, rewards, tau, bias_in, reference_residual, s_begin, s_end,
          bias_out, policy_out, span_min_io, span_max_io);
      return;
    case 2:
      rvi_sweep_avx2_impl<kActions, 2>(
          model, rewards, tau, bias_in, reference_residual, s_begin, s_end,
          bias_out, policy_out, span_min_io, span_max_io);
      return;
    case 3:
      rvi_sweep_avx2_impl<kActions, 3>(
          model, rewards, tau, bias_in, reference_residual, s_begin, s_end,
          bias_out, policy_out, span_min_io, span_max_io);
      return;
    case 4:
      rvi_sweep_avx2_impl<kActions, 4>(
          model, rewards, tau, bias_in, reference_residual, s_begin, s_end,
          bias_out, policy_out, span_min_io, span_max_io);
      return;
    default:
      rvi_sweep_avx2_impl<kActions, 0>(
          model, rewards, tau, bias_in, reference_residual, s_begin, s_end,
          bias_out, policy_out, span_min_io, span_max_io);
      return;
  }
}

}  // namespace

void rvi_sweep_avx2(const CompiledModel& model, const double* rewards,
                    double tau, const double* bias_in,
                    double reference_residual, StateId s_begin, StateId s_end,
                    double* bias_out, std::uint32_t* policy_out,
                    double* span_min_io, double* span_max_io) noexcept {
  if (model.uniform_actions() == 3) {
    rvi_sweep_avx2_menu<3>(model, rewards, tau, bias_in, reference_residual,
                           s_begin, s_end, bias_out, policy_out, span_min_io,
                           span_max_io);
  } else {
    rvi_sweep_avx2_menu<2>(model, rewards, tau, bias_in, reference_residual,
                           s_begin, s_end, bias_out, policy_out, span_min_io,
                           span_max_io);
  }
}

namespace {

// The fixed-policy chain sweep; see the AVX-512 twin for the lane layout
// and rounding notes. Four 4-state gather chains per outer step.
template <int kWidthSpec>
void rvi_eval_sweep_avx2_impl(const PolicyChain& chain, double tau,
                              const double* bias_in,
                              double reference_residual, StateId s_begin,
                              StateId s_end, double* bias_out,
                              double* span_min_io,
                              double* span_max_io) noexcept {
  constexpr StateId kLanes = 4;
  constexpr StateId kStep = 16;
  const std::size_t width =
      kWidthSpec > 0 ? static_cast<std::size_t>(kWidthSpec) : chain.width();
  const std::size_t stride = chain.stride();
  const double* prob = chain.prob();
  const StateId* next = chain.next();
  const double* reward = chain.reward();
  const __m256d vtau = _mm256_set1_pd(tau);
  const __m256d vdamp = _mm256_set1_pd(1.0 - tau);
  const __m256d vref = _mm256_set1_pd(reference_residual);
  __m256d vmin = _mm256_set1_pd(*span_min_io);
  __m256d vmax = _mm256_set1_pd(*span_max_io);

  // Outcome j's term for the 4 states at `so`: fl(p * b), never fused.
  const auto term = [&](std::size_t j, StateId so) {
    const std::size_t at = j * stride + so;
    const __m256d b = _mm256_i32gather_pd(
        bias_in, _mm_loadu_si128(reinterpret_cast<const __m128i*>(next + at)),
        8);
    return _mm256_mul_pd(_mm256_loadu_pd(prob + at), b);
  };
  const auto finish = [&](StateId so, __m256d expected_next) {
    const __m256d b = _mm256_loadu_pd(bias_in + so);
    const __m256d value = _mm256_add_pd(
        _mm256_mul_pd(vtau,
                      _mm256_add_pd(_mm256_loadu_pd(reward + so),
                                    expected_next)),
        _mm256_mul_pd(vdamp, b));
    const __m256d residual = _mm256_sub_pd(value, b);
    vmin = _mm256_min_pd(vmin, residual);
    vmax = _mm256_max_pd(vmax, residual);
    _mm256_storeu_pd(bias_out + so, _mm256_sub_pd(value, vref));
  };

  StateId s = s_begin;
  for (; s + kStep <= s_end; s += kStep) {
    __m256d q0 = _mm256_setzero_pd();
    __m256d q1 = _mm256_setzero_pd();
    __m256d q2 = _mm256_setzero_pd();
    __m256d q3 = _mm256_setzero_pd();
    for (std::size_t j = 0; j < width; ++j) {
      q0 = _mm256_add_pd(q0, term(j, s));
      q1 = _mm256_add_pd(q1, term(j, s + kLanes));
      q2 = _mm256_add_pd(q2, term(j, s + 2 * kLanes));
      q3 = _mm256_add_pd(q3, term(j, s + 3 * kLanes));
    }
    finish(s, q0);
    finish(s + kLanes, q1);
    finish(s + 2 * kLanes, q2);
    finish(s + 3 * kLanes, q3);
  }
  for (; s + kLanes <= s_end; s += kLanes) {
    __m256d q = _mm256_setzero_pd();
    for (std::size_t j = 0; j < width; ++j) {
      q = _mm256_add_pd(q, term(j, s));
    }
    finish(s, q);
  }
  // min/max are exact, so the horizontal reduction order is irrelevant.
  alignas(32) double lanes_min[kLanes];
  alignas(32) double lanes_max[kLanes];
  _mm256_store_pd(lanes_min, vmin);
  _mm256_store_pd(lanes_max, vmax);
  for (StateId lane = 0; lane < kLanes; ++lane) {
    *span_min_io = std::min(*span_min_io, lanes_min[lane]);
    *span_max_io = std::max(*span_max_io, lanes_max[lane]);
  }
  if (s < s_end) {
    rvi_eval_sweep_scalar(chain, tau, bias_in, reference_residual, s, s_end,
                          bias_out, span_min_io, span_max_io);
  }
}

}  // namespace

void rvi_eval_sweep_avx2(const PolicyChain& chain, double tau,
                         const double* bias_in, double reference_residual,
                         StateId s_begin, StateId s_end, double* bias_out,
                         double* span_min_io, double* span_max_io) noexcept {
  switch (chain.width()) {
    case 1:
      rvi_eval_sweep_avx2_impl<1>(chain, tau, bias_in, reference_residual,
                                  s_begin, s_end, bias_out, span_min_io,
                                  span_max_io);
      return;
    case 2:
      rvi_eval_sweep_avx2_impl<2>(chain, tau, bias_in, reference_residual,
                                  s_begin, s_end, bias_out, span_min_io,
                                  span_max_io);
      return;
    case 3:
      rvi_eval_sweep_avx2_impl<3>(chain, tau, bias_in, reference_residual,
                                  s_begin, s_end, bias_out, span_min_io,
                                  span_max_io);
      return;
    default:
      rvi_eval_sweep_avx2_impl<0>(chain, tau, bias_in, reference_residual,
                                  s_begin, s_end, bias_out, span_min_io,
                                  span_max_io);
      return;
  }
}

}  // namespace bvc::mdp::kernel::detail

#else  // !defined(__AVX2__)

namespace bvc::mdp::kernel::detail {

bool avx2_compiled() noexcept { return false; }

void rvi_sweep_avx2(const CompiledModel& model, const double* rewards,
                    double tau, const double* bias_in,
                    double reference_residual, StateId s_begin, StateId s_end,
                    double* bias_out, std::uint32_t* policy_out,
                    double* span_min_io, double* span_max_io) noexcept {
  rvi_sweep_scalar(model, rewards, tau, bias_in, reference_residual, s_begin,
                   s_end, bias_out, policy_out, span_min_io, span_max_io);
}

void rvi_eval_sweep_avx2(const PolicyChain& chain, double tau,
                         const double* bias_in, double reference_residual,
                         StateId s_begin, StateId s_end, double* bias_out,
                         double* span_min_io, double* span_max_io) noexcept {
  rvi_eval_sweep_scalar(chain, tau, bias_in, reference_residual, s_begin,
                        s_end, bias_out, span_min_io, span_max_io);
}

}  // namespace bvc::mdp::kernel::detail

#endif
