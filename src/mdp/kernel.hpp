// Vectorized RVI sweep kernels with runtime ISA dispatch.
//
// Every RVI sweep reduces, per flat action sa, to the expected-next sum
//
//   q[sa] = sum_j fl( p_j * bias[next_j] )      (j in row order, from +0.0)
//
// where (p_j, next_j) are action sa's outcome rows and fl() is one double
// rounding, plus a cheap per-state combine (rewards and the tau transform).
// The kernels fuse the two: rvi_sweep for the greedy pass over a model's
// full action menu, rvi_eval_sweep for a fixed policy over the policy's
// compacted chain (mdp::PolicyChain, one row per state). These kernels are
// the RVI solvers' only sweep code, on every ISA: the scalar bodies are the
// reference expression trees, not a separate solver path. (The exact
// policy iteration in policy_iteration.hpp walks the CSR columns itself.)
//
// Which probability column each ISA reads: the scalar and AVX2 bodies read
// the ELL mirror's doubles; the AVX-512 bodies read its one-byte palette
// codes (CompiledModel::has_codes) and decode eight lanes with one
// _mm512_cvtepu8_epi64 and one _mm512_permutex2var_pd over the palette's
// two registers. A decoded lane holds the bits of the double it replaces,
// so the products below are unchanged. The sweeps over big models are
// bandwidth-bound, and the codes cut the bytes streamed per outcome from
// 12 (index + double) to 5. On AVX2 the decode costs more than it saves
// (docs/PARALLELISM.md), so an AVX-512 request on rows without codes (a
// mirror with more than 16 values) runs the AVX2 bodies.
//
// Bit-identity policy: the vector kernels evaluate the EXACT same
// expression tree as the scalar CSR loop — per row, terms are accumulated
// in outcome order with separate multiply and add (never FMA, which fuses
// the rounding), and each SIMD lane owns one whole row (the ELL mirror is
// column-major, so lane l of a vector step is outcome j of row sa+l).
// Vectorization therefore reorders nothing within a row and sums nothing
// across rows. The greedy combine deinterleaves a uniform menu's action
// columns with permutes and blends, which move bits without rounding, and
// takes the argmax in action order with the scalar strict greater-than.
// Every sweep output is therefore bit-identical to the scalar
// kernel's for every ISA. The one exception is the sign of zero: ELL
// padding accumulates exact +/-0.0 terms, which can flip a zero result's
// sign (+0.0 == -0.0, so compare with ==, not memcmp). A solve therefore
// returns the same result whichever ISA the dispatcher picks.
//
// Dispatch: the process-wide request (the BVC_KERNEL env var, the only
// ISA setting of the binaries; set_requested overrides it in-process, as
// the tests and the benchmark harness do) is clamped to what the build
// carries AND the CPU supports (util::cpu_features) — avx512 degrades to
// avx2 degrades to scalar. When the request is auto and both vector ISAs
// are usable, resolve() picks between them by a one-shot per-process
// micro-calibration (gather throughput decides this kernel, and 8-lane
// zmm gathers are slower per lane than 4-lane ymm ones on Skylake-class
// parts, so "widest available" is the wrong rule); explicit requests are
// honored as given. resolve() records the chosen ISA in the
// mdp.kernel.isa gauge; benches also stamp it into the run manifest.
#pragma once

#include <cstdint>
#include <optional>
#include <string_view>

#include "mdp/compiled_model.hpp"

namespace bvc::mdp::kernel {

/// An ISA the sweep kernels can execute with. Values are stable (the
/// mdp.kernel.isa gauge exports them): 0 scalar, 1 avx2, 2 avx512.
enum class Isa : int { kScalar = 0, kAvx2 = 1, kAvx512 = 2 };

/// What the user asked for; kAuto picks the best available ISA.
enum class Request : int { kAuto = -1, kScalar = 0, kAvx2 = 1, kAvx512 = 2 };

/// Parses "auto" | "scalar" | "avx2" | "avx512" (the BVC_KERNEL
/// vocabulary); nullopt on anything else.
[[nodiscard]] std::optional<Request> parse_request(
    std::string_view name) noexcept;

[[nodiscard]] std::string_view to_string(Isa isa) noexcept;
[[nodiscard]] std::string_view to_string(Request request) noexcept;

/// The process-wide kernel request. Initialized once from the BVC_KERNEL
/// environment variable (unset or invalid -> kAuto, invalid warns on
/// stderr); set_requested overrides it for the rest of the process.
[[nodiscard]] Request requested() noexcept;
void set_requested(Request request) noexcept;

/// True iff this build contains the ISA's code path AND the running CPU
/// can execute it. kScalar is always available.
[[nodiscard]] bool isa_available(Isa isa) noexcept;

/// `request` clamped to availability (avx512 -> avx2 -> scalar); records
/// the result in the mdp.kernel.isa gauge when metrics are enabled. The
/// zero-argument form resolves the process-wide requested().
[[nodiscard]] Isa resolve(Request request) noexcept;
[[nodiscard]] Isa resolve() noexcept;

/// The fused greedy RVI Jacobi sweep over states [s_begin, s_end). Per
/// state s, with q_all[sa] the expected-next sum of the file comment:
///
///   value(a)    = fl( fl(tau * fl(rewards[sa] + q_all[sa]))
///                     + fl((1 - tau) * bias_in[s]) )          sa = base + a
///   best        = max_a value(a)   (argmax ties keep the LOWER action,
///                                   the scalar `if (q > best)`)
///   bias_out[s] = fl(best - reference_residual)
///   policy_out[s] = argmax          (skipped when policy_out is null)
///   *span_min_io / *span_max_io accumulate fl(best - bias_in[s])
///
/// Each state's expected-next values stay in registers instead of
/// round-tripping through a q column: the sweep is single-core
/// bandwidth-bound on real models, and eliminating the q column's
/// store+reload (16 bytes per state-action per sweep) is worth more than
/// any amount of instruction tuning. It runs on the ISA rvi_sweep_isa
/// names; on AVX-512 the probabilities come from the palette codes. Every
/// ISA reads the same probability bits, so the codes change bytes moved,
/// not results. Thread-safe for disjoint state ranges; span pointers must
/// be distinct per caller.
void rvi_sweep(const CompiledModel& model, const double* rewards, double tau,
               const double* bias_in, double reference_residual,
               StateId s_begin, StateId s_end, double* bias_out,
               std::uint32_t* policy_out, double* span_min_io,
               double* span_max_io, Isa isa) noexcept;

/// The ISA rvi_sweep actually runs for `model` when asked for `isa` — the
/// dispatcher's own gate: the vector bodies need an ELL mirror and a
/// uniform menu of two actions (Tables 2 and 3) or three (Table 4's, with
/// Wait); every other model (ragged menus, wider menus, no ELL mirror)
/// takes the scalar loop. An avx512 request on a model without palette
/// codes runs avx2.
[[nodiscard]] Isa rvi_sweep_isa(const CompiledModel& model, Isa isa) noexcept;

/// The ISA rvi_eval_sweep actually runs for `chain` when asked for `isa`:
/// `isa`, except that avx512 on a chain without codes runs avx2.
[[nodiscard]] Isa rvi_sweep_isa(const PolicyChain& chain, Isa isa) noexcept;

/// The fused fixed-policy RVI Jacobi sweep over states [s_begin, s_end) of
/// a policy's compacted chain (mdp::PolicyChain). Per state s,
///
///   next_s      = sum_j fl(chain.prob[j,s] * bias_in[chain.next[j,s]])
///                 (j in row order, from +0.0)
///   value       = fl( fl(tau * fl(chain.reward[s] + next_s))
///                     + fl((1 - tau) * bias_in[s]) )
///   bias_out[s] = fl(value - reference_residual)
///   *span_min_io / *span_max_io accumulate fl(value - bias_in[s])
///
/// — the expression tree of rvi_sweep with the action menu cut down to the
/// policy's action, so the result equals a greedy sweep of the one-action
/// model those rows form, bit-for-bit under the kernel's == contract. Each
/// lane owns one state's row, and every chain has the vector shape, so it
/// runs on rvi_sweep_isa(chain, isa). Thread-safe for disjoint state
/// ranges; span pointers must be distinct per caller.
void rvi_eval_sweep(const PolicyChain& chain, double tau,
                    const double* bias_in, double reference_residual,
                    StateId s_begin, StateId s_end, double* bias_out,
                    double* span_min_io, double* span_max_io,
                    Isa isa) noexcept;

namespace detail {
// Per-ISA implementations. The avx2/avx512 symbols exist in every build;
// when their translation unit was compiled without the ISA (non-x86
// toolchain) they forward to scalar and *_compiled() reports false, so
// isa_available() keeps resolve() away from them. The vector greedy sweeps
// handle only uniform two- and three-action menus (the dispatcher routes
// everything else to scalar).
void rvi_sweep_scalar(const CompiledModel& model, const double* rewards,
                      double tau, const double* bias_in,
                      double reference_residual, StateId s_begin,
                      StateId s_end, double* bias_out,
                      std::uint32_t* policy_out, double* span_min_io,
                      double* span_max_io) noexcept;
void rvi_sweep_avx2(const CompiledModel& model, const double* rewards,
                    double tau, const double* bias_in,
                    double reference_residual, StateId s_begin, StateId s_end,
                    double* bias_out, std::uint32_t* policy_out,
                    double* span_min_io, double* span_max_io) noexcept;
void rvi_sweep_avx512(const CompiledModel& model, const double* rewards,
                      double tau, const double* bias_in,
                      double reference_residual, StateId s_begin,
                      StateId s_end, double* bias_out,
                      std::uint32_t* policy_out, double* span_min_io,
                      double* span_max_io) noexcept;
void rvi_eval_sweep_scalar(const PolicyChain& chain, double tau,
                           const double* bias_in, double reference_residual,
                           StateId s_begin, StateId s_end, double* bias_out,
                           double* span_min_io, double* span_max_io) noexcept;
void rvi_eval_sweep_avx2(const PolicyChain& chain, double tau,
                         const double* bias_in, double reference_residual,
                         StateId s_begin, StateId s_end, double* bias_out,
                         double* span_min_io, double* span_max_io) noexcept;
void rvi_eval_sweep_avx512(const PolicyChain& chain, double tau,
                           const double* bias_in, double reference_residual,
                           StateId s_begin, StateId s_end, double* bias_out,
                           double* span_min_io, double* span_max_io) noexcept;
[[nodiscard]] bool avx2_compiled() noexcept;
[[nodiscard]] bool avx512_compiled() noexcept;
}  // namespace detail

}  // namespace bvc::mdp::kernel
