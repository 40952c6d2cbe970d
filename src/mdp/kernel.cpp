#include "mdp/kernel.hpp"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <limits>
#include <vector>

#include "obs/event_log.hpp"
#include "obs/metrics.hpp"
#include "util/cpu_features.hpp"

namespace bvc::mdp::kernel {

std::optional<Request> parse_request(std::string_view name) noexcept {
  if (name == "auto") {
    return Request::kAuto;
  }
  if (name == "scalar") {
    return Request::kScalar;
  }
  if (name == "avx2") {
    return Request::kAvx2;
  }
  if (name == "avx512") {
    return Request::kAvx512;
  }
  return std::nullopt;
}

std::string_view to_string(Isa isa) noexcept {
  switch (isa) {
    case Isa::kScalar:
      return "scalar";
    case Isa::kAvx2:
      return "avx2";
    case Isa::kAvx512:
      return "avx512";
  }
  return "scalar";
}

std::string_view to_string(Request request) noexcept {
  switch (request) {
    case Request::kAuto:
      return "auto";
    case Request::kScalar:
      return "scalar";
    case Request::kAvx2:
      return "avx2";
    case Request::kAvx512:
      return "avx512";
  }
  return "auto";
}

namespace {

Request request_from_env() noexcept {
  const char* env = std::getenv("BVC_KERNEL");
  if (env == nullptr || env[0] == '\0') {
    return Request::kAuto;
  }
  if (const auto parsed = parse_request(env)) {
    return *parsed;
  }
  obs::log_warn("kernel",
                "ignoring BVC_KERNEL (expected auto|scalar|avx2|avx512); "
                "using auto",
                {{"value", env}});
  return Request::kAuto;
}

std::atomic<Request>& requested_slot() noexcept {
  static std::atomic<Request> slot{request_from_env()};
  return slot;
}

}  // namespace

Request requested() noexcept {
  return requested_slot().load(std::memory_order_relaxed);
}

void set_requested(Request request) noexcept {
  requested_slot().store(request, std::memory_order_relaxed);
}

bool isa_available(Isa isa) noexcept {
  switch (isa) {
    case Isa::kScalar:
      return true;
    case Isa::kAvx2:
      return detail::avx2_compiled() && util::cpu_features().avx2;
    case Isa::kAvx512:
      return detail::avx512_compiled() && util::cpu_features().avx512f;
  }
  return false;
}

namespace {

/// One-shot micro-calibration for kAuto when BOTH vector ISAs are usable.
/// "Wider is faster" is false on real parts — Skylake-class Xeons execute
/// 4-lane ymm gathers at better per-lane throughput than 8-lane zmm ones,
/// and the sweep kernels are gather- and bandwidth-bound — so auto
/// dispatch measures once per process instead of assuming. The probe runs
/// the fused rvi_sweep (the primitive production solves spend their time
/// in) over a synthetic uniform 2-action / 3-outcome model sized so the
/// bias vector spills into L2 and the next indices scatter, matching the
/// real attack models' access pattern. Either answer is safe: every ISA
/// produces bit-identical results, so calibration affects speed only.
/// Explicit --kernel requests bypass this entirely.
Isa calibrated_vector_isa() noexcept {
  static const Isa choice = []() noexcept -> Isa {
    try {
      constexpr StateId kStates = 16384;
      ModelBuilder builder(kStates);
      for (StateId s = 0; s < kStates; ++s) {
        for (std::uint32_t a = 0; a < 2; ++a) {
          builder.begin_action(s, static_cast<ActionLabel>(a));
          std::uint32_t hash = (s * 2u + a) * 2654435761u;
          for (int j = 0; j < 3; ++j) {
            hash = hash * 747796405u + 2891336453u;
            builder.add_outcome(static_cast<StateId>(hash % kStates),
                                j < 2 ? 0.375 : 0.25, 0.0, 1.0);
          }
        }
      }
      const CompiledModel compiled = CompiledModel::compile(builder.build());
      if (!compiled.has_ell()) {
        return Isa::kAvx512;
      }
      std::vector<double> bias(kStates);
      for (StateId s = 0; s < kStates; ++s) {
        bias[s] = 0.25 * static_cast<double>(s % 97) - 3.0;
      }
      std::vector<double> next(kStates, 0.0);
      const double* rewards = compiled.expected_reward();
      using Clock = std::chrono::steady_clock;
      const auto best_sweep_seconds = [&](Isa isa) {
        double best = std::numeric_limits<double>::infinity();
        for (int rep = 0; rep < 3; ++rep) {
          const Clock::time_point start = Clock::now();
          for (int i = 0; i < 8; ++i) {
            double span_min = std::numeric_limits<double>::infinity();
            double span_max = -std::numeric_limits<double>::infinity();
            rvi_sweep(compiled, rewards, 0.999, bias.data(), 0.0, 0, kStates,
                      next.data(), nullptr, &span_min, &span_max, isa);
          }
          best = std::min(
              best, std::chrono::duration<double>(Clock::now() - start)
                        .count());
        }
        return best;
      };
      return best_sweep_seconds(Isa::kAvx512) <= best_sweep_seconds(Isa::kAvx2)
                 ? Isa::kAvx512
                 : Isa::kAvx2;
    } catch (...) {
      // Calibration is best-effort; fall back to the wider ISA.
      return Isa::kAvx512;
    }
  }();
  return choice;
}

}  // namespace

Isa resolve(Request request) noexcept {
  Isa isa = Isa::kScalar;
  const bool avail_512 = isa_available(Isa::kAvx512);
  const bool avail_2 = isa_available(Isa::kAvx2);
  if (request == Request::kAuto && avail_512 && avail_2) {
    isa = calibrated_vector_isa();
  } else {
    const bool want_512 =
        request == Request::kAvx512 || request == Request::kAuto;
    const bool want_2 = want_512 || request == Request::kAvx2;
    if (want_512 && avail_512) {
      isa = Isa::kAvx512;
    } else if (want_2 && avail_2) {
      isa = Isa::kAvx2;
    }
  }
  if (obs::metrics_enabled()) {
    static obs::Gauge& isa_gauge =
        obs::MetricsRegistry::global().gauge("mdp.kernel.isa");
    isa_gauge.set(static_cast<double>(static_cast<int>(isa)));
  }
  return isa;
}

Isa resolve() noexcept { return resolve(requested()); }

namespace detail {

void rvi_sweep_scalar(const CompiledModel& model, const double* rewards,
                      double tau, const double* bias_in,
                      double reference_residual, StateId s_begin,
                      StateId s_end, double* bias_out,
                      std::uint32_t* policy_out, double* span_min_io,
                      double* span_max_io) noexcept {
  const double* prob = model.prob();
  const StateId* next = model.next();
  double span_min = *span_min_io;
  double span_max = *span_max_io;
  for (StateId s = s_begin; s < s_end; ++s) {
    const std::size_t actions = model.num_actions(s);
    const SaIndex sa_base = model.state_begin(s);
    const double damped = (1.0 - tau) * bias_in[s];
    double best = -std::numeric_limits<double>::infinity();
    std::uint32_t best_action = 0;
    for (std::size_t a = 0; a < actions; ++a) {
      const SaIndex sa = sa_base + a;
      double expected_next = 0.0;
      const std::size_t end = model.outcome_end(sa);
      for (std::size_t k = model.outcome_begin(sa); k < end; ++k) {
        expected_next += prob[k] * bias_in[next[k]];
      }
      const double q = tau * (rewards[sa] + expected_next) + damped;
      if (q > best) {
        best = q;
        best_action = static_cast<std::uint32_t>(a);
      }
    }
    if (policy_out != nullptr) {
      policy_out[s] = best_action;
    }
    const double residual = best - bias_in[s];
    span_min = std::min(span_min, residual);
    span_max = std::max(span_max, residual);
    bias_out[s] = best - reference_residual;
  }
  *span_min_io = span_min;
  *span_max_io = span_max;
}

void rvi_eval_sweep_scalar(const PolicyChain& chain, double tau,
                           const double* bias_in, double reference_residual,
                           StateId s_begin, StateId s_end, double* bias_out,
                           double* span_min_io, double* span_max_io) noexcept {
  const std::size_t width = chain.width();
  const std::size_t stride = chain.stride();
  const double* prob = chain.prob();
  const StateId* next = chain.next();
  const double* reward = chain.reward();
  double span_min = *span_min_io;
  double span_max = *span_max_io;
  for (StateId s = s_begin; s < s_end; ++s) {
    // rvi_sweep_scalar's tree with one action: padding terms past the
    // row's real outcomes add exact zeros.
    double expected_next = 0.0;
    for (std::size_t j = 0; j < width; ++j) {
      expected_next += prob[j * stride + s] * bias_in[next[j * stride + s]];
    }
    const double value =
        tau * (reward[s] + expected_next) + (1.0 - tau) * bias_in[s];
    const double residual = value - bias_in[s];
    span_min = std::min(span_min, residual);
    span_max = std::max(span_max, residual);
    bias_out[s] = value - reference_residual;
  }
  *span_min_io = span_min;
  *span_max_io = span_max;
}

}  // namespace detail

namespace {

/// The AVX-512 bodies decode palette codes; rows without codes run the
/// AVX2 bodies instead, as resolve() degrades avx512 -> avx2.
Isa coded_isa(Isa isa, bool has_codes) noexcept {
  return isa == Isa::kAvx512 && !has_codes ? Isa::kAvx2 : isa;
}

}  // namespace

Isa rvi_sweep_isa(const CompiledModel& model, Isa isa) noexcept {
  // The in-register backup needs the ELL mirror, and the vector combine
  // a fixed-width uniform menu of two or three actions.
  const std::size_t menu = model.uniform_actions();
  return model.has_ell() && (menu == 2 || menu == 3)
             ? coded_isa(isa, model.has_codes())
             : Isa::kScalar;
}

Isa rvi_sweep_isa(const PolicyChain& chain, Isa isa) noexcept {
  return coded_isa(isa, chain.has_codes());
}

void rvi_sweep(const CompiledModel& model, const double* rewards, double tau,
               const double* bias_in, double reference_residual,
               StateId s_begin, StateId s_end, double* bias_out,
               std::uint32_t* policy_out, double* span_min_io,
               double* span_max_io, Isa isa) noexcept {
  switch (rvi_sweep_isa(model, isa)) {
    case Isa::kAvx512:
      detail::rvi_sweep_avx512(model, rewards, tau, bias_in,
                               reference_residual, s_begin, s_end, bias_out,
                               policy_out, span_min_io, span_max_io);
      return;
    case Isa::kAvx2:
      detail::rvi_sweep_avx2(model, rewards, tau, bias_in, reference_residual,
                             s_begin, s_end, bias_out, policy_out,
                             span_min_io, span_max_io);
      return;
    case Isa::kScalar:
      break;
  }
  detail::rvi_sweep_scalar(model, rewards, tau, bias_in, reference_residual,
                           s_begin, s_end, bias_out, policy_out, span_min_io,
                           span_max_io);
}

void rvi_eval_sweep(const PolicyChain& chain, double tau,
                    const double* bias_in, double reference_residual,
                    StateId s_begin, StateId s_end, double* bias_out,
                    double* span_min_io, double* span_max_io,
                    Isa isa) noexcept {
  switch (rvi_sweep_isa(chain, isa)) {
    case Isa::kAvx512:
      detail::rvi_eval_sweep_avx512(chain, tau, bias_in, reference_residual,
                                    s_begin, s_end, bias_out, span_min_io,
                                    span_max_io);
      return;
    case Isa::kAvx2:
      detail::rvi_eval_sweep_avx2(chain, tau, bias_in, reference_residual,
                                  s_begin, s_end, bias_out, span_min_io,
                                  span_max_io);
      return;
    case Isa::kScalar:
      break;
  }
  detail::rvi_eval_sweep_scalar(chain, tau, bias_in, reference_residual,
                                s_begin, s_end, bias_out, span_min_io,
                                span_max_io);
}

}  // namespace bvc::mdp::kernel
