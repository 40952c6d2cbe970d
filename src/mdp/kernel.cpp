#include "mdp/kernel.hpp"

#include <algorithm>
#include <atomic>
#include <cstdlib>
#include <limits>

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
  obs::log_event("kernel",
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

Isa resolve(Request request) noexcept {
  const bool want_512 =
      request == Request::kAvx512 || request == Request::kAuto;
  const bool want_2 = want_512 || request == Request::kAvx2;
  Isa isa = Isa::kScalar;
  if (want_512 && isa_available(Isa::kAvx512)) {
    isa = Isa::kAvx512;
  } else if (want_2 && isa_available(Isa::kAvx2)) {
    isa = Isa::kAvx2;
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
