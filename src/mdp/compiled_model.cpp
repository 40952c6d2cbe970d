#include "mdp/compiled_model.hpp"

#include <algorithm>
#include <bit>
#include <cstdint>
#include <istream>
#include <ostream>
#include <sstream>
#include <type_traits>

#include "util/check.hpp"
#include "util/numa.hpp"

namespace bvc::mdp {

namespace {

/// The one writer of the ELL layout (the model's mirror and every
/// PolicyChain): row i of the block is flat action row_sa(i) of `model`'s
/// CSR columns, stored column-major as prob_out[j * stride + i] /
/// next_out[j * stride + i]. Entries past a row's real outcomes, and rows
/// past `rows` up to the stride, stay prob 0.0 / next 0. The stride is
/// `rows` rounded up to 8, so an 8-lane load at any row < `rows` stays
/// inside the allocation. Returns the stride.
template <typename RowSa>
std::size_t fill_ell(const CompiledModel& model, std::size_t rows,
                     RowSa row_sa, std::size_t width,
                     util::AlignedVector<double>& prob_out,
                     util::AlignedVector<StateId>& next_out) {
  const std::size_t stride = (rows + 7) / 8 * 8;
  prob_out.assign(width * stride, 0.0);
  next_out.assign(width * stride, 0);
  const double* prob = model.prob();
  const StateId* next = model.next();
  for (std::size_t i = 0; i < rows; ++i) {
    const SaIndex sa = row_sa(i);
    const std::size_t begin = model.outcome_begin(sa);
    const std::size_t end = model.outcome_end(sa);
    for (std::size_t k = begin; k < end; ++k) {
      prob_out[(k - begin) * stride + i] = prob[k];
      next_out[(k - begin) * stride + i] = next[k];
    }
  }
  return stride;
}

}  // namespace

CompiledModel CompiledModel::compile(const Model& model) {
  const StateId n = model.num_states();
  const std::size_t actions = model.num_state_actions();

  CompiledModel compiled;
  compiled.state_begin_.reserve(n + 1);
  compiled.action_labels_.reserve(actions);
  compiled.outcome_begin_.reserve(actions + 1);
  compiled.expected_reward_.reserve(actions);
  compiled.expected_weight_.reserve(actions);

  compiled.state_begin_.push_back(0);
  compiled.outcome_begin_.push_back(0);
  for (StateId s = 0; s < n; ++s) {
    const std::size_t state_actions = model.num_actions(s);
    for (std::size_t a = 0; a < state_actions; ++a) {
      const SaIndex sa = model.sa_index(s, a);
      compiled.action_labels_.push_back(model.action_label(s, a));
      compiled.expected_reward_.push_back(model.expected_reward(sa));
      compiled.expected_weight_.push_back(model.expected_weight(sa));
      // Outcome order is preserved verbatim: solvers accumulate expected
      // values in this order, so any reordering would change the
      // floating-point sums and break bit-compatibility with the Model path.
      for (const Outcome& o : model.outcomes(sa)) {
        compiled.next_.push_back(o.next);
        compiled.prob_.push_back(o.probability);
        compiled.reward_.push_back(o.reward);
        compiled.weight_.push_back(o.weight);
      }
      compiled.outcome_begin_.push_back(compiled.next_.size());
    }
    compiled.state_begin_.push_back(compiled.action_labels_.size());
  }

  BVC_ENSURE(compiled.action_labels_.size() == actions,
             "compiled action count must match the source model");
  compiled.finalize_layout();
  return compiled;
}

void CompiledModel::finalize_layout() {
  // ELL policy: pad every action to the widest row iff the widest row is
  // short and the padding overhead is bounded (see kMaxEllWidth /
  // kMaxEllPaddingFactor in the header). The attack models' actions have
  // at most 3 outcomes, so they always qualify.
  const std::size_t num_sa = action_labels_.size();
  // Uniform action count (0 when ragged): derived, so deserialized models
  // recompute it here rather than storing it in the cache format.
  const std::size_t num_states = state_begin_.size() - 1;
  uniform_actions_ = num_states > 0 ? state_begin_[1] - state_begin_[0] : 0;
  for (std::size_t s = 1; s < num_states; ++s) {
    if (state_begin_[s + 1] - state_begin_[s] != uniform_actions_) {
      uniform_actions_ = 0;
      break;
    }
  }
  std::size_t width = 0;
  for (std::size_t sa = 0; sa < num_sa; ++sa) {
    width = std::max(width, outcome_begin_[sa + 1] - outcome_begin_[sa]);
  }
  ell_width_ = 0;
  ell_stride_ = 0;
  ell_prob_.clear();
  ell_next_.clear();
  if (num_sa > 0 && width > 0 && width <= kMaxEllWidth &&
      width * num_sa <= kMaxEllPaddingFactor * next_.size()) {
    ell_width_ = width;
    ell_stride_ = fill_ell(
        *this, num_sa, [](std::size_t sa) { return sa; }, width, ell_prob_,
        ell_next_);
  }
  build_codes();

  // NUMA: interleave the columns every sweep worker streams. No-op on
  // single-node machines; small models are not worth a syscall per column.
  constexpr std::size_t kMinSpreadBytes = 1u << 20;
  if (util::numa::multi_node() && bytes_resident() >= kMinSpreadBytes) {
    const auto spread = [](auto& column) {
      using T = typename std::remove_reference_t<decltype(column)>::value_type;
      (void)util::numa::interleave_pages(column.data(),
                                         column.size() * sizeof(T));
    };
    spread(next_);
    spread(prob_);
    spread(reward_);
    spread(weight_);
    spread(expected_reward_);
    spread(expected_weight_);
    spread(ell_prob_);
    spread(ell_next_);
    spread(ell_code_);
  }
}

void CompiledModel::build_codes() {
  ell_code_.clear();
  palette_.clear();
  palette_size_ = 0;
  zero_code_ = 0;
  if (!has_ell()) {
    return;
  }
  // Values compare by bit pattern, so palette()[code] always has the exact
  // bits of the cell it codes (-0.0 and +0.0 would take two slots).
  const auto bits = [](double value) {
    return std::bit_cast<std::uint64_t>(value);
  };
  util::AlignedVector<double> palette(kPaletteSize, 0.0);
  std::size_t size = 0;
  util::AlignedVector<std::uint8_t> codes(ell_prob_.size());
  for (std::size_t i = 0; i < ell_prob_.size(); ++i) {
    std::size_t code = 0;
    while (code < size && bits(palette[code]) != bits(ell_prob_[i])) {
      ++code;
    }
    if (code == size) {
      if (size == kPaletteSize) {
        return;
      }
      palette[size++] = ell_prob_[i];
    }
    codes[i] = static_cast<std::uint8_t>(code);
  }
  // +0.0 codes the chains' padding: its own slot if a cell holds it, else
  // the first unused slot (unused slots are +0.0). A full palette without
  // it leaves the model uncoded.
  std::size_t zero = 0;
  while (zero < size && bits(palette[zero]) != bits(0.0)) {
    ++zero;
  }
  if (zero == kPaletteSize) {
    return;
  }
  ell_code_ = std::move(codes);
  palette_ = std::move(palette);
  palette_size_ = size;
  zero_code_ = static_cast<std::uint8_t>(zero);
}

PolicyChain::PolicyChain(const CompiledModel& model,
                         std::span<const std::uint32_t> policy,
                         std::span<const double> sa_rewards) {
  const StateId n = model.num_states();
  BVC_REQUIRE(policy.size() == n,
              "policy must assign an action to every state");
  BVC_REQUIRE(sa_rewards.size() == model.num_state_actions(),
              "sa_rewards must cover every (state, action) pair");
  reward_.resize(n);
  for (StateId s = 0; s < n; ++s) {
    BVC_REQUIRE(policy[s] < model.num_actions(s),
                "policy action out of range for its state");
    const SaIndex sa = model.sa_index(s, policy[s]);
    width_ = std::max(width_, model.outcome_end(sa) - model.outcome_begin(sa));
    reward_[s] = sa_rewards[sa];
  }
  const auto row_sa = [&](std::size_t s) {
    return model.sa_index(static_cast<StateId>(s), policy[s]);
  };
  stride_ = fill_ell(model, n, row_sa, width_, prob_, next_);
  if (model.has_codes()) {
    // The chain is at most as wide as the mirror, and the mirror's cells
    // past a row's outcomes are padding, so copying `width_` cells per row
    // copies their codes too.
    code_.assign(width_ * stride_, model.zero_code());
    const std::uint8_t* ell_code = model.ell_code();
    const std::size_t ell_stride = model.ell_stride();
    for (StateId s = 0; s < n; ++s) {
      const SaIndex sa = row_sa(s);
      for (std::size_t j = 0; j < width_; ++j) {
        code_[j * stride_ + s] = ell_code[j * ell_stride + sa];
      }
    }
    palette_.assign(model.palette(),
                    model.palette() + CompiledModel::kPaletteSize);
  }
}

std::shared_ptr<const CompiledModel> CompiledModel::compile_shared(
    const Model& model) {
  return std::make_shared<const CompiledModel>(compile(model));
}

namespace {

// Disk-tier wire format: magic, layout fingerprint, then each column as
// (element count, raw bytes). Native endianness — the file never leaves
// the machine that wrote it, and a mismatched reader fails the fingerprint.
// The fingerprint's top nibble versions the column set: version-0 files
// also carry a tau field and a damped-probability column, so they fail
// the fingerprint and are recompiled.
constexpr std::uint32_t kMagic = 0x4d435642;  // "BVCM"
constexpr std::uint32_t kFormatVersion = 1;
constexpr std::uint32_t kLayout = (sizeof(StateId) << 0) |
                                  (sizeof(ActionLabel) << 8) |
                                  (sizeof(SaIndex) << 16) |
                                  (sizeof(std::size_t) << 24) |
                                  (kFormatVersion << 28);

template <typename T>
void write_pod(std::ostream& out, const T& value) {
  out.write(reinterpret_cast<const char*>(&value), sizeof(T));
}

template <typename T>
bool read_pod(std::istream& in, T& value) {
  in.read(reinterpret_cast<char*>(&value), sizeof(T));
  return in.good();
}

/// Vec is any contiguous vector type (std::vector or util::AlignedVector
/// — the wire format depends only on the element bytes, not the
/// allocator).
template <typename Vec>
void write_column(std::ostream& out, const Vec& column) {
  using T = typename Vec::value_type;
  write_pod(out, static_cast<std::uint64_t>(column.size()));
  out.write(reinterpret_cast<const char*>(column.data()),
            static_cast<std::streamsize>(column.size() * sizeof(T)));
}

/// Reads one column; `max_elements` bounds the allocation so a truncated
/// or corrupt header cannot request terabytes.
template <typename Vec>
bool read_column(std::istream& in, Vec& column, std::uint64_t max_elements) {
  using T = typename Vec::value_type;
  std::uint64_t count = 0;
  if (!read_pod(in, count) || count > max_elements) {
    return false;
  }
  column.assign(static_cast<std::size_t>(count), T{});
  in.read(reinterpret_cast<char*>(column.data()),
          static_cast<std::streamsize>(count * sizeof(T)));
  return in.good();
}

}  // namespace

void CompiledModel::serialize(std::ostream& out) const {
  write_pod(out, kMagic);
  write_pod(out, kLayout);
  write_column(out, state_begin_);
  write_column(out, action_labels_);
  write_column(out, outcome_begin_);
  write_column(out, next_);
  write_column(out, prob_);
  write_column(out, reward_);
  write_column(out, weight_);
  write_column(out, expected_reward_);
  write_column(out, expected_weight_);
}

std::shared_ptr<const CompiledModel> CompiledModel::deserialize(
    std::istream& in) {
  std::uint32_t magic = 0;
  std::uint32_t layout = 0;
  CompiledModel model;
  if (!read_pod(in, magic) || magic != kMagic || !read_pod(in, layout) ||
      layout != kLayout) {
    return nullptr;
  }
  // ~100M elements/column bounds the read at a few GB — far above any real
  // attack model, far below a runaway corrupt length.
  constexpr std::uint64_t kMaxElements = 100'000'000;
  if (!read_column(in, model.state_begin_, kMaxElements) ||
      !read_column(in, model.action_labels_, kMaxElements) ||
      !read_column(in, model.outcome_begin_, kMaxElements) ||
      !read_column(in, model.next_, kMaxElements) ||
      !read_column(in, model.prob_, kMaxElements) ||
      !read_column(in, model.reward_, kMaxElements) ||
      !read_column(in, model.weight_, kMaxElements) ||
      !read_column(in, model.expected_reward_, kMaxElements) ||
      !read_column(in, model.expected_weight_, kMaxElements)) {
    return nullptr;
  }
  // Structural sanity: the index arrays must describe the columns they
  // index, or the unchecked hot-loop accessors would read out of bounds.
  if (model.state_begin_.empty() || model.outcome_begin_.empty() ||
      model.state_begin_.front() != 0 || model.outcome_begin_.front() != 0 ||
      model.state_begin_.back() != model.action_labels_.size() ||
      model.outcome_begin_.back() != model.next_.size() ||
      model.outcome_begin_.size() != model.action_labels_.size() + 1 ||
      model.prob_.size() != model.next_.size() ||
      model.reward_.size() != model.next_.size() ||
      model.weight_.size() != model.next_.size() ||
      model.expected_reward_.size() != model.action_labels_.size() ||
      model.expected_weight_.size() != model.action_labels_.size()) {
    return nullptr;
  }
  for (std::size_t i = 1; i < model.state_begin_.size(); ++i) {
    if (model.state_begin_[i] < model.state_begin_[i - 1]) {
      return nullptr;
    }
  }
  for (std::size_t i = 1; i < model.outcome_begin_.size(); ++i) {
    if (model.outcome_begin_[i] < model.outcome_begin_[i - 1]) {
      return nullptr;
    }
  }
  const StateId states = model.num_states();
  for (const StateId next : model.next_) {
    if (next >= states) {
      return nullptr;
    }
  }
  // The ELL mirror and its codes are derived structures, rebuilt rather
  // than stored: a corrupt file can never smuggle in an inconsistent
  // mirror or palette.
  model.finalize_layout();
  return std::make_shared<const CompiledModel>(std::move(model));
}

std::string CompiledModel::summary() const {
  std::ostringstream out;
  out << "CompiledModel{states=" << num_states()
      << ", state_actions=" << num_state_actions()
      << ", outcomes=" << num_outcomes()
      << ", align=" << util::kColumnAlignment << "B";
  if (has_ell()) {
    out << ", ell_width=" << ell_width_;
  }
  if (has_codes()) {
    out << ", palette=" << palette_size_;
  }
  out << '}';
  return out.str();
}

}  // namespace bvc::mdp
