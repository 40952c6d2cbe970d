// Structure-of-arrays compilation of a sparse Model — the solver kernel
// layout.
//
// Model (model.hpp) is the *authoring* representation: convenient to build
// incrementally, validated, and addressed through bounds-checked accessors.
// Sweeping it from the solvers' hot loops pays for that convenience twice
// per access: every num_actions/sa_index/outcomes call re-validates its
// arguments, and the 32-byte Outcome structs interleave the probability a
// backup multiplies with the reward/weight fields it never touches, wasting
// half of every cache line the expected-value loop streams through.
//
// CompiledModel is the same CSR-like structure flattened into parallel
// scalar arrays (state_begin / outcome_begin index arrays, and next / prob /
// reward / weight outcome columns), with unchecked inline accessors. All
// three solvers (average_reward, ratio, policy_iteration) and rollout_model
// read this layout; the Model overloads of the RVI solvers and the rollout
// compile on entry and forward.
// Compilation preserves action and outcome ORDER exactly, and the solvers
// keep the seed's expression order, so every result is bit-identical to
// sweeping the Model directly.
//
// The columns come in two kinds. The INDEX columns (state_begin,
// action_labels, outcome_begin, next and the ELL next mirror, in
// IndexColumns) say where every branch goes; the VALUE columns (prob,
// reward, weight, the expectations, the ELL prob mirror and its codes) say
// how likely and how rewarding it is. An attack model's index depends only
// on its rule set, so every cell of a rule set shares one IndexColumns
// through its ModelTemplate (model_template.hpp), and a CompiledModel holds
// it by shared_ptr next to its own value columns.
//
// Since PR 8 the columns are 64-byte-aligned allocations
// (util::AlignedVector) and, when every action's outcome list is short
// enough, a padded column-major ELL mirror of the next/prob columns is
// built alongside the CSR layout for the vectorized sweep kernels
// (mdp/kernel.hpp): ell_prob()[j * ell_stride() + sa] is outcome j of flat
// action sa, zero-padded past the action's real outcomes. Padding entries
// have prob == 0.0 and next == 0, so accumulating them adds exactly 0.0
// and the vector kernel can run fixed-width lanes without masking. The
// scalar CSR columns remain authoritative.
//
// The mirror's probabilities take very few distinct values: an attack
// model's outcomes happen with probability alpha, beta, gamma, a pairwise
// sum of them or 1.0 (some in two roundings), so with the 0.0 padding the
// paper's attack models hold at most 12 values, and a Bitcoin
// selfish-mining mirror 3-4. When a mirror holds at most kPaletteSize (16)
// values, counting +0.0 among them, it also carries a one-byte code
// column: ell_code()[j * ell_stride() + sa] is the index of that cell's
// probability in palette(), the mirror's distinct values compared by bit
// pattern. The AVX-512 bodies read the codes and decode eight lanes with
// one zero-extension and one two-register permute, so they stream 1 byte
// per outcome probability instead of 8; palette()[code] has the bits of
// the double it replaces, so every product is unchanged. The AVX2 and
// scalar bodies read the double column (a decode costs AVX2 more than the
// bytes it saves). A mirror with more values carries no codes, and an
// AVX-512 request on it runs the AVX2 bodies (kernel::rvi_sweep_isa).
//
// A PolicyChain (below) is the same ELL layout cut down to one fixed
// policy: one row per state instead of one per state-action. Policy
// evaluation builds one per solve and sweeps it with
// kernel::rvi_eval_sweep; it copies its rows' codes from the mirror.
//
// CompiledModel is immutable once built (by compile() or
// ModelTemplate::instantiate) and safe to share across threads by const
// reference; its IndexColumns are immutable too, which is what lets the
// cells of one template share them.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "mdp/model.hpp"
#include "util/aligned.hpp"

namespace bvc::mdp {

/// The index columns of a compiled model (see the file comment): which
/// actions each state offers and where each action's outcomes lead, plus
/// the ELL layout of those outcomes. Built once per ModelTemplate, or per
/// compile(), and immutable after finalize().
struct IndexColumns {
  // state s owns flat actions [state_begin[s], state_begin[s+1])
  util::AlignedVector<SaIndex> state_begin;
  util::AlignedVector<ActionLabel> action_labels;
  // flat action sa owns outcome rows [outcome_begin[sa], outcome_begin[sa+1])
  util::AlignedVector<std::size_t> outcome_begin;
  util::AlignedVector<StateId> next;
  // derived by finalize(): the common action count (0 if ragged) and the
  // ELL layout, empty when the policy rejects the model
  std::size_t uniform_actions = 0;
  std::size_t ell_width = 0;
  std::size_t ell_stride = 0;
  util::AlignedVector<StateId> ell_next;

  /// Derives uniform_actions and the ELL next mirror from the CSR columns.
  void finalize();
  /// Aligned bytes of the columns (see CompiledModel::bytes_resident).
  [[nodiscard]] std::size_t bytes_resident() const noexcept;
};

class CompiledModel {
 public:
  /// Flattens `model` into the SoA layout, with an index of its own.
  [[nodiscard]] static CompiledModel compile(const Model& model);

  [[nodiscard]] StateId num_states() const noexcept {
    return static_cast<StateId>(index_->state_begin.size() - 1);
  }
  [[nodiscard]] std::size_t num_state_actions() const noexcept {
    return index_->action_labels.size();
  }
  [[nodiscard]] std::size_t num_outcomes() const noexcept {
    return index_->next.size();
  }

  // Unchecked structural accessors (the hot-loop interface). Indices are
  // validated once at the solver entry points, not per access.
  [[nodiscard]] SaIndex state_begin(StateId s) const noexcept {
    return index_->state_begin[s];
  }
  [[nodiscard]] std::size_t num_actions(StateId s) const noexcept {
    return index_->state_begin[s + 1] - index_->state_begin[s];
  }
  /// When every state has the same action count, that count; 0 for ragged
  /// models. Lets kernels select fixed-width per-state code (the paper's
  /// attack models are uniform: every state offers the same action menu).
  [[nodiscard]] std::size_t uniform_actions() const noexcept {
    return index_->uniform_actions;
  }
  [[nodiscard]] SaIndex sa_index(StateId s, std::size_t a) const noexcept {
    return index_->state_begin[s] + a;
  }
  [[nodiscard]] ActionLabel action_label(SaIndex sa) const noexcept {
    return index_->action_labels[sa];
  }
  [[nodiscard]] std::size_t outcome_begin(SaIndex sa) const noexcept {
    return index_->outcome_begin[sa];
  }
  [[nodiscard]] std::size_t outcome_end(SaIndex sa) const noexcept {
    return index_->outcome_begin[sa + 1];
  }
  /// The index columns, shared by every model of one template.
  [[nodiscard]] const IndexColumns& index() const noexcept { return *index_; }

  // Outcome columns, indexed by [outcome_begin(sa), outcome_end(sa)).
  [[nodiscard]] const StateId* next() const noexcept {
    return index_->next.data();
  }
  [[nodiscard]] const double* prob() const noexcept { return prob_.data(); }
  [[nodiscard]] const double* reward() const noexcept {
    return reward_.data();
  }
  [[nodiscard]] const double* weight() const noexcept {
    return weight_.data();
  }

  // Per-(state, action) expected increments, indexed by SaIndex.
  [[nodiscard]] const double* expected_reward() const noexcept {
    return expected_reward_.data();
  }
  [[nodiscard]] const double* expected_weight() const noexcept {
    return expected_weight_.data();
  }
  [[nodiscard]] double expected_reward(SaIndex sa) const noexcept {
    return expected_reward_[sa];
  }
  [[nodiscard]] double expected_weight(SaIndex sa) const noexcept {
    return expected_weight_[sa];
  }

  // ELL (padded column-major) mirror for the vector kernels. Present only
  // when the widest action has at most kMaxEllWidth outcomes and padding
  // stays within kMaxEllPaddingFactor of the real outcome count (always
  // true for the paper's attack models, whose actions have <= 3 outcomes).
  // Layout: ell_prob()[j * ell_stride() + sa] / ell_next()[...] for
  // j in [0, ell_width()), sa in [0, num_state_actions()); entries past an
  // action's outcome_end are prob 0.0 / next 0, entries past
  // num_state_actions() up to ell_stride() likewise, so full-width vector
  // loads at any sa < num_state_actions() are in-bounds and padding terms
  // accumulate as exact zeros.
  [[nodiscard]] bool has_ell() const noexcept {
    return index_->ell_width > 0;
  }
  [[nodiscard]] std::size_t ell_width() const noexcept {
    return index_->ell_width;
  }
  [[nodiscard]] std::size_t ell_stride() const noexcept {
    return index_->ell_stride;
  }
  [[nodiscard]] const double* ell_prob() const noexcept {
    return ell_prob_.data();
  }
  [[nodiscard]] const StateId* ell_next() const noexcept {
    return index_->ell_next.data();
  }

  // Palette codes of the ELL mirror (see the file comment), read by the
  // AVX-512 bodies. Present only when the mirror is, and its distinct
  // values number at most kPaletteSize with +0.0 counted even where no
  // cell holds it: +0.0 needs a slot because PolicyChain pads with it.
  // Layout: ell_code()[j * ell_stride() + sa], same indexing as ell_prob(),
  // padding included; palette()[ell_code()[i]] has the bits of
  // ell_prob()[i]. palette() holds kPaletteSize doubles: the mirror's
  // values in first-seen order, then +0.0 in every unused slot.
  [[nodiscard]] bool has_codes() const noexcept { return !palette_.empty(); }
  [[nodiscard]] const std::uint8_t* ell_code() const noexcept {
    return ell_code_.data();
  }
  [[nodiscard]] const double* palette() const noexcept {
    return palette_.data();
  }
  /// Distinct values the mirror's cells take when coded; 0 otherwise.
  [[nodiscard]] std::size_t palette_size() const noexcept {
    return palette_size_;
  }
  /// The code of +0.0: the padding cells' code.
  [[nodiscard]] std::uint8_t zero_code() const noexcept { return zero_code_; }

  /// Widest ELL row the compiler will pad to; wider models simply carry no
  /// ELL mirror and sweep through the scalar CSR kernel.
  static constexpr std::size_t kMaxEllWidth = 16;
  /// Cap on (padded cells) / (real outcomes); protects skewed models where
  /// one wide action would multiply the footprint of every narrow one.
  static constexpr std::size_t kMaxEllPaddingFactor = 4;
  /// Palette entries: two 8-lane AVX-512 registers.
  static constexpr std::size_t kPaletteSize = 16;

  /// Human-readable structural summary (state/action/outcome counts,
  /// column alignment, ELL width).
  [[nodiscard]] std::string summary() const;

  /// Bytes held by the SoA columns, each rounded up to its 64-byte
  /// allocation granularity (util::kColumnAlignment) — the actual resident
  /// footprint of the aligned allocations, including the ELL mirror, its
  /// codes and palette, and the index columns (shared with the other cells
  /// of a template, but counted here too).
  [[nodiscard]] std::size_t bytes_resident() const noexcept;

 private:
  friend class ModelTemplate;
  explicit CompiledModel(std::shared_ptr<const IndexColumns> index);

  /// Builds the ELL prob mirror from the prob column (when the index has
  /// an ELL layout) and its palette codes. Run once, after the value
  /// columns are set.
  void finalize_values();
  /// Codes the mirror against its palette, or leaves both empty when it
  /// takes too many values.
  void build_codes();

  std::shared_ptr<const IndexColumns> index_;
  // value columns: one row per sparse branch, then per (state, action)
  util::AlignedVector<double> prob_;
  util::AlignedVector<double> reward_;
  util::AlignedVector<double> weight_;
  util::AlignedVector<double> expected_reward_;
  util::AlignedVector<double> expected_weight_;
  // ELL prob mirror (see has_ell); empty when the index has no ELL layout
  util::AlignedVector<double> ell_prob_;
  // palette codes of the mirror (see has_codes); empty when uncoded
  util::AlignedVector<std::uint8_t> ell_code_;
  util::AlignedVector<double> palette_;
  std::size_t palette_size_ = 0;
  std::uint8_t zero_code_ = 0;
};

/// One fixed policy's transition chain in the ELL layout: per state s, the
/// outcome rows of the action the policy picks there, as
/// prob()[j * stride() + s] / next()[j * stride() + s] for j in
/// [0, width()), and that action's reward as reward()[s]. Rows keep the
/// model's outcome order and are zero-padded past their real outcomes
/// exactly like the model's ELL mirror, so a sweep that sums all width()
/// terms reproduces the CSR sum (padding adds exact zeros). width() is the
/// widest CHOSEN row, which can be narrower than the model's ELL width.
/// The stride is padded to a multiple of 8 states, as in the model's
/// mirror, so an 8-lane load at any state < num_states() stays in bounds.
///
/// When the model's mirror is coded, the chain copies its rows' codes and
/// the model's palette: code()[j * stride() + s] indexes palette() as
/// ell_code() does, and the cells past num_states() carry the model's
/// zero_code(). It never searches a palette itself.
///
/// A fixed-policy sweep (kernel::rvi_eval_sweep) reads only this: half the
/// rows of a two-action model, and no per-state action lookups. Building
/// one is an O(states x width) copy, done once per policy-evaluation solve.
class PolicyChain {
 public:
  /// Compacts `model` to the action `policy[s]` (a local action index) of
  /// every state s; `sa_rewards[sa]` is the per-(state, action) reward the
  /// sweep adds.
  PolicyChain(const CompiledModel& model,
              std::span<const std::uint32_t> policy,
              std::span<const double> sa_rewards);

  [[nodiscard]] StateId num_states() const noexcept {
    return static_cast<StateId>(reward_.size());
  }
  [[nodiscard]] std::size_t width() const noexcept { return width_; }
  [[nodiscard]] std::size_t stride() const noexcept { return stride_; }
  [[nodiscard]] const double* prob() const noexcept { return prob_.data(); }
  [[nodiscard]] const StateId* next() const noexcept { return next_.data(); }
  [[nodiscard]] const double* reward() const noexcept {
    return reward_.data();
  }
  /// As CompiledModel::has_codes / ell_code / palette, for these rows.
  [[nodiscard]] bool has_codes() const noexcept { return !palette_.empty(); }
  [[nodiscard]] const std::uint8_t* code() const noexcept {
    return code_.data();
  }
  [[nodiscard]] const double* palette() const noexcept {
    return palette_.data();
  }

 private:
  std::size_t width_ = 0;
  std::size_t stride_ = 0;
  util::AlignedVector<double> prob_;
  util::AlignedVector<StateId> next_;
  util::AlignedVector<double> reward_;
  util::AlignedVector<std::uint8_t> code_;
  util::AlignedVector<double> palette_;
};

}  // namespace bvc::mdp
