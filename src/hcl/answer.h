// Polynomial-time n-ary query answering for HCL-(L) -- Section 7 of the
// paper (Propositions 10 and 11, Fig. 8).
//
// Pipeline, for a query q_{C,x} on a tree t:
//
//   1. Convert C to sharing normal form (D, Delta)      [Lemma 3, O(|C|)]
//   2. Precompile every b in L(C) into successor lists  [sum_b p(|b|,|t|)]
//   3. Compute the satisfiability table
//        MC(D0, u) = 1 iff ex. alpha, u' : (u,u') in [[D0_Delta]]^{t,alpha}
//      by memoized recursion                            [Prop. 10,
//                                                        O(|t|^2 (|D|+|Delta|))]
//   4. Enumerate partial valuations vals(D0, u) bottom-up, filtering
//      unsatisfiable branches through MC, deduplicating, and memoizing
//      (Fig. 8)                                         [Prop. 11,
//                                                        O((|D|+|Delta|) |t|^2 n |A|)]
//
// The key property making step 4 output-sensitive: because MC filters every
// recursive call, each intermediate valuation extends to at least one
// answer, so no dead work is enumerated and each memoized set has at most
// |A| elements.
#ifndef XPV_HCL_ANSWER_H_
#define XPV_HCL_ANSWER_H_

#include <map>
#include <memory>
#include <optional>
#include <set>
#include <string>
#include <vector>

#include "common/cancel.h"
#include "common/status.h"
#include "hcl/ast.h"
#include "hcl/sharing.h"
#include "tree/axis_cache.h"

namespace xpv::hcl {

/// A partial valuation over the query's variable list: val[i] is the node
/// assigned to variable i, or kNoNode when the variable is unset.
using PartialValuation = std::vector<NodeId>;
using ValuationSet = std::set<PartialValuation>;

/// Ablation switches for the Fig. 8 algorithm. Both default on; turning
/// either off preserves correctness (the recursion still computes exact
/// valuation sets) but forfeits the output-sensitivity analysis:
/// without MC filtering, dead branches are enumerated and discarded late;
/// without memoization, shared subformulas are recomputed per call site.
/// Used by the ablation benchmark (E11) and its correctness tests.
struct AnswerOptions {
  bool use_mc_filter = true;
  bool memoize_vals = true;
  /// Cooperative cancellation, observed inside the long-running phases
  /// (binary-query precompilation, the MC table loops, and every
  /// memoized vals() call) -- not just between jobs. When it fires,
  /// Prepare()/Answer() return kCancelled / kDeadlineExceeded.
  CancelToken cancel;
};

/// Answers one n-ary HCL-(L) query on one tree. Construct, Prepare(), then
/// Answer(); the intermediate artifacts (sharing form, MC table) stay
/// accessible for inspection, tests, and benchmarks.
class QueryAnswerer {
 public:
  /// `tuple_vars` is the output variable sequence x = x1...xn (repeats
  /// allowed). `axis_cache` optionally shares a per-tree axis-relation
  /// cache with other evaluations on `t` (e.g. other jobs of a
  /// QueryService batch); when null, Prepare() builds a private one.
  QueryAnswerer(const Tree& t, const HclExpr& c,
                std::vector<std::string> tuple_vars,
                AnswerOptions options = {},
                std::shared_ptr<AxisCache> axis_cache = nullptr);

  /// Steps 1-3: fragment check, sharing normal form, binary-query
  /// precompilation, MC table. Fails with FragmentViolation when C is not
  /// in HCL-(L).
  Status Prepare();

  /// Step 4: the answer set q_{C,x}(t). Prepare() must have succeeded.
  /// Fails only via the cancel token (kCancelled / kDeadlineExceeded);
  /// the token is sticky, so once a run has been interrupted every later
  /// call fails with the same status.
  Result<xpath::TupleSet> Answer();

  /// MC(D0, u) for the subformula with the given id (Prepare() first).
  bool Mc(int subformula_id, NodeId u) const {
    return mc_[static_cast<std::size_t>(subformula_id) * tree_.size() + u] ==
           1;
  }

  const SharingForm& form() const { return *form_; }

 private:
  bool ComputeMc(const SharingExpr& d, NodeId u);
  /// vals(d, u), by reference: the memoized set itself, so a memo hit
  /// copies nothing. An unmemoized set (the memoize_vals = false
  /// ablation) is computed into `scratch`, which the caller keeps alive
  /// while it reads the result.
  const ValuationSet& Vals(const SharingExpr& d, NodeId u,
                           ValuationSet& scratch);
  /// vals(d, u) as an owned set: a copy of a memoized set, or the
  /// unmemoized set itself (moved, not copied).
  ValuationSet ValsOwned(const SharingExpr& d, NodeId u);
  ValuationSet ValsCompute(const SharingExpr& d, NodeId u);
  /// extend_{t,X}: extends every valuation to be total on the variable
  /// index set X (unset positions in X range over all nodes).
  ValuationSet Extend(const ValuationSet& in,
                      const std::vector<int>& target_positions) const;
  std::vector<int> VarIndicesOf(int subformula_id) const;

  const Tree& tree_;
  const HclExpr& expr_;
  std::vector<std::string> tuple_vars_;
  AnswerOptions options_;
  std::shared_ptr<AxisCache> axis_cache_;
  /// Deduplicated query variables; valuations index into this.
  std::vector<std::string> query_vars_;
  std::map<std::string, int> var_index_;

  std::optional<SharingForm> form_;
  /// Successor lists per binary query (Prop. 10's precompiled structure).
  std::map<const BinaryQuery*, std::vector<std::vector<NodeId>>> successors_;
  /// Per subformula id: true when it is b/D with every row of b the same
  /// node set (e.g. nodes = (ancestor-or-self)/(descendant-or-self)), so
  /// vals(d, u) and MC(d, u) do not depend on u. Its memoized set lives
  /// in the u = 0 slot and serves every u.
  std::vector<bool> row_independent_;
  /// MC table: -1 unknown, 0 false, 1 true; indexed [sub_id * |t| + u].
  std::vector<signed char> mc_;
  /// vals memoization; empty optional = not yet computed.
  std::vector<std::optional<ValuationSet>> vals_memo_;
  bool prepared_ = false;
  /// Sticky cancel status observed inside the vals() recursion; set by
  /// Vals() (which then unwinds fast with empty sets and stops
  /// memoizing, so no partial set is ever cached), surfaced by Answer().
  Status interrupted_;
};

/// One-shot convenience wrapper: Prepare() + Answer().
Result<xpath::TupleSet> AnswerQuery(const Tree& t, const HclExpr& c,
                                    const std::vector<std::string>& tuple_vars);

}  // namespace xpv::hcl

#endif  // XPV_HCL_ANSWER_H_
