// Query compilation for the batch evaluation service: the tree-independent
// front end of the compile -> plan -> execute pipeline. CompileQuery
// parses once, simplifies, and classifies into the set of *admissible*
// engines of the paper's complexity hierarchy; choosing among them per
// (query, tree, result shape) is the planner's job (engine/planner.h),
// which has the Tree::Stats cost-model inputs that compilation, by
// design, never sees.
//
// The engines mirror the complexity landscape of FiliotNTT07:
//
//   kGkpPositive   -- variable-free (N($x)) queries whose Fig. 4 image is a
//                     positive PPLbin expression: the Gottlob-Koch-Pichler
//                     per-source full relation, O(|P| |t|) per start node
//                     (monadic shapes run the matrix engine's image sweep).
//   kMatrixGeneral -- any variable-free query (complement included): the
//                     Section 4 Boolean-matrix engine, O(|P| |t|^3 / 64).
//   kNaryAnswer    -- queries with free variables inside PPL: translated to
//                     HCL-(PPLbin) (Fig. 7); union-free, alpha-acyclic
//                     images are enumerated as ACQs (Prop. 8), unions
//                     answered by the Section 7 machinery (Fig. 8).
//
// A positive PPLbin query admits both kGkpPositive and kMatrixGeneral; a
// general one only kMatrixGeneral; an n-ary one only kNaryAnswer.
//
// Queries outside PPL (e.g. shared variables across compositions, for-loops
// violating N(for)) are rejected at compile time -- by Theorems in Sections
// 2-3 they are NP-/PSPACE-hard, so the service refuses rather than risking
// exponential work on the serving path.
#ifndef XPV_ENGINE_COMPILED_QUERY_H_
#define XPV_ENGINE_COMPILED_QUERY_H_

#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "common/status.h"
#include "fo/acq.h"
#include "hcl/ast.h"
#include "ppl/pplbin.h"
#include "xpath/ast.h"

namespace xpv::engine {

/// An engine a compiled query can be dispatched to.
enum class EnginePlan {
  kGkpPositive,
  kMatrixGeneral,
  kNaryAnswer,
};

std::string_view EnginePlanName(EnginePlan plan);

/// A query compiled once and shared (immutably) by every job that uses it,
/// across trees and threads. Deliberately tree-independent: everything
/// per-(tree, shape) lives in the planner's ExecutionPlan.
struct CompiledQuery {
  /// Original query text, as first submitted.
  std::string text;
  /// Round-tripped canonical surface text: the parsed + simplified form
  /// printed back (binary queries additionally union-normalized via
  /// ppl::Canonicalize), so whitespace / parenthesization / abbreviation
  /// variants of one query share it. This is the QueryCache's primary
  /// key and the PlanMemo key, keeping one cache entry, one plan, and
  /// one RelationCache key family per equivalence class.
  std::string canonical_text;
  /// Parsed + simplified Core XPath 2.0 form.
  xpath::PathPtr path;
  /// Every engine that can evaluate this query, in the order of the
  /// paper's hierarchy (cheapest asymptotics first). Never empty.
  std::vector<EnginePlan> admissible;

  /// Binary queries (kGkpPositive / kMatrixGeneral admissible): the
  /// Fig. 4 translation image, simplified and canonicalized
  /// (ppl/canonical.h) -- so every subtree's surface text is canonical,
  /// which is what the engines key their subrelation lookups on.
  /// Whether it is complement-free is `positive`.
  ppl::PplBinPtr pplbin;
  bool positive = false;
  /// |P| of the pplbin image (0 for n-ary queries), precomputed for the
  /// planner's cost model.
  std::size_t pplbin_size = 0;

  /// kNaryAnswer: the Fig. 7 HCL-(PPLbin) translation and the output
  /// variable tuple (free variables of the query, sorted).
  hcl::HclPtr hcl;
  std::vector<std::string> tuple_vars;
  /// |C| of the HCL image (0 for binary queries), precomputed for the
  /// planner's cost model.
  std::size_t hcl_size = 0;
  /// The Proposition 8 ACQ form of the HCL image, when it is union-free
  /// and alpha-acyclic -- the class every n-ary job and stream serves by
  /// polynomial-delay enumeration (fo/enumerate.h) instead of the Fig. 8
  /// answer set. Null when not enumerable (unions), which routes the
  /// query to Fig. 8; tree-independent, so computed once at compile time.
  std::shared_ptr<const fo::ConjunctiveQuery> acq;

  bool Admits(EnginePlan engine) const;
};

/// Parses (abbreviated or core syntax), simplifies, classifies. Fails with
/// InvalidArgument on syntax errors and FragmentViolation outside PPL.
Result<std::shared_ptr<const CompiledQuery>> CompileQuery(
    std::string_view text);

}  // namespace xpv::engine

#endif  // XPV_ENGINE_COMPILED_QUERY_H_
