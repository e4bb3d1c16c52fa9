// Acyclic conjunctive queries over binary relations (Section 6 of the
// paper) and Yannakakis' output-sensitive evaluation algorithm
// (Proposition 7: answering n-ary ACQ(L) queries in
// O(|t|^2 |C| n |A| + sum_b p(|b|,|t|)) time).
//
// A conjunctive query here is a conjunction of binary atoms b(x,y) over L
// plus equality atoms x=y, with a designated output variable sequence.
// Equalities are eliminated by variable merging (union-find); the query is
// alpha-acyclic iff the variable graph of the remaining atoms is a forest
// (parallel edges between the same variable pair collapse -- they are
// intersected -- and self-loops b(x,x) act as unary filters).
//
// Union-free HCL-(L) formulas correspond exactly to such ACQs
// (Proposition 8); HclToConjunctive converts them.
#ifndef XPV_FO_ACQ_H_
#define XPV_FO_ACQ_H_

#include <string>
#include <vector>

#include "common/status.h"
#include "hcl/ast.h"

namespace xpv::fo {

/// One binary atom rel(x, y).
struct CqAtom {
  hcl::BinaryQueryPtr rel;
  std::string x, y;
};

/// A conjunctive query over binary atoms and equalities.
struct ConjunctiveQuery {
  std::vector<CqAtom> atoms;
  std::vector<std::pair<std::string, std::string>> equalities;
  /// The output variable sequence x = x1...xn (repeats allowed; variables
  /// not occurring in any atom range over all nodes).
  std::vector<std::string> output_vars;

  std::set<std::string> AllVars() const;
  std::string ToString() const;
};

/// Alpha-acyclicity check (after merging equalities): the variable graph
/// must be a forest.
bool IsAcyclic(const ConjunctiveQuery& q);

/// Yannakakis: semijoin reduction up and down a join forest, then a walk
/// of every assignment into a set (output-sensitive when every variable
/// is an output; AcqEnumerator is under projection too). Fails with
/// InvalidArgument when the query is cyclic.
Result<xpath::TupleSet> AnswerAcqYannakakis(const Tree& t,
                                            const ConjunctiveQuery& q);

/// Ground truth: enumeration over all |t|^|vars| assignments.
xpath::TupleSet AnswerCqNaive(const Tree& t, const ConjunctiveQuery& q);

/// Proposition 8 direction HCL-(L) inter N(u) -> ACQ: converts a
/// union-free HCL formula (with no shared composition variables) into a
/// conjunctive query whose answers over `tuple_vars` agree with
/// q_{C,tuple_vars}. Fails on unions.
Result<ConjunctiveQuery> HclToConjunctive(
    const hcl::HclExpr& c, const std::vector<std::string>& tuple_vars);

}  // namespace xpv::fo

#endif  // XPV_FO_ACQ_H_
