#include "engine/compiled_query.h"

#include <algorithm>
#include <cstdlib>
#include <utility>

#include "hcl/translate.h"
#include "ppl/canonical.h"
#include "ppl/simplify.h"
#include "xpath/fragment.h"
#include "xpath/parser.h"
#include "xpath/simplify.h"

namespace xpv::engine {

std::string_view EnginePlanName(EnginePlan plan) {
  // Exhaustive on purpose: a new engine without a name is a compile
  // warning (-Wswitch) rather than a silent "unknown" at runtime.
  switch (plan) {
    case EnginePlan::kGkpPositive:
      return "gkp-positive";
    case EnginePlan::kMatrixGeneral:
      return "matrix-general";
    case EnginePlan::kNaryAnswer:
      return "nary-answer";
  }
  std::abort();  // unreachable: the switch above covers every enumerator
}

bool CompiledQuery::Admits(EnginePlan engine) const {
  return std::find(admissible.begin(), admissible.end(), engine) !=
         admissible.end();
}

Result<std::shared_ptr<const CompiledQuery>> CompileQuery(
    std::string_view text) {
  // The abbreviated parser is a superset of the core grammar (bare names,
  // //, .. desugar; every core construct still parses).
  XPV_ASSIGN_OR_RETURN(xpath::PathPtr path, xpath::ParseAbbreviatedPath(text));
  path = xpath::Simplify(std::move(path));

  auto q = std::make_shared<CompiledQuery>();
  q->text = std::string(text);

  if (xpath::CheckNoVariables(*path).ok()) {
    // Variable-free: Fig. 4 into PPLbin. Which engine actually runs is
    // the planner's per-(tree, shape) decision; compilation only records
    // what is admissible.
    XPV_ASSIGN_OR_RETURN(ppl::PplBinPtr bin, ppl::FromXPath(*path));
    // Canonicalize after simplification (ppl/canonical.h): every subtree
    // of the compiled form then carries canonical surface text, which
    // unifies plan-memo and subrelation-cache keys across syntactic
    // variants of one query.
    q->pplbin = ppl::Canonicalize(ppl::Simplify(std::move(bin)));
    q->positive = q->pplbin->IsPositive();
    q->pplbin_size = q->pplbin->Size();
    q->canonical_text = q->pplbin->ToString();
    if (q->positive) q->admissible.push_back(EnginePlan::kGkpPositive);
    q->admissible.push_back(EnginePlan::kMatrixGeneral);
  } else {
    // Variables present: must be PPL; Fig. 7 into HCL-(PPLbin) for the
    // n-ary answering machinery.
    XPV_RETURN_IF_ERROR(xpath::CheckPpl(*path));
    XPV_ASSIGN_OR_RETURN(hcl::HclPtr c, hcl::PplToHcl(*path));
    q->hcl = std::move(c);
    q->hcl_size = q->hcl->Size();
    for (const std::string& v : xpath::FreeVars(*path)) {
      q->tuple_vars.push_back(v);  // std::set iterates sorted
    }
    q->admissible.push_back(EnginePlan::kNaryAnswer);
    // N-ary canonical text: the simplified path printed back. Variables
    // keep these disjoint from every binary canonical text (PPLbin
    // surface syntax has no '$').
    q->canonical_text = path->ToString();
    // Enumerability (Prop. 8): a union-free image converts to an ACQ; if
    // that ACQ is alpha-acyclic, jobs and streams enumerate it with
    // polynomial delay. Both facts are tree-independent.
    Result<fo::ConjunctiveQuery> cq =
        fo::HclToConjunctive(*q->hcl, q->tuple_vars);
    if (cq.ok() && fo::IsAcyclic(*cq)) {
      q->acq = std::make_shared<const fo::ConjunctiveQuery>(
          std::move(cq).value());
    }
  }
  q->path = std::move(path);
  return std::shared_ptr<const CompiledQuery>(std::move(q));
}

}  // namespace xpv::engine
