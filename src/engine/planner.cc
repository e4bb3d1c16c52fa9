#include "engine/planner.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <limits>
#include <utility>
#include <vector>

#include "common/bit_matrix.h"
#include "ppl/pplbin.h"
#include "tree/axes.h"
#include "tree/axis_cache.h"

namespace xpv::engine {

namespace {

double WordsPerRow(double n) {
  return std::max(1.0, std::ceil(n / 64.0));
}

/// Heuristic upper bound on |domain(P)| from the tree's posting lists.
/// domain(A::N) is the inverse-axis image of N's posting list, so it is
/// bounded by the posting size times how far one target can "spread"
/// backwards along A: one parent per node (child), at most max_fanout
/// siblings / children (siblings, parent), at most max_depth ancestors
/// (descendant). Only cost estimates depend on this -- every admissible
/// plan computes identical answers (enforced by tests/planner_test.cc).
double DomainBound(const ppl::PplBinExpr& p, const Tree& tree) {
  const TreeStats& s = tree.Stats();
  const double n = static_cast<double>(s.node_count);
  switch (p.kind) {
    case ppl::PplBinKind::kStep: {
      // PplBinExpr::Step normalizes the "*" wildcard to "".
      if (p.name_test.empty()) return n;
      const double f = static_cast<double>(tree.LabelFrequency(p.name_test));
      const double fanout = static_cast<double>(std::max<std::size_t>(
          s.max_fanout, 1));
      switch (p.axis) {
        case Axis::kSelf:
          return f;
        case Axis::kChild:
          return std::min(n, f);  // each labeled child has one parent
        case Axis::kParent:
        case Axis::kFollowingSibling:
        case Axis::kPrecedingSibling:
          return std::min(n, f * fanout);
        case Axis::kDescendant:
          return std::min(n, f * static_cast<double>(s.max_depth + 1));
        case Axis::kAncestor:
          return n;  // a labeled ancestor admits its whole subtree
      }
      return n;
    }
    case ppl::PplBinKind::kCompose:
      // domain(P1/P2) is contained in domain(P1).
      return DomainBound(*p.left, tree);
    case ppl::PplBinKind::kUnion:
      return std::min(
          n, DomainBound(*p.left, tree) + DomainBound(*p.right, tree));
    case ppl::PplBinKind::kFilter:
      // domain([Q]) = domain(Q).
      return DomainBound(*p.left, tree);
    case ppl::PplBinKind::kComplement:
      return n;
  }
  return n;
}

/// Cost (word ops) of the full matrix evaluation: |P| Boolean products.
double MatrixFullCost(std::size_t pplbin_size, double n) {
  return static_cast<double>(pplbin_size) * n * n * WordsPerRow(n);
}

/// Estimated cost of accessing one row of a cached axis relation, in
/// word-op equivalents, per representation. Dense rows are ceil(n/64)
/// contiguous words; interval rows are a handful of runs -- O(log n) on
/// balanced and random trees (tree/axes.h) -- each touched in O(1) by
/// the run-native kernels. The planner mirrors AxisCache's kAuto policy
/// (the backing QueryService actually uses), keeping plans deterministic
/// functions of (query, tree stats, shape).
double AxisRowAccessCost(double n) {
  const bool interval =
      n > static_cast<double>(AxisCache::kAutoDenseMaxNodes);
  return interval ? std::max(1.0, std::log2(std::max(2.0, n)))
                  : WordsPerRow(n);
}

/// True iff the row-restricted sweep materializes a sub-matrix when it
/// reaches `p` from exactly one source node (`single_source`) or from
/// more. Mirrors MatrixEngine::Image: the from-root sweep starts
/// single-source; unions and single-source complements pass it down
/// (image(not Q, {u}) is the complement of image(Q, {u})); a composition
/// passes it to its left operand only, since its right operand starts
/// from the left's image; filter bodies resolve by Preimage(body, all
/// nodes) and never are. Any other complement materializes its operand's
/// matrix unless that operand is a plain step (complement-of-step runs
/// on the cached axis relation directly, whatever its representation).
bool SweepMaterializes(const ppl::PplBinExpr& p, bool single_source) {
  switch (p.kind) {
    case ppl::PplBinKind::kStep:
      return false;
    case ppl::PplBinKind::kCompose:
      return SweepMaterializes(*p.left, single_source) ||
             SweepMaterializes(*p.right, false);
    case ppl::PplBinKind::kUnion:
      return SweepMaterializes(*p.left, single_source) ||
             SweepMaterializes(*p.right, single_source);
    case ppl::PplBinKind::kFilter:
      return SweepMaterializes(*p.left, false);
    case ppl::PplBinKind::kComplement:
      if (single_source) return SweepMaterializes(*p.left, true);
      return p.left->kind != ppl::PplBinKind::kStep;
  }
  return false;
}

/// Cost of the row-restricted matrix path, reached from `single_source`
/// as in SweepMaterializes: positive operators propagate one BitVector
/// (priced at n per step), and so does a single-source complement. Since
/// AxisImage is output-sensitive (a step costs its frontier and its
/// image plus n / 64 words), n per step is an upper bound, loosest on
/// single-node frontiers; re-pricing it against measured time belongs to
/// the one-unit calibration (ROADMAP item 2(b)), so the estimate and
/// every plan stay as they are until then. Any other
/// complement over a plain step runs one kernel pass over the cached axis
/// relation (per-row access cost depends on its representation), and any
/// other complement falls back to the full matrix evaluation of its
/// subexpression.
double MatrixMonadicCost(const ppl::PplBinExpr& p, double n,
                         bool single_source) {
  switch (p.kind) {
    case ppl::PplBinKind::kStep:
      return n;
    case ppl::PplBinKind::kCompose:
      return MatrixMonadicCost(*p.left, n, single_source) +
             MatrixMonadicCost(*p.right, n, false) + WordsPerRow(n);
    case ppl::PplBinKind::kUnion:
      return MatrixMonadicCost(*p.left, n, single_source) +
             MatrixMonadicCost(*p.right, n, single_source) + WordsPerRow(n);
    case ppl::PplBinKind::kFilter:
      // The domain resolves by a preimage walk of the same shape.
      return MatrixMonadicCost(*p.left, n, false) + WordsPerRow(n);
    case ppl::PplBinKind::kComplement:
      if (single_source) {
        return MatrixMonadicCost(*p.left, n, true) + WordsPerRow(n);
      }
      if (p.left->kind == ppl::PplBinKind::kStep) {
        return n * AxisRowAccessCost(n) + n + WordsPerRow(n);
      }
      return MatrixFullCost(p.left->Size(), n) + n * WordsPerRow(n);
  }
  return n;
}

/// Per-row shape estimate for one sparse (CSR run-list) evaluation of a
/// PPLbin expression: average set cells and runs per result row, the cost
/// in word-op equivalents, and the peak total run count live at any node
/// of the bottom-up evaluation (operands plus result). All averages; the
/// engine's run budget is the hard backstop when an adversarial instance
/// beats the estimate.
struct SparseEst {
  double cost = 0.0;
  double nnz = 0.0;        // avg set cells per result row
  double runs = 0.0;       // avg runs per result row
  double peak_runs = 0.0;  // max total runs live at once
};

/// Shape and cost of one sparse composition a/b, given the operand
/// estimates. Per output row the SpGEMM gathers a run from b for every
/// (set cell of a's row, run of the selected b row) pair, then either
/// sort-merges them or blits a dense accumulator row -- whichever the
/// kernel's own per-row fallback would pick. Factored out so the
/// reassociation DP can estimate subchain shapes with the same
/// arithmetic the crossover uses.
SparseEst ComposeEstimates(const SparseEst& a, const SparseEst& b,
                           double n) {
  SparseEst out;
  const double k = std::max(1.0, a.nnz * b.runs);
  const double merge = std::min(k * std::log2(k + 2.0), k + n / 32.0);
  out.cost = a.cost + b.cost + n * merge;
  out.nnz = std::min(n, a.nnz * b.nnz);
  out.runs = std::max(1.0, std::min(k, out.nnz));
  out.peak_runs = std::max({a.peak_runs, b.peak_runs,
                            n * (a.runs + b.runs + out.runs)});
  return out;
}

SparseEst SparseCost(const ppl::PplBinExpr& p, const Tree& tree) {
  const TreeStats& s = tree.Stats();
  const double n =
      static_cast<double>(std::max<std::size_t>(s.node_count, 1));
  SparseEst out;
  switch (p.kind) {
    case ppl::PplBinKind::kStep: {
      const double depth = static_cast<double>(s.max_depth + 1);
      const double fanout =
          static_cast<double>(std::max<std::size_t>(s.max_fanout, 1));
      double nnz = 1.0;
      double runs = 1.0;
      switch (p.axis) {
        case Axis::kSelf:
        case Axis::kParent:
          nnz = runs = 1.0;
          break;
        case Axis::kChild:
          // Children head disjoint subtrees: scattered preorder ids.
          nnz = runs = std::min(n, fanout);
          break;
        case Axis::kDescendant:
          // A subtree is one contiguous preorder range: a single run.
          nnz = std::min(n, depth);
          runs = 1.0;
          break;
        case Axis::kAncestor:
          nnz = runs = std::min(n, depth);
          break;
        case Axis::kFollowingSibling:
        case Axis::kPrecedingSibling:
          nnz = runs = std::min(n, fanout);
          break;
      }
      if (!p.name_test.empty()) {
        const double sel = std::min(
            1.0, static_cast<double>(tree.LabelFrequency(p.name_test)) / n);
        const double masked = nnz * sel;
        // Masking splits runs: each surviving cell can end a run, so the
        // run count moves from the axis's toward one-run-per-cell as the
        // label gets rarer.
        runs = std::min(std::max(1.0, masked), runs + masked * (1.0 - sel));
        nnz = masked;
      }
      out.nnz = nnz;
      out.runs = runs;
      out.cost = n * std::max(1.0, runs);  // AxisCache::SparseStep build
      out.peak_runs = n * runs;
      return out;
    }
    case ppl::PplBinKind::kCompose:
      return ComposeEstimates(SparseCost(*p.left, tree),
                              SparseCost(*p.right, tree), n);
    case ppl::PplBinKind::kUnion: {
      const SparseEst a = SparseCost(*p.left, tree);
      const SparseEst b = SparseCost(*p.right, tree);
      out.cost = a.cost + b.cost + n * (a.runs + b.runs);
      out.nnz = std::min(n, a.nnz + b.nnz);
      out.runs = std::max(1.0, std::min(a.runs + b.runs, out.nnz));
      out.peak_runs = std::max({a.peak_runs, b.peak_runs,
                                n * (a.runs + b.runs + out.runs)});
      return out;
    }
    case ppl::PplBinKind::kComplement: {
      const SparseEst a = SparseCost(*p.left, tree);
      // Gap inversion: at most one more run per row, but the population
      // flips -- a sparse relation's complement is dense in cells even
      // though it stays cheap in runs.
      out.cost = a.cost + n * (a.runs + 1.0);
      out.nnz = std::max(0.0, n - a.nnz);
      out.runs = a.runs + 1.0;
      out.peak_runs =
          std::max(a.peak_runs, n * (a.runs + out.runs));
      return out;
    }
    case ppl::PplBinKind::kFilter: {
      const SparseEst a = SparseCost(*p.left, tree);
      out.cost = a.cost + n;
      out.nnz = 1.0;  // diagonal: at most one cell per row
      out.runs = 1.0;
      out.peak_runs = std::max(a.peak_runs, n * (a.runs + 1.0));
      return out;
    }
  }
  std::abort();  // unreachable: the switch above covers every PplBinKind
}

/// Estimated peak heap bytes of one sparse evaluation: the live runs plus
/// CSR row-offset arrays for the (at most three) matrices alive at the
/// widest node.
double SparsePeakBytes(const SparseEst& est, double n) {
  return est.peak_runs * static_cast<double>(sizeof(IntervalRun)) +
         3.0 * n * static_cast<double>(sizeof(std::uint32_t));
}

/// Cost of the single Boolean product a/b, EXCLUDING the cost of
/// building the operands (each factor of a chain is built exactly once
/// whatever the association, so only the product costs differ between
/// parenthesizations). Dense: the row-OR kernel walks the set bits of
/// each of a's n rows and ORs one ceil(n/64)-word row of b per bit, plus
/// initializing the result. Sparse: the per-row run merge from
/// ComposeEstimates.
double ComposeStepCost(const SparseEst& a, const SparseEst& b, double n,
                       bool dense) {
  if (dense) return (n + n * a.nnz) * WordsPerRow(n);
  const double k = std::max(1.0, a.nnz * b.runs);
  const double merge = std::min(k * std::log2(k + 2.0), k + n / 32.0);
  return n * merge;
}

/// Collects the maximal composition chain rooted at `p` left to right:
/// a/(b/c) and (a/b)/c both flatten to [a, b, c].
void FlattenCompose(const ppl::PplBinExpr& p,
                    std::vector<const ppl::PplBinExpr*>* out) {
  if (p.kind == ppl::PplBinKind::kCompose) {
    FlattenCompose(*p.left, out);
    FlattenCompose(*p.right, out);
    return;
  }
  out->push_back(&p);
}

/// Rebuilds `node`'s composition skeleton, consuming `factors` left to
/// right at the leaves -- the as-parsed association over the (already
/// reassociated) factors, used to detect whether the DP changed anything.
ppl::PplBinPtr CloneSkeleton(const ppl::PplBinExpr& node,
                             const std::vector<ppl::PplBinPtr>& factors,
                             std::size_t* next) {
  if (node.kind == ppl::PplBinKind::kCompose) {
    ppl::PplBinPtr l = CloneSkeleton(*node.left, factors, next);
    ppl::PplBinPtr r = CloneSkeleton(*node.right, factors, next);
    return ppl::PplBinExpr::Compose(std::move(l), std::move(r));
  }
  return factors[(*next)++]->Clone();
}

/// Builds the DP-optimal association over factors[i..j] from the split
/// table, moving the factor subtrees into place.
struct ChainBuilder {
  const std::vector<std::vector<std::size_t>>& split;
  std::vector<ppl::PplBinPtr>& factors;

  ppl::PplBinPtr Build(std::size_t i, std::size_t j) {
    if (i == j) return std::move(factors[i]);
    const std::size_t s = split[i][j];
    return ppl::PplBinExpr::Compose(Build(i, s), Build(s + 1, j));
  }
};

/// The matrix-chain reassociation DP. Returns `p` rewritten so every
/// maximal composition chain of >= 3 factors carries the association the
/// cost model estimates cheapest; factor order -- and hence the denoted
/// relation (Boolean matrix product is associative) -- is unchanged.
/// `*chains` counts the chains whose association actually changed.
ppl::PplBinPtr Reassociate(const ppl::PplBinExpr& p, const Tree& tree,
                           bool dense, std::size_t* chains) {
  switch (p.kind) {
    case ppl::PplBinKind::kStep:
      return p.Clone();
    case ppl::PplBinKind::kComplement:
      return ppl::PplBinExpr::Complement(
          Reassociate(*p.left, tree, dense, chains));
    case ppl::PplBinKind::kFilter:
      return ppl::PplBinExpr::Filter(
          Reassociate(*p.left, tree, dense, chains));
    case ppl::PplBinKind::kUnion:
      return ppl::PplBinExpr::Union(
          Reassociate(*p.left, tree, dense, chains),
          Reassociate(*p.right, tree, dense, chains));
    case ppl::PplBinKind::kCompose:
      break;
  }

  std::vector<const ppl::PplBinExpr*> raw;
  FlattenCompose(p, &raw);
  std::vector<ppl::PplBinPtr> factors;
  factors.reserve(raw.size());
  for (const ppl::PplBinExpr* f : raw) {
    factors.push_back(Reassociate(*f, tree, dense, chains));
  }
  const std::size_t k = factors.size();
  if (k < 3) {
    // One association exists; rebuild as parsed.
    ppl::PplBinPtr out = std::move(factors[0]);
    for (std::size_t i = 1; i < k; ++i) {
      out = ppl::PplBinExpr::Compose(std::move(out), std::move(factors[i]));
    }
    return out;
  }

  const double n =
      static_cast<double>(std::max<std::size_t>(tree.Stats().node_count, 1));
  // est[i][j]: run-shape estimate of the product of factors i..j; the
  // factor estimates come from the same SparseCost arithmetic the
  // dense/sparse crossover uses (shape estimates are representation-
  // independent; only the per-product cost formula differs).
  std::vector<std::vector<SparseEst>> est(k, std::vector<SparseEst>(k));
  std::vector<std::vector<double>> cost(k, std::vector<double>(k, 0.0));
  std::vector<std::vector<std::size_t>> split(
      k, std::vector<std::size_t>(k, 0));
  for (std::size_t i = 0; i < k; ++i) est[i][i] = SparseCost(*raw[i], tree);
  for (std::size_t len = 2; len <= k; ++len) {
    for (std::size_t i = 0; i + len <= k; ++i) {
      const std::size_t j = i + len - 1;
      double best = std::numeric_limits<double>::infinity();
      std::size_t best_s = i;
      for (std::size_t s = i; s < j; ++s) {
        const double c = cost[i][s] + cost[s + 1][j] +
                         ComposeStepCost(est[i][s], est[s + 1][j], n, dense);
        if (c < best) {
          best = c;
          best_s = s;
        }
      }
      cost[i][j] = best;
      split[i][j] = best_s;
      est[i][j] = ComposeEstimates(est[i][best_s], est[best_s + 1][j], n);
    }
  }

  std::size_t next = 0;
  const ppl::PplBinPtr parsed = CloneSkeleton(p, factors, &next);
  ChainBuilder builder{split, factors};
  ppl::PplBinPtr optimized = builder.Build(0, k - 1);
  if (!optimized->Equals(*parsed)) ++*chains;
  return optimized;
}

}  // namespace

std::string_view ResultShapeName(ResultShape shape) {
  // Exhaustive on purpose (no default return): a new shape without a
  // name is a -Wswitch compile warning, not a silent wrong string.
  switch (shape) {
    case ResultShape::kFullRelation:
      return "full-relation";
    case ResultShape::kFromRootSet:
      return "from-root-set";
    case ResultShape::kBoolean:
      return "boolean";
    case ResultShape::kCount:
      return "count";
    case ResultShape::kTupleStream:
      return "tuple-stream";
  }
  std::abort();  // unreachable: the switch above covers every enumerator
}

std::string_view StreamBackingName(StreamBacking backing) {
  switch (backing) {
    case StreamBacking::kNone:
      return "none";
    case StreamBacking::kNodeSet:
      return "node-set";
    case StreamBacking::kEnumerator:
      return "enumerator";
    case StreamBacking::kMaterialized:
      return "materialized";
  }
  std::abort();  // unreachable: the switch above covers every enumerator
}

bool ExecutionPlan::operator==(const ExecutionPlan& other) const {
  if (engine != other.engine || shape != other.shape ||
      row_restricted != other.row_restricted || backing != other.backing ||
      repr != other.repr || cost != other.cost ||
      alternative_cost != other.alternative_cost ||
      chains_reassociated != other.chains_reassociated) {
    return false;
  }
  if ((reassociated == nullptr) != (other.reassociated == nullptr)) {
    return false;
  }
  return reassociated == nullptr || reassociated->Equals(*other.reassociated);
}

std::string ExecutionPlan::DebugString() const {
  char buf[192];
  std::snprintf(buf, sizeof(buf), "%s/%s%s%s%s%s%s cost=%.3g alt=%.3g",
                std::string(EnginePlanName(engine)).c_str(),
                std::string(ResultShapeName(shape)).c_str(),
                row_restricted ? " row-restricted" : "",
                backing != StreamBacking::kNone ? " backing=" : "",
                backing != StreamBacking::kNone
                    ? std::string(StreamBackingName(backing)).c_str()
                    : "",
                repr != MatrixRepr::kDense ? " repr=" : "",
                repr != MatrixRepr::kDense
                    ? std::string(MatrixReprName(repr)).c_str()
                    : "",
                cost, alternative_cost);
  std::string out = buf;
  if (chains_reassociated > 0) {
    std::snprintf(buf, sizeof(buf), " reassoc=%u", chains_reassociated);
    out += buf;
  }
  return out;
}

ExecutionPlan PlanQuery(const CompiledQuery& q, const Tree& tree,
                        ResultShape shape,
                        std::optional<EnginePlan> force_engine,
                        std::size_t stream_limit,
                        std::optional<MatrixRepr> force_repr,
                        bool force_parse_order) {
  ExecutionPlan plan;
  plan.shape = shape;
  const double n =
      static_cast<double>(std::max<std::size_t>(tree.Stats().node_count, 1));

  if (q.pplbin == nullptr) {
    // N-ary queries have exactly one engine, and the query class alone
    // picks its backing for every shape: the Prop. 8 enumerator for ACQs,
    // the Fig. 8 answer set for unions. Batch shapes drain the backing a
    // stream would pull; the shape selects the payload.
    plan.engine = EnginePlan::kNaryAnswer;
    if (q.acq == nullptr) {
      plan.backing = StreamBacking::kMaterialized;
      plan.cost = n * n * static_cast<double>(std::max<std::size_t>(
                              q.hcl_size, 1));
      return plan;
    }
    // The enumerator pays, in word ops, preprocessing -- one n x n
    // relation per atom plus the two semijoin passes, ~3 |atoms| n wpr(n)
    // -- then ~|vars| wpr(n) of delay per emitted tuple. A boolean job
    // stops at the first tuple, a bounded stream at its limit (offset +
    // limit), and every other shape drains an answer set estimated at
    // n^2 tuples.
    const double atoms = static_cast<double>(
        std::max<std::size_t>(q.acq->atoms.size(), 1));
    const double vars = atoms + 1.0;
    double tuples = n * n;
    if (shape == ResultShape::kBoolean) {
      tuples = 1.0;
    } else if (shape == ResultShape::kTupleStream && stream_limit != 0) {
      tuples = std::min(tuples, static_cast<double>(stream_limit));
    }
    plan.backing = StreamBacking::kEnumerator;
    plan.cost = 3.0 * atoms * n * WordsPerRow(n) +
                tuples * vars * WordsPerRow(n);
    return plan;
  }

  // Binary queries: the planner prices every admissible route -- GKP
  // (full relations only), matrix-dense and matrix-sparse -- and takes
  // the cheapest. Monadic shapes take the matrix engine's row-restricted
  // image sweep. A kTupleStream plan on a binary query streams the
  // monadic from-root node set as 1-tuples.
  if (shape == ResultShape::kTupleStream) {
    plan.backing = StreamBacking::kNodeSet;
  }
  constexpr double kInf = std::numeric_limits<double>::infinity();
  const bool monadic = shape != ResultShape::kFullRelation;
  // Every monadic shape is the from-root sweep, which starts from one
  // source node.
  const double matrix_cost =
      monadic ? MatrixMonadicCost(*q.pplbin, n, /*single_source=*/true)
              : MatrixFullCost(q.pplbin_size, n);
  // Representation matters only where the matrix engine materializes
  // relations: full-relation shapes, and monadic plans whose sweep
  // reaches a complement that forces a sub-matrix.
  const bool materializes =
      !monadic || SweepMaterializes(*q.pplbin, /*single_source=*/true);
  const bool over_ceiling =
      n > static_cast<double>(BitMatrix::kMaxDenseNodes);

  // Each route's estimate; +inf marks a route that is inadmissible here.
  // Above the dense ceiling no dense n x n matrix can exist, so routes
  // that materialize one drop out: full relations there take the sparse
  // matrix route whatever its estimate. That estimate is averages-only
  // and cannot see run coalescing (a composed step on a deep path
  // produces one run per row where it predicts n), so refusing on it
  // would deny instances that evaluate fine; the engine's run budget is
  // the enforceable bound -- a genuinely dense instance trips
  // kResourceExhausted at the first over-budget merge. Under the ceiling
  // the sparse route must fit kSparseEvalByteBudget.
  //
  // GKP is a full-relation route only: a monadic shape takes the matrix
  // engine's image sweep, which is GKP's per-source step itself. A
  // forced GKP monadic plan runs that same sweep at the same cost.
  double gkp_raw = kInf;
  if (q.positive) {
    gkp_raw = monadic ? matrix_cost
                      : static_cast<double>(q.pplbin_size) * n *
                            (1.0 + DomainBound(*q.pplbin, tree));
  }
  const double gkp_cost = monadic || over_ceiling ? kInf : gkp_raw;
  const double dense_cost = materializes && over_ceiling ? kInf : matrix_cost;
  double sparse_cost = kInf;
  if (materializes) {
    const SparseEst est = SparseCost(*q.pplbin, tree);
    const bool fits = SparsePeakBytes(est, n) <=
                      static_cast<double>(kSparseEvalByteBudget);
    if (fits || over_ceiling) sparse_cost = est.cost;
  }

  // The cheapest route; ties go to GKP, then to dense.
  const MatrixRepr matrix_repr =
      sparse_cost < dense_cost ? MatrixRepr::kSparse : MatrixRepr::kDense;
  const double best_matrix = std::min(dense_cost, sparse_cost);
  plan.engine = gkp_cost <= best_matrix ? EnginePlan::kGkpPositive
                                        : EnginePlan::kMatrixGeneral;
  // A forced representation without a forced engine routes to the matrix
  // engine -- the only engine with a representation to force.
  if (force_engine.has_value()) {
    plan.engine = *force_engine;
  } else if (force_repr.has_value()) {
    plan.engine = EnginePlan::kMatrixGeneral;
  }
  plan.row_restricted = monadic;
  if (plan.engine == EnginePlan::kMatrixGeneral) {
    plan.repr = force_repr.value_or(matrix_repr);
    const bool sparse = materializes && plan.repr == MatrixRepr::kSparse;
    plan.cost = sparse ? sparse_cost : matrix_cost;
    plan.alternative_cost =
        std::min(gkp_cost, !materializes ? kInf
                           : sparse      ? dense_cost
                                         : sparse_cost);
  } else {
    plan.cost = gkp_raw;
    plan.alternative_cost = best_matrix;
  }
  if (plan.alternative_cost == kInf) plan.alternative_cost = 0.0;

  // Composition-chain reassociation: only matrix plans that materialize
  // relations care about association order (monadic sweeps are
  // association-invariant), and forced parse-order plans are the
  // differential baseline.
  if (!force_parse_order && plan.engine == EnginePlan::kMatrixGeneral &&
      materializes) {
    std::size_t chains = 0;
    ppl::PplBinPtr opt = Reassociate(
        *q.pplbin, tree, plan.repr != MatrixRepr::kSparse, &chains);
    if (chains > 0) {
      plan.reassociated =
          std::shared_ptr<const ppl::PplBinExpr>(std::move(opt));
      plan.chains_reassociated = static_cast<std::uint32_t>(chains);
    }
  }
  return plan;
}

bool PlanRequiresDenseRelation(const CompiledQuery& q,
                               const ExecutionPlan& plan) {
  // N-ary machinery (Fig. 8 answer tables, and the enumerator's per-atom
  // relations) is dense end-to-end.
  if (plan.engine == EnginePlan::kNaryAnswer) return true;
  // Matrix plans carrying a sparse (or per-node auto) representation
  // never require the dense form: the run-list kernels evaluate --
  // including full relations -- at any tree size under their run budget.
  const bool sparse_capable = plan.engine == EnginePlan::kMatrixGeneral &&
                              plan.repr != MatrixRepr::kDense;
  // A full-relation answer IS an n x n matrix on every other route.
  if (plan.shape == ResultShape::kFullRelation) return !sparse_capable;
  // Monadic matrix plans materialize a sub-matrix only where the
  // from-root sweep reaches a complement from more than one source and
  // its operand is not a plain step -- dense only when the plan's
  // representation says so.
  if (plan.engine == EnginePlan::kMatrixGeneral && q.pplbin != nullptr) {
    return SweepMaterializes(*q.pplbin, /*single_source=*/true) &&
           !sparse_capable;
  }
  return false;
}

std::size_t PlanMemo::size() const {
  MutexLock lock(mu_);
  return plans_.size();
}

std::uint64_t PlanMemo::hits() const {
  MutexLock lock(mu_);
  return hits_;
}

std::uint64_t PlanMemo::misses() const {
  MutexLock lock(mu_);
  return misses_;
}

std::string PlanMemo::Key(std::string_view text, ResultShape shape) {
  std::string key(text);
  key.push_back('\x1f');  // cannot occur in a parseable query text
  key.append(ResultShapeName(shape));
  return key;
}

}  // namespace xpv::engine
