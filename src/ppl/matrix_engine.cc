#include "ppl/matrix_engine.h"

#include <cstdio>
#include <cstdlib>
#include <string>
#include <unordered_map>
#include <utility>

#include "ppl/relation_cache.h"

namespace xpv::ppl {

// -------------------------------------------------------------- AnyMatrix

std::size_t AnyMatrix::size() const {
  return is_dense() ? dense().size() : sparse().size();
}

bool AnyMatrix::Get(std::size_t row, std::size_t col) const {
  return is_dense() ? dense().Get(row, col) : sparse().Get(row, col);
}

std::size_t AnyMatrix::Count() const {
  return is_dense() ? dense().Count() : sparse().Count();
}

std::size_t AnyMatrix::resident_bytes() const {
  return is_dense() ? dense().resident_bytes() : sparse().resident_bytes();
}

BitVector AnyMatrix::ImageOf(const BitVector& rows) const {
  return is_dense() ? dense().ImageOf(rows) : sparse().ImageOf(rows);
}

BitVector AnyMatrix::AndOfRows(const BitVector& rows) const {
  return is_dense() ? dense().AndOfRows(rows) : sparse().AndOfRows(rows);
}

BitVector AnyMatrix::RowsContaining(const BitVector& cols) const {
  return is_dense() ? dense().RowsContaining(cols)
                    : sparse().RowsContaining(cols);
}

BitVector AnyMatrix::NonEmptyRows() const {
  return is_dense() ? dense().NonEmptyRows() : sparse().NonEmptyRows();
}

Result<BitMatrix> AnyMatrix::ToDense() const {
  if (is_dense()) return dense();
  return sparse().BoolMatrix::ToDense();
}

// ----------------------------------------------------------- MatrixEngine

BitMatrix MatrixEngine::Product(const BitMatrix& a, const BitMatrix& b) const {
  return mode_ == MultiplyMode::kBitPacked ? a.Multiply(b)
                                           : a.MultiplyNaive(b);
}

Result<AnyMatrix> MatrixEngine::StepLeaf(const PplBinExpr& p) {
  const bool sparse_leaf =
      repr_ == MatrixRepr::kSparse ||
      (repr_ == MatrixRepr::kAuto && cache_->interval_backed());
  if (sparse_leaf) {
    // Masked step built directly from the cached axis runs and the label
    // posting set -- no densification at any tree size.
    XPV_ASSIGN_OR_RETURN(SparseBoolMatrix leaf,
                         cache_->SparseStep(p.axis, p.name_test, RunBudget()));
    return AnyMatrix(std::move(leaf));
  }
  const BoolMatrix& axis = cache_->Matrix(p.axis);
  if (const BitMatrix* dense = axis.AsDense()) {
    if (p.name_test.empty()) return AnyMatrix(*dense);
    return AnyMatrix(dense->MaskColumns(cache_->Labels(p.name_test)));
  }
  // Dense mode on an interval-backed cache: expand the leaf, surfacing
  // kResourceExhausted (a job error, not an abort) above the ceiling.
  XPV_ASSIGN_OR_RETURN(BitMatrix m, axis.ToDense());
  if (!p.name_test.empty()) m.MaskColumnsInPlace(cache_->Labels(p.name_test));
  return AnyMatrix(std::move(m));
}

AnyMatrix MatrixEngine::MaybeDensify(SparseBoolMatrix m) {
  if (repr_ != MatrixRepr::kAuto) return AnyMatrix(std::move(m));
  const std::size_t n = m.size();
  if (n > BitMatrix::kMaxDenseNodes) return AnyMatrix(std::move(m));
  // Density crossover: once the run list outweighs half the packed-bit
  // form, every further run-merge costs more than the word-parallel dense
  // kernels -- re-encode and continue dense.
  const std::size_t dense_bytes = ((n + 63) / 64) * n * sizeof(std::uint64_t);
  if (m.resident_bytes() <= dense_bytes / 2) return AnyMatrix(std::move(m));
  Result<BitMatrix> dense = m.BoolMatrix::ToDense();
  // Cannot fail: n is under the ceiling checked above.
  ++stats_.repr_crossovers;
  return AnyMatrix(std::move(dense).value());
}

Result<AnyMatrix> MatrixEngine::ComposeAny(AnyMatrix a, AnyMatrix b) {
  if (a.is_dense() && b.is_dense()) {
    ++stats_.dense_products;
    return AnyMatrix(Product(a.dense(), b.dense()));
  }
  if (!a.is_dense() && !b.is_dense()) {
    ++stats_.sparse_products;
    XPV_ASSIGN_OR_RETURN(SparseBoolMatrix out,
                         a.sparse().Multiply(b.sparse(), RunBudget()));
    return MaybeDensify(std::move(out));
  }
  // Mixed operands (kAuto after a crossover): the packed-row kernels OR
  // runs into dense rows; the output inherits the dense operand's size
  // class, which kAuto only creates under the ceiling.
  ++stats_.dense_products;
  if (!a.is_dense()) return AnyMatrix(a.sparse().MultiplyDense(b.dense()));
  return AnyMatrix(b.sparse().MultiplyDenseLeft(a.dense()));
}

Result<AnyMatrix> MatrixEngine::UnionAny(AnyMatrix a, AnyMatrix b) {
  if (a.is_dense() && b.is_dense()) {
    return AnyMatrix(a.dense().Or(b.dense()));
  }
  if (!a.is_dense() && !b.is_dense()) {
    XPV_ASSIGN_OR_RETURN(SparseBoolMatrix out,
                         a.sparse().Or(b.sparse(), RunBudget()));
    return MaybeDensify(std::move(out));
  }
  BitMatrix out = a.is_dense() ? std::move(a).TakeDense()
                               : std::move(b).TakeDense();
  const SparseBoolMatrix& add = a.is_dense() ? b.sparse() : a.sparse();
  add.OrInto(out);
  return AnyMatrix(std::move(out));
}

Result<AnyMatrix> MatrixEngine::ComplementAny(AnyMatrix a) {
  if (a.is_dense()) return AnyMatrix(a.dense().Complement());
  // Complementing a sparse relation flips its density (gap inversion adds
  // at most one run per row, but the *population* explodes), so this is
  // where kAuto most often switches representation.
  return MaybeDensify(a.sparse().Complement());
}

AnyMatrix MatrixEngine::FilterAny(AnyMatrix a) {
  if (a.is_dense()) return AnyMatrix(a.dense().FilterDiagonal());
  return AnyMatrix(a.sparse().FilterDiagonal());
}

/// Per-EvaluateAny hash-consing state. Keys are subtree surface texts
/// (ToString round-trips, so equal texts mean equal relations); when the
/// caller compiled through CompileQuery these are canonical texts, so
/// local keys and the shared RelationCache's key family coincide.
struct MatrixEngine::EvalContext {
  std::unordered_map<const PplBinExpr*, std::string> keys;
  std::unordered_map<std::string, std::size_t> uses;
  /// Local memo: only subtree texts occurring more than once enter it,
  /// so a cache-disabled evaluation of a duplicate-free expression pays
  /// nothing beyond the key scan.
  std::unordered_map<std::string, std::shared_ptr<const AnyMatrix>> local;

  void BuildKeys(const PplBinExpr& p) {
    switch (p.kind) {
      case PplBinKind::kStep:
        break;
      case PplBinKind::kCompose:
      case PplBinKind::kUnion:
        BuildKeys(*p.left);
        BuildKeys(*p.right);
        break;
      case PplBinKind::kComplement:
      case PplBinKind::kFilter:
        BuildKeys(*p.left);
        break;
    }
    std::string text = p.ToString();
    ++uses[text];
    keys.emplace(&p, std::move(text));
  }
};

Result<AnyMatrix> MatrixEngine::EvaluateAny(const PplBinExpr& p) {
  EvalContext ctx;
  ctx.BuildKeys(p);
  return EvalNode(p, ctx);
}

Result<AnyMatrix> MatrixEngine::EvalNode(const PplBinExpr& p,
                                         EvalContext& ctx) {
  const std::string& text = ctx.keys.at(&p);
  // Hash-cons duplicated subtrees within this evaluation; consult the
  // shared cross-job cache for interior nodes (step leaves are already
  // served by the AxisCache). Both layers hand out the exact matrix the
  // evaluation below would compute, so hit patterns never change results.
  const bool local_memo = ctx.uses.at(text) > 1;
  const bool shared =
      rel_cache_ != nullptr && p.kind != PplBinKind::kStep;
  std::string shared_key;
  if (local_memo) {
    auto it = ctx.local.find(text);
    if (it != ctx.local.end()) return AnyMatrix(*it->second);
  }
  if (shared) {
    shared_key = RelationKey(text, MatrixReprName(repr_));
    if (std::shared_ptr<const AnyMatrix> hit = rel_cache_->Get(shared_key)) {
      ++stats_.subrel_hits;
      if (local_memo) ctx.local.emplace(text, hit);
      return AnyMatrix(*hit);
    }
    ++stats_.subrel_misses;
  }

  // Every interior node is a whole product, union or complement, so the
  // token's clock is read when the node is entered and again once its
  // operands are ready, before the node's own kernel: a deadline that
  // passes while an operand's product runs stops the next product.
  if (p.kind != PplBinKind::kStep) XPV_RETURN_IF_ERROR(cancel_.CheckNow());
  Result<AnyMatrix> result = [&]() -> Result<AnyMatrix> {
    switch (p.kind) {
      case PplBinKind::kStep:
        return StepLeaf(p);
      case PplBinKind::kCompose: {
        XPV_ASSIGN_OR_RETURN(AnyMatrix a, EvalNode(*p.left, ctx));
        XPV_ASSIGN_OR_RETURN(AnyMatrix b, EvalNode(*p.right, ctx));
        XPV_RETURN_IF_ERROR(cancel_.CheckNow());
        return ComposeAny(std::move(a), std::move(b));
      }
      case PplBinKind::kUnion: {
        XPV_ASSIGN_OR_RETURN(AnyMatrix a, EvalNode(*p.left, ctx));
        XPV_ASSIGN_OR_RETURN(AnyMatrix b, EvalNode(*p.right, ctx));
        XPV_RETURN_IF_ERROR(cancel_.CheckNow());
        return UnionAny(std::move(a), std::move(b));
      }
      case PplBinKind::kComplement: {
        XPV_ASSIGN_OR_RETURN(AnyMatrix a, EvalNode(*p.left, ctx));
        XPV_RETURN_IF_ERROR(cancel_.CheckNow());
        return ComplementAny(std::move(a));
      }
      case PplBinKind::kFilter: {
        XPV_ASSIGN_OR_RETURN(AnyMatrix a, EvalNode(*p.left, ctx));
        XPV_RETURN_IF_ERROR(cancel_.CheckNow());
        return FilterAny(std::move(a));
      }
    }
    std::abort();  // unreachable: the switch above covers every PplBinKind
  }();
  if (!result.ok()) return result;
  // An entry the cross-job cache would reject is not worth a shared copy.
  const bool publish =
      shared && rel_cache_->Admits(shared_key, result->resident_bytes());
  if (!local_memo && !publish) return result;

  // Publish: one shared immutable copy feeds the local memo and the
  // cross-job cache; the caller gets a copy so later hits stay intact.
  auto owned =
      std::make_shared<const AnyMatrix>(std::move(result).value());
  if (local_memo) ctx.local.emplace(text, owned);
  if (publish) rel_cache_->Put(shared_key, owned);
  return AnyMatrix(*owned);
}

Result<BitMatrix> MatrixEngine::EvaluateDense(const PplBinExpr& p) {
  XPV_ASSIGN_OR_RETURN(AnyMatrix m, EvaluateAny(p));
  if (m.is_dense()) return std::move(m).TakeDense();
  return m.ToDense();
}

BitMatrix MatrixEngine::Evaluate(const PplBinExpr& p) {
  Result<BitMatrix> m = EvaluateDense(p);
  if (!m.ok()) {
    std::fprintf(stderr, "MatrixEngine::Evaluate: %s\n",
                 m.status().ToString().c_str());
    std::abort();  // unchecked entry point: callers own the planner gates
  }
  return std::move(m).value();
}

Result<BitVector> MatrixEngine::Image(const PplBinExpr& p,
                                      const BitVector& from) {
  XPV_RETURN_IF_ERROR(cancel_.Check());
  switch (p.kind) {
    case PplBinKind::kStep: {
      BitVector out = AxisImage(tree_, p.axis, from);
      if (!p.name_test.empty()) out.AndWith(cache_->Labels(p.name_test));
      return out;
    }
    case PplBinKind::kCompose: {
      XPV_ASSIGN_OR_RETURN(BitVector mid, Image(*p.left, from));
      return Image(*p.right, mid);
    }
    case PplBinKind::kUnion: {
      XPV_ASSIGN_OR_RETURN(BitVector out, Image(*p.left, from));
      XPV_ASSIGN_OR_RETURN(BitVector right, Image(*p.right, from));
      out.OrWith(right);
      return out;
    }
    case PplBinKind::kFilter: {
      XPV_ASSIGN_OR_RETURN(const BitVector* domain, FilterDomain(*p.left));
      BitVector out = from;
      out.AndWith(*domain);
      return out;
    }
    case PplBinKind::kComplement: {
      // image(not Q, N)[v] = OR_{u in N} not M_Q[u][v]
      //                    = not (AND_{u in N} M_Q[u][v]).
      if (from.Count() == 1) {
        // Single source u: the AND is row u of M_Q alone, i.e.
        // image(Q, {u}) -- the sweep continues into Q and no matrix is
        // built, not even the cached axis relation of a step operand.
        XPV_ASSIGN_OR_RETURN(BitVector out, Image(*p.left, from));
        out.Complement();
        return out;
      }
      if (p.left->kind == PplBinKind::kStep) {
        // Complement-of-step fast path: row u of M_{A::N} is
        // axis_row(u) & lab_N, so for nonempty N the AND distributes as
        // AndOfRows(A, N) & lab_N -- one pass over the cached axis
        // relation, no sub-matrix, valid on interval backing at any size.
        BitVector out(tree_.size());
        if (from.None()) return out;  // AND identity, complemented
        out = cache_->Matrix(p.left->axis).AndOfRows(from);
        if (!p.left->name_test.empty()) {
          out.AndWith(cache_->Labels(p.left->name_test));
        }
        out.Complement();
        return out;
      }
      // General complement: materialize the complemented subexpression's
      // matrix -- only its, not the whole query's -- in whichever
      // representation the engine mode picks, so sparse/auto modes run
      // this beyond the dense ceiling too.
      XPV_ASSIGN_OR_RETURN(AnyMatrix sub, EvaluateAny(*p.left));
      BitVector out = sub.AndOfRows(from);
      out.Complement();
      return out;
    }
  }
  std::abort();  // unreachable: the switch above covers every PplBinKind
}

Result<BitVector> MatrixEngine::Preimage(const PplBinExpr& p,
                                         const BitVector& to) {
  XPV_RETURN_IF_ERROR(cancel_.Check());
  switch (p.kind) {
    case PplBinKind::kStep: {
      // (u, v) in [[A::N]] iff A(u, v) and v labeled N: constrain the
      // targets first, then walk the inverse axis.
      BitVector targets = to;
      if (!p.name_test.empty()) targets.AndWith(cache_->Labels(p.name_test));
      return AxisImage(tree_, InverseAxis(p.axis), targets);
    }
    case PplBinKind::kCompose: {
      XPV_ASSIGN_OR_RETURN(BitVector mid, Preimage(*p.right, to));
      return Preimage(*p.left, mid);
    }
    case PplBinKind::kUnion: {
      XPV_ASSIGN_OR_RETURN(BitVector out, Preimage(*p.left, to));
      XPV_ASSIGN_OR_RETURN(BitVector right, Preimage(*p.right, to));
      out.OrWith(right);
      return out;
    }
    case PplBinKind::kFilter: {
      XPV_ASSIGN_OR_RETURN(const BitVector* domain, FilterDomain(*p.left));
      BitVector out = to;
      out.AndWith(*domain);
      return out;
    }
    case PplBinKind::kComplement: {
      // u has some v in N with not M_Q[u][v] iff row u does not contain N.
      if (p.left->kind == PplBinKind::kStep) {
        // Complement-of-step fast path, mirroring Image: row u of
        // M_{A::N} is axis_row(u) & lab_N, so u's row contains N iff
        // N is inside lab_N and inside axis_row(u).
        BitVector out(tree_.size());
        if (to.None()) return out;  // every row contains {}, complemented
        if (!p.left->name_test.empty()) {
          BitVector outside = to;
          outside.AndNotWith(cache_->Labels(p.left->name_test));
          if (outside.Any()) {
            out.Fill();  // no row contains a node outside lab_N
            return out;
          }
        }
        out = cache_->Matrix(p.left->axis).RowsContaining(to);
        out.Complement();
        return out;
      }
      XPV_ASSIGN_OR_RETURN(AnyMatrix sub, EvaluateAny(*p.left));
      BitVector out = sub.RowsContaining(to);
      out.Complement();
      return out;
    }
  }
  std::abort();  // unreachable: the switch above covers every PplBinKind
}

Result<BitVector> MatrixEngine::Domain(const PplBinExpr& p) {
  BitVector all(tree_.size());
  all.Fill();
  return Preimage(p, all);
}

Result<const BitVector*> MatrixEngine::FilterDomain(const PplBinExpr& body) {
  std::string key = body.ToString();
  auto it = domain_cache_.find(key);
  if (it == domain_cache_.end()) {
    XPV_ASSIGN_OR_RETURN(BitVector domain, Domain(body));
    it = domain_cache_.emplace(std::move(key), std::move(domain)).first;
  }
  return &it->second;
}

Result<BitVector> MatrixEngine::EvaluateFromNode(const PplBinExpr& p,
                                                 NodeId u) {
  BitVector from(tree_.size());
  from.Set(u);
  return Image(p, from);
}

Result<BitVector> MatrixEngine::EvaluateFromRoot(const PplBinExpr& p) {
  return EvaluateFromNode(p, tree_.root());
}

}  // namespace xpv::ppl
