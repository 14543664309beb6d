#include "cvs/extent.h"

#include <algorithm>
#include <map>
#include <set>

#include "algebra/executor.h"
#include "esql/evaluator.h"

namespace eve {

std::string_view ExtentRelationToString(ExtentRelation relation) {
  switch (relation) {
    case ExtentRelation::kEqual:
      return "equal";
    case ExtentRelation::kSuperset:
      return "superset";
    case ExtentRelation::kSubset:
      return "subset";
    case ExtentRelation::kUnknown:
      return "unknown";
  }
  return "?";
}

ExtentRelation CombineExtent(ExtentRelation a, ExtentRelation b) {
  if (a == ExtentRelation::kEqual) return b;
  if (b == ExtentRelation::kEqual) return a;
  if (a == b) return a;
  return ExtentRelation::kUnknown;
}

bool SatisfiesViewExtent(ExtentRelation inferred, ViewExtent required) {
  switch (required) {
    case ViewExtent::kAny:
      return true;
    case ViewExtent::kEqual:
      return inferred == ExtentRelation::kEqual;
    case ViewExtent::kSuperset:
      return inferred == ExtentRelation::kEqual ||
             inferred == ExtentRelation::kSuperset;
    case ViewExtent::kSubset:
      return inferred == ExtentRelation::kEqual ||
             inferred == ExtentRelation::kSubset;
  }
  return false;
}

namespace {

// One covered-attribute correspondence: R.target replaced via f(S.source).
struct CoverPair {
  AttributeRef target;  // attribute of the dropped relation R
  AttributeRef source;  // attribute of the cover relation S
};

// True when `pc`, oriented with `s` on the lhs, certifies at least one of
// `pairs`: some index i has (lhs_attrs[i], rhs_attrs[i]) equal to
// (pair.source, pair.target). This is the shape of the paper's Ex. 4
// constraint (iv): π[Name, PAddr](Person) ⊇ π[Name, Addr](Customer)
// certifies the Addr -> PAddr replacement (and the Name join attribute).
bool PcCertifiesAPair(const PCConstraint& pc, const std::string& r,
                      const std::string& s,
                      const std::vector<CoverPair>& pairs) {
  const bool s_is_lhs = pc.lhs_relation == s;
  const std::vector<AttributeRef>& s_attrs =
      s_is_lhs ? pc.lhs_attrs : pc.rhs_attrs;
  const std::vector<AttributeRef>& r_attrs =
      s_is_lhs ? pc.rhs_attrs : pc.lhs_attrs;
  (void)r;
  for (size_t i = 0; i < s_attrs.size(); ++i) {
    for (const CoverPair& pair : pairs) {
      if (s_attrs[i] == pair.source && r_attrs[i] == pair.target) {
        return true;
      }
    }
  }
  return false;
}

// Direction contributed by the strongest PC constraint between the dropped
// relation `r` and the cover relation `s` that certifies one of the
// attribute correspondences actually used, oriented as
// "π(s-side) θ π(r-side)". Unknown when no such constraint exists.
ExtentRelation PcJustification(const Mkb& mkb, const std::string& r,
                               const std::string& s,
                               const std::vector<CoverPair>& pairs) {
  ExtentRelation best = ExtentRelation::kUnknown;
  for (const PCConstraint* pc : mkb.PCConstraintsBetween(r, s)) {
    if (!pairs.empty() && !PcCertifiesAPair(*pc, r, s, pairs)) continue;
    // Orient so the lhs is the cover relation s.
    SetRelation rel = pc->relation;
    if (pc->lhs_relation == r) rel = FlipSetRelation(rel);
    ExtentRelation contribution = ExtentRelation::kUnknown;
    switch (rel) {
      case SetRelation::kEqual:
        contribution = ExtentRelation::kEqual;
        break;
      case SetRelation::kSuperset:
      case SetRelation::kProperSuperset:
        // Every tuple of R's projection appears in S: the cover join loses
        // nothing (and may add) -> V' ⊇ V.
        contribution = ExtentRelation::kSuperset;
        break;
      case SetRelation::kSubset:
      case SetRelation::kProperSubset:
        contribution = ExtentRelation::kSubset;
        break;
    }
    if (contribution == ExtentRelation::kEqual) return contribution;
    if (best == ExtentRelation::kUnknown) best = contribution;
  }
  return best;
}

}  // namespace

ExtentRelation CandidateExtentFloor(const RMapping& mapping,
                                    const ReplacementCandidate& candidate,
                                    const Mkb& mkb) {
  ExtentRelation result = ExtentRelation::kEqual;
  const std::string& r = mapping.relation;

  // Cover relations, justified by PC constraints (from the pre-change MKB)
  // that certify the attribute correspondences actually used.
  std::map<std::string, std::vector<CoverPair>> cover_pairs;
  for (const AttributeReplacement& repl : candidate.replacements) {
    std::vector<AttributeRef> sources;
    repl.replacement->CollectColumns(&sources);
    if (sources.empty()) continue;
    cover_pairs[repl.cover_relation].push_back(
        CoverPair{repl.original, sources[0]});
  }
  for (const auto& [s, pairs] : cover_pairs) {
    result = CombineExtent(result, PcJustification(mkb, r, s, pairs));
  }

  // Steiner relations (in the tree, neither kept nor covers) without any
  // PC justification make the direction unknown.
  std::set<std::string> kept(mapping.relations.begin(),
                             mapping.relations.end());
  for (const std::string& rel : candidate.tree.relations) {
    if (kept.count(rel) > 0 || cover_pairs.count(rel) > 0) continue;
    result = CombineExtent(result, PcJustification(mkb, r, rel, {}));
  }
  return result;
}

ExtentRelation InferExtentRelation(const ViewDefinition& old_view,
                                   const ViewDefinition& new_view,
                                   const RMapping& mapping,
                                   const ReplacementCandidate& candidate,
                                   const Mkb& mkb) {
  ExtentRelation result = CandidateExtentFloor(mapping, candidate, mkb);
  const std::string& r = mapping.relation;

  // Dropped dispensable conditions widen the extent.
  for (const ViewCondition& cond : old_view.where()) {
    const bool survives = std::any_of(
        new_view.where().begin(), new_view.where().end(),
        [&](const ViewCondition& nc) {
          return ClausesEquivalent(*nc.clause, *cond.clause);
        });
    if (survives) continue;
    // Conditions consumed as join constraints are accounted for by the
    // cover justification; only genuinely dropped filters widen.
    std::vector<AttributeRef> cols;
    cond.clause->CollectColumns(&cols);
    const bool touches_r =
        std::any_of(cols.begin(), cols.end(), [&](const AttributeRef& ref) {
          return ref.relation == r;
        });
    if (!touches_r && cond.params.dispensable) {
      result = CombineExtent(result, ExtentRelation::kSuperset);
    }
  }
  return result;
}

Result<ExtentRelation> CompareExtentsEmpirically(
    const ViewDefinition& old_view, const ViewDefinition& new_view,
    const Database& db, const Catalog& old_catalog,
    const Catalog& new_catalog, const FunctionRegistry* registry,
    JoinStrategy strategy) {
  EVE_ASSIGN_OR_RETURN(
      const Table old_table,
      EvaluateView(old_view, db, old_catalog, registry, strategy));
  EVE_ASSIGN_OR_RETURN(
      const Table new_table,
      EvaluateView(new_view, db, new_catalog, registry, strategy));

  // Common interface attributes (B̄_V ∩ B̄_V' by output name).
  std::vector<std::string> common;
  for (const std::string& name : old_view.InterfaceNames()) {
    const std::vector<std::string> new_names = new_view.InterfaceNames();
    if (std::find(new_names.begin(), new_names.end(), name) !=
        new_names.end()) {
      common.push_back(name);
    }
  }
  if (common.empty()) return ExtentRelation::kUnknown;

  auto project = [&](const Table& table) -> Table {
    // Column selection is a handle copy in the columnar layout — no
    // row-level materialization.
    std::vector<AttributeDef> attrs;
    std::vector<std::shared_ptr<const ColumnChunk>> cols;
    for (const std::string& name : common) {
      const auto idx = table.schema().IndexOf(name);
      attrs.push_back(table.schema().attribute(*idx));
      cols.push_back(table.column_handle(*idx));
    }
    Table out = Table::FromColumns(Schema(std::move(attrs)), std::move(cols),
                                   table.NumRows());
    out.Deduplicate();
    return out;
  };

  const Table old_projected = project(old_table);
  const Table new_projected = project(new_table);
  const bool new_contains_old = old_projected.IsSubsetOf(new_projected);
  const bool old_contains_new = new_projected.IsSubsetOf(old_projected);
  if (new_contains_old && old_contains_new) return ExtentRelation::kEqual;
  if (new_contains_old) return ExtentRelation::kSuperset;
  if (old_contains_new) return ExtentRelation::kSubset;
  return ExtentRelation::kUnknown;
}

}  // namespace eve
