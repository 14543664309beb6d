// View-extent reasoning for P3 of Def. 1 (CVS Step 6): inferring the
// relationship between the old and new view extents from PC constraints,
// and checking it empirically by evaluating both views.
//
// The paper defers a complete P3 procedure to future work; we implement
// the natural conservative inference it sketches in Ex. 4 (PC constraints
// justify that a cover join loses no tuples) and cross-validate it
// empirically in tests (E8 in DESIGN.md).

#ifndef EVE_CVS_EXTENT_H_
#define EVE_CVS_EXTENT_H_

#include "algebra/eval.h"
#include "algebra/executor.h"
#include "common/result.h"
#include "cvs/extent_relation.h"
#include "cvs/r_mapping.h"
#include "cvs/r_replacement.h"
#include "esql/view_definition.h"
#include "mkb/mkb.h"
#include "storage/database.h"

namespace eve {

// True when the inferred relation meets the view's VE requirement
// (≡ needs Equal; ⊇ accepts Equal or Superset; ⊆ accepts Equal or Subset;
// ≈ accepts anything).
bool SatisfiesViewExtent(ExtentRelation inferred, ViewExtent required);

// Conservative inference for a replacement-based rewriting:
//  * each cover relation S for R justified by a PC constraint
//    π(S) θ π(R) contributes θ's direction;
//  * each dropped dispensable condition contributes Superset;
//  * Steiner relations without PC justification contribute Unknown.
// `mkb` is the PRE-change MKB: PC constraints mentioning the deleted
// relation only exist there (MKB' drops them), yet they still describe
// the data and justify the rewriting.
ExtentRelation InferExtentRelation(const ViewDefinition& old_view,
                                   const ViewDefinition& new_view,
                                   const RMapping& mapping,
                                   const ReplacementCandidate& candidate,
                                   const Mkb& mkb);

// The tree-and-cover part of InferExtentRelation: the combined PC
// justification of the candidate's covers plus its Steiner relations,
// ignoring dropped conditions (which can only widen, i.e. move the result
// further up the lattice). Because a candidate with more tree relations
// or fewer surviving conditions combines in *more* contributions, this is
// a lattice floor for the final inferred extent — the admissible
// extent_floor fed to LowerBound during lazy enumeration. A candidate
// with an empty tree floors the covers alone (used before any tree is
// known).
ExtentRelation CandidateExtentFloor(const RMapping& mapping,
                                    const ReplacementCandidate& candidate,
                                    const Mkb& mkb);

// Empirical comparison: evaluates both views over `db` (which must still
// hold the pre-change tables so the old view is evaluable), projects each
// onto the common interface attributes, and compares as sets. `strategy`
// picks the join implementation for both evaluations (vectorized by
// default; tests pass kNestedLoop to use the oracle).
Result<ExtentRelation> CompareExtentsEmpirically(
    const ViewDefinition& old_view, const ViewDefinition& new_view,
    const Database& db, const Catalog& old_catalog,
    const Catalog& new_catalog, const FunctionRegistry* registry = nullptr,
    JoinStrategy strategy = JoinStrategy::kVectorized);

}  // namespace eve

#endif  // EVE_CVS_EXTENT_H_
