// Test-only entry points to R-replacement enumeration (paper Def. 3).
// The product drives CandidateStream (cvs/r_replacement.h) directly; these
// two functions exist for the tests:
//  * ComputeRReplacements drains a stream into a vector, for tests that
//    inspect the candidate set of a paper example;
//  * ComputeRReplacementsEager is the pre-stream eager cartesian-product
//    enumeration, kept verbatim as the reference oracle that
//    enumeration_equivalence_test compares the stream against.

#ifndef EVE_TESTS_SUPPORT_R_REPLACEMENT_ORACLE_H_
#define EVE_TESTS_SUPPORT_R_REPLACEMENT_ORACLE_H_

#include <vector>

#include "common/result.h"
#include "cvs/r_mapping.h"
#include "cvs/r_replacement.h"
#include "esql/view_definition.h"
#include "hypergraph/join_graph.h"
#include "mkb/mkb.h"

namespace eve {

// Enumerates replacement candidates. `mkb` is the PRE-change MKB: the
// function-of constraints that cover R's attributes mention R and are
// therefore dropped from MKB', yet they still describe the data (paper
// Ex. 9 uses F1/F2/F4 after Customer is deleted). `graph_prime` is the
// join graph of MKB' — candidate join chains must avoid R and be
// evaluable post-change. An empty result means CVS fails for this view
// (Def. 3's R-replacement set is empty).
//
// Drains a CandidateStream for up to options.max_results candidates and
// re-applies the historical smallest-tree-first ordering.
Result<std::vector<ReplacementCandidate>> ComputeRReplacements(
    const ViewDefinition& view, const RMapping& mapping, const Mkb& mkb,
    const JoinGraph& graph_prime, const RReplacementOptions& options);

// The pre-stream eager enumeration, kept verbatim as the reference
// implementation: every cover combination fully expanded, every join
// tree materialized, sorted afterwards. Ignores options.token.
Result<std::vector<ReplacementCandidate>> ComputeRReplacementsEager(
    const ViewDefinition& view, const RMapping& mapping, const Mkb& mkb,
    const JoinGraph& graph_prime, const RReplacementOptions& options);

}  // namespace eve

#endif  // EVE_TESTS_SUPPORT_R_REPLACEMENT_ORACLE_H_
