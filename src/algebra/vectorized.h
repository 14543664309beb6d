// Batch-at-a-time columnar executor for conjunctive queries, the
// JoinStrategy::kVectorized backend of Execute(). Intermediate join state
// is a set of per-relation row-id vectors into the base tables (late
// materialization); predicates run as typed kernels over gathered column
// chunks where possible, falling back to the shared scalar kernels in
// algebra/eval.h so both strategies agree bit-for-bit.

#ifndef EVE_ALGEBRA_VECTORIZED_H_
#define EVE_ALGEBRA_VECTORIZED_H_

#include "algebra/executor.h"

namespace eve {

// Internal entry point used by Execute(); `out` carries the inferred
// output schema. Validation of the query shape has already happened.
Result<Table> ExecuteVectorized(const ConjunctiveQuery& query,
                                const Database& db, const Catalog& catalog,
                                const FunctionRegistry* registry, Table out);

}  // namespace eve

#endif  // EVE_ALGEBRA_VECTORIZED_H_
