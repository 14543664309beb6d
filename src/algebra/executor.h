// Executor for conjunctive SELECT-PROJECT-JOIN queries over the in-memory
// Database — the evaluation substrate for E-SQL views. The product path is
// the batch-at-a-time vectorized executor (algebra/vectorized.h); a
// predicate-pushdown nested-loop join, which applies each conjunct as soon
// as all relations it references are bound, is kept as the test oracle.

#ifndef EVE_ALGEBRA_EXECUTOR_H_
#define EVE_ALGEBRA_EXECUTOR_H_

#include <atomic>
#include <cstdint>
#include <string>
#include <vector>

#include "algebra/eval.h"
#include "algebra/expr.h"
#include "catalog/catalog.h"
#include "common/result.h"
#include "storage/database.h"

namespace eve {

// A conjunctive query: FROM `relations` WHERE AND(conjuncts)
// SELECT projections AS output_names. Columns inside expressions are
// qualified by relation name (no aliases at this layer).
struct ConjunctiveQuery {
  std::vector<std::string> relations;
  std::vector<ExprPtr> conjuncts;
  std::vector<ExprPtr> projections;
  std::vector<std::string> output_names;
  // Result uses set semantics (duplicates removed) when true, matching the
  // paper's extent-containment definitions.
  bool distinct = true;
};

enum class JoinStrategy {
  // Predicate-pushdown nested loops: no memory overhead, O(∏|Ri|) worst
  // case. Retained as the differential-testing oracle.
  kNestedLoop,
  // Batch-at-a-time columnar execution: selection vectors over base-table
  // row ids, hashed equi-joins (non-equi conjuncts become post-filters),
  // typed comparison kernels, and late-materialized projections
  // (zero-copy for bare columns). Relations with no equi-join link are
  // joined by a cartesian extension.
  kVectorized,
  // Another name for kVectorized; perfbench/harness/refresh_data.cc
  // still spells it.
  kAuto = kVectorized,
};

// Process-wide executor telemetry. The cartesian fallback in the
// vectorized path is correct but O(|L|x|R|); instead of silently
// exploding it bumps `cartesian_fallbacks` so operators can spot the
// missing equi-join predicate (surfaced via evectl SHOW EXECUTOR STATS).
struct ExecutorCounters {
  std::atomic<uint64_t> cartesian_fallbacks{0};
  std::atomic<uint64_t> nested_loop_queries{0};
  std::atomic<uint64_t> vectorized_queries{0};

  void Reset() {
    cartesian_fallbacks.store(0, std::memory_order_relaxed);
    nested_loop_queries.store(0, std::memory_order_relaxed);
    vectorized_queries.store(0, std::memory_order_relaxed);
  }
};

ExecutorCounters& GlobalExecutorCounters();

// Executes `query` against `db`; output schema types are inferred from
// `catalog`. `registry` resolves function calls (may be null). Both
// strategies produce identical result sets (tested in
// tests/executor_equivalence_test).
Result<Table> Execute(const ConjunctiveQuery& query, const Database& db,
                      const Catalog& catalog,
                      const FunctionRegistry* registry = nullptr,
                      JoinStrategy strategy = JoinStrategy::kNestedLoop);

}  // namespace eve

#endif  // EVE_ALGEBRA_EXECUTOR_H_
