// Materialization layer: keeps the physical side of the federation in
// sync with capability changes, and maintains materialized view extents
// (the data-warehouse setting the paper targets — views are materialized
// at the user site, Sec. 1).
//
// Beyond full recomputation (Refresh), the store can bring a stored
// extent to a rewritten view definition with IncrementalRefresh: when the
// CVS extent verdict is Equal, the old extent is adopted without a scan;
// every other verdict recomputes. See docs/EXECUTOR.md for the rule and
// for why no Superset/Subset delta rule exists.

#ifndef EVE_EVE_MATERIALIZATION_H_
#define EVE_EVE_MATERIALIZATION_H_

#include <map>
#include <string>

#include "algebra/eval.h"
#include "algebra/executor.h"
#include "common/result.h"
#include "cvs/extent_relation.h"
#include "esql/view_definition.h"
#include "mkb/capability_change.h"
#include "storage/database.h"

namespace eve {

// Applies `change` to the physical tables so they match the evolved
// catalog: delete-relation drops the table, delete-attribute drops the
// column, renames follow, add-relation creates an empty table with the
// new schema, add-attribute appends a NULL-filled column. Idempotence is
// NOT assumed — apply exactly once per change, in order.
Status ApplyChangeToDatabase(const CapabilityChange& change, Database* db);

// Which maintenance path IncrementalRefresh took for a view.
enum class RefreshPath {
  kFull,        // recomputed from the base tables
  kReuseEqual,  // verdict Equal: old extent adopted wholesale, zero scan
};

const char* RefreshPathToString(RefreshPath path);

// Per-view maintenance telemetry.
struct RefreshStats {
  uint64_t full = 0;
  uint64_t reuse_equal = 0;
  // Always 0: no delta rule exists for the Superset or Subset verdict (CVS
  // never returns a rewriting one could apply to). The fields stay because
  // perfbench/harness/refresh_data.cc reports them.
  uint64_t delta_superset = 0;
  uint64_t delta_subset = 0;
  RefreshPath last_path = RefreshPath::kFull;

  uint64_t total() const { return full + reuse_equal; }
};

// A pool of materialized view extents, refreshed on demand from base
// tables. Used together with EveSystem: after a change rewrites a view
// definition, Refresh() re-materializes it from the surviving sources —
// or IncrementalRefresh() adapts the stored extent using the CVS verdict.
class MaterializedViewStore {
 public:
  MaterializedViewStore() = default;
  explicit MaterializedViewStore(const FunctionRegistry* registry)
      : registry_(registry) {}

  // Join strategy for view evaluation (refreshes and empirical checks).
  // Vectorized by default; kNestedLoop runs the test oracle.
  void SetStrategy(JoinStrategy strategy) { strategy_ = strategy; }
  JoinStrategy strategy() const { return strategy_; }

  // (Re-)materializes `view` over `db`, replacing any stored extent under
  // the same view name. Always a full recompute.
  Status Refresh(const ViewDefinition& view, const Database& db,
                 const Catalog& catalog);

  // Brings the stored extent of `old_view` to `new_view`'s definition,
  // consulting `verdict` (the CVS extent relationship between the two).
  // For kEqual, when the interfaces carry the same attribute names, the
  // old extent is adopted wholesale (zero scan). Every other verdict, and
  // an Equal verdict whose interface names differ, runs Refresh(new_view).
  // The path taken is recorded in stats(). `db`/`catalog` are the
  // POST-change database and catalog.
  Status IncrementalRefresh(const ViewDefinition& old_view,
                            const ViewDefinition& new_view,
                            ExtentRelation verdict, const Database& db,
                            const Catalog& catalog);

  // The stored extent; NotFound if the view was never materialized.
  //
  // Pointer-stability contract: the returned Table* stays valid (and its
  // contents unchanged) across Refresh/IncrementalRefresh/Drop of OTHER
  // views and across strategy changes; it is invalidated by Refresh,
  // IncrementalRefresh or Drop of THIS view. (Extents live in a
  // std::map keyed by view name — node-based, so unrelated mutations
  // never move them; a refresh of the same name assigns over the mapped
  // Table in place, which replaces the data the pointer sees.) Tested in
  // tests/materialization_test.cc.
  Result<const Table*> Extent(const std::string& view_name) const;

  // Drops a stored extent (for disabled views). Missing names are fine.
  void Drop(const std::string& view_name) { extents_.erase(view_name); }

  bool Has(const std::string& view_name) const {
    return extents_.count(view_name) > 0;
  }
  size_t NumViews() const { return extents_.size(); }

  // Maintenance telemetry for one view (zero-valued if never refreshed)
  // and aggregated over all views.
  RefreshStats StatsFor(const std::string& view_name) const;
  RefreshStats AggregateStats() const;

 private:
  void Record(const std::string& view_name, RefreshPath path);

  // The Equal rule; returns true if it applied (extent updated), false if
  // its precondition failed and the caller should fall back. Errors are
  // real failures.
  Result<bool> TryReuseEqual(const ViewDefinition& old_view,
                             const ViewDefinition& new_view);

  const FunctionRegistry* registry_ = nullptr;
  JoinStrategy strategy_ = JoinStrategy::kVectorized;
  std::map<std::string, Table> extents_;
  std::map<std::string, RefreshStats> stats_;
};

}  // namespace eve

#endif  // EVE_EVE_MATERIALIZATION_H_
