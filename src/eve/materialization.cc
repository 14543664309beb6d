#include "eve/materialization.h"

#include <algorithm>
#include <memory>
#include <utility>
#include <vector>

#include "esql/evaluator.h"

namespace eve {

Status ApplyChangeToDatabase(const CapabilityChange& change, Database* db) {
  switch (change.kind) {
    case CapabilityChange::Kind::kAddRelation: {
      if (db->HasTable(change.new_relation.name)) {
        return Status::AlreadyExists("table already exists: " +
                                     change.new_relation.name);
      }
      // Create directly from the new definition (the catalog may not have
      // been evolved yet when this is called).
      Catalog scratch;
      EVE_RETURN_IF_ERROR(scratch.AddRelation(change.new_relation));
      return db->CreateTable(scratch, change.new_relation.name);
    }
    case CapabilityChange::Kind::kDeleteRelation:
      return db->DropTable(change.relation);
    case CapabilityChange::Kind::kRenameRelation:
      return db->RenameTable(change.relation, change.new_name);
    case CapabilityChange::Kind::kAddAttribute: {
      EVE_ASSIGN_OR_RETURN(Table * table, db->GetTable(change.relation));
      return table->AddColumn(change.new_attribute);
    }
    case CapabilityChange::Kind::kDeleteAttribute: {
      EVE_ASSIGN_OR_RETURN(Table * table, db->GetTable(change.relation));
      return table->DropColumn(change.attribute);
    }
    case CapabilityChange::Kind::kRenameAttribute: {
      EVE_ASSIGN_OR_RETURN(Table * table, db->GetTable(change.relation));
      return table->RenameColumn(change.attribute, change.new_name);
    }
  }
  return Status::Internal("unexpected capability change kind");
}

const char* RefreshPathToString(RefreshPath path) {
  switch (path) {
    case RefreshPath::kFull:
      return "full";
    case RefreshPath::kReuseEqual:
      return "reuse_equal";
  }
  return "unknown";
}

void MaterializedViewStore::Record(const std::string& view_name,
                                   RefreshPath path) {
  RefreshStats& s = stats_[view_name];
  switch (path) {
    case RefreshPath::kFull:
      ++s.full;
      break;
    case RefreshPath::kReuseEqual:
      ++s.reuse_equal;
      break;
  }
  s.last_path = path;
}

RefreshStats MaterializedViewStore::StatsFor(
    const std::string& view_name) const {
  auto it = stats_.find(view_name);
  return it == stats_.end() ? RefreshStats{} : it->second;
}

RefreshStats MaterializedViewStore::AggregateStats() const {
  RefreshStats agg;
  for (const auto& [name, s] : stats_) {
    agg.full += s.full;
    agg.reuse_equal += s.reuse_equal;
  }
  return agg;
}

Status MaterializedViewStore::Refresh(const ViewDefinition& view,
                                      const Database& db,
                                      const Catalog& catalog) {
  EVE_ASSIGN_OR_RETURN(
      Table extent, EvaluateView(view, db, catalog, registry_, strategy_));
  extents_.insert_or_assign(view.name(), std::move(extent));
  Record(view.name(), RefreshPath::kFull);
  return Status::OK();
}

Result<bool> MaterializedViewStore::TryReuseEqual(
    const ViewDefinition& old_view, const ViewDefinition& new_view) {
  // The Equal verdict certifies set-equality of the extents projected on
  // the common interface; requiring the interface name SETS to match makes
  // that full-extent equality, even when select expressions were replaced
  // by function-of rewritings.
  std::vector<std::string> old_names = old_view.InterfaceNames();
  std::vector<std::string> new_names = new_view.InterfaceNames();
  {
    std::vector<std::string> a = old_names, b = new_names;
    std::sort(a.begin(), a.end());
    std::sort(b.begin(), b.end());
    if (a != b) return false;
  }
  const Table& old_extent = extents_.at(old_view.name());
  if (old_names == new_names) {
    Table copy = old_extent;  // shares column chunks; O(#columns)
    extents_.insert_or_assign(new_view.name(), std::move(copy));
    return true;
  }
  // Same name set, different order: permute column handles (still zero
  // row-level work).
  std::vector<AttributeDef> attrs;
  std::vector<std::shared_ptr<const ColumnChunk>> cols;
  attrs.reserve(new_names.size());
  cols.reserve(new_names.size());
  for (const std::string& name : new_names) {
    auto idx = old_extent.schema().IndexOf(name);
    if (!idx.has_value()) return false;  // unreachable given the set check
    attrs.push_back(old_extent.schema().attribute(*idx));
    cols.push_back(old_extent.column_handle(*idx));
  }
  EVE_ASSIGN_OR_RETURN(Schema schema, Schema::Create(std::move(attrs)));
  Table permuted = Table::FromColumns(std::move(schema), std::move(cols),
                                      old_extent.NumRows());
  extents_.insert_or_assign(new_view.name(), std::move(permuted));
  return true;
}

Status MaterializedViewStore::IncrementalRefresh(
    const ViewDefinition& old_view, const ViewDefinition& new_view,
    ExtentRelation verdict, const Database& db, const Catalog& catalog) {
  const bool renamed = old_view.name() != new_view.name();
  bool reused = false;
  if (verdict == ExtentRelation::kEqual && Has(old_view.name())) {
    EVE_ASSIGN_OR_RETURN(reused, TryReuseEqual(old_view, new_view));
  }
  if (reused) {
    Record(new_view.name(), RefreshPath::kReuseEqual);
  } else {
    EVE_RETURN_IF_ERROR(Refresh(new_view, db, catalog));  // records kFull
  }
  if (renamed) extents_.erase(old_view.name());
  return Status::OK();
}

Result<const Table*> MaterializedViewStore::Extent(
    const std::string& view_name) const {
  auto it = extents_.find(view_name);
  if (it == extents_.end()) {
    return Status::NotFound("view not materialized: " + view_name);
  }
  return &it->second;
}

}  // namespace eve
