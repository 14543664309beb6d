#include "algebra/executor.h"

#include <algorithm>
#include <set>

#include "algebra/vectorized.h"

namespace eve {

ExecutorCounters& GlobalExecutorCounters() {
  static ExecutorCounters counters;
  return counters;
}

namespace {

// Conjuncts scheduled by the earliest join position at which all their
// referenced relations are bound.
struct ScheduledConjuncts {
  // slot[i] = conjuncts evaluable once relations[0..i] are bound.
  std::vector<std::vector<ExprPtr>> slots;
};

Result<ScheduledConjuncts> Schedule(const ConjunctiveQuery& query) {
  ScheduledConjuncts out;
  out.slots.resize(query.relations.size());
  for (const ExprPtr& conjunct : query.conjuncts) {
    size_t slot = 0;
    for (const std::string& rel : conjunct->ReferencedRelations()) {
      auto it = std::find(query.relations.begin(), query.relations.end(), rel);
      if (it == query.relations.end()) {
        return Status::InvalidArgument(
            "conjunct references relation not in FROM: " + rel + " in " +
            conjunct->ToString());
      }
      slot = std::max(
          slot, static_cast<size_t>(it - query.relations.begin()));
    }
    if (out.slots.empty()) {
      return Status::InvalidArgument("query has no relations");
    }
    out.slots[slot].push_back(conjunct);
  }
  return out;
}

struct ExecContext {
  const ConjunctiveQuery* query;
  const Database* db;
  const ScheduledConjuncts* scheduled;
  const FunctionRegistry* registry;
  // Rows of each FROM relation, built from the columns once per query.
  std::vector<std::vector<Tuple>> rows;
  std::vector<const Schema*> schemas;
  Table* out;
};

Status EmitRow(const ExecContext& ctx, const RowBinding& binding) {
  Tuple tuple;
  tuple.reserve(ctx.query->projections.size());
  for (const ExprPtr& proj : ctx.query->projections) {
    EVE_ASSIGN_OR_RETURN(Value v, EvalExpr(*proj, binding, ctx.registry));
    tuple.push_back(std::move(v));
  }
  ctx.out->InsertUnchecked(std::move(tuple));
  return Status::OK();
}

Status JoinRecursive(const ExecContext& ctx, size_t depth,
                     RowBinding* binding) {
  if (depth == ctx.query->relations.size()) {
    return EmitRow(ctx, *binding);
  }
  const std::string& rel = ctx.query->relations[depth];
  const Schema& schema = *ctx.schemas[depth];
  for (const Tuple& row : ctx.rows[depth]) {
    for (size_t i = 0; i < schema.size(); ++i) {
      binding->Bind(AttributeRef{rel, schema.attribute(i).name}, row[i]);
    }
    bool pass = true;
    for (const ExprPtr& conjunct : ctx.scheduled->slots[depth]) {
      EVE_ASSIGN_OR_RETURN(const bool ok,
                           EvalPredicate(*conjunct, *binding, ctx.registry));
      if (!ok) {
        pass = false;
        break;
      }
    }
    if (pass) {
      EVE_RETURN_IF_ERROR(JoinRecursive(ctx, depth + 1, binding));
    }
  }
  // Leave bindings in place; they are overwritten by the next row and the
  // caller's own loop. (Attribute names are relation-qualified, so stale
  // entries from this depth cannot be read by shallower predicates.)
  return Status::OK();
}

}  // namespace

Result<Table> Execute(const ConjunctiveQuery& query, const Database& db,
                      const Catalog& catalog,
                      const FunctionRegistry* registry,
                      JoinStrategy strategy) {
  if (query.relations.empty()) {
    return Status::InvalidArgument("query has no relations");
  }
  if (query.projections.size() != query.output_names.size()) {
    return Status::InvalidArgument(
        "projection list and output name list differ in size");
  }
  {
    std::set<std::string> seen;
    for (const std::string& rel : query.relations) {
      if (!seen.insert(rel).second) {
        return Status::InvalidArgument(
            "relation appears more than once in FROM: " + rel);
      }
    }
  }

  // Output schema from inferred projection types.
  std::vector<AttributeDef> out_attrs;
  out_attrs.reserve(query.projections.size());
  for (size_t i = 0; i < query.projections.size(); ++i) {
    EVE_ASSIGN_OR_RETURN(const DataType t,
                         InferType(*query.projections[i], catalog));
    out_attrs.push_back(AttributeDef{query.output_names[i], t});
  }
  EVE_ASSIGN_OR_RETURN(Schema out_schema, Schema::Create(std::move(out_attrs)));
  Table out(std::move(out_schema));

  if (strategy == JoinStrategy::kVectorized) {
    GlobalExecutorCounters().vectorized_queries.fetch_add(
        1, std::memory_order_relaxed);
    return ExecuteVectorized(query, db, catalog, registry, std::move(out));
  }
  GlobalExecutorCounters().nested_loop_queries.fetch_add(
      1, std::memory_order_relaxed);

  EVE_ASSIGN_OR_RETURN(const ScheduledConjuncts scheduled, Schedule(query));

  ExecContext ctx;
  ctx.query = &query;
  ctx.db = &db;
  ctx.scheduled = &scheduled;
  ctx.registry = registry;
  ctx.out = &out;
  for (const std::string& rel : query.relations) {
    EVE_ASSIGN_OR_RETURN(const Table* table, db.GetTable(rel));
    EVE_ASSIGN_OR_RETURN(const RelationDef* def, catalog.GetRelation(rel));
    std::vector<Tuple>& rows = ctx.rows.emplace_back();
    rows.reserve(table->NumRows());
    for (size_t r = 0; r < table->NumRows(); ++r) {
      rows.push_back(table->Row(r));
    }
    ctx.schemas.push_back(&def->schema);
  }

  RowBinding binding;
  EVE_RETURN_IF_ERROR(JoinRecursive(ctx, 0, &binding));

  if (query.distinct) out.Deduplicate();
  return out;
}

}  // namespace eve
