#include "cvs/cvs.h"

#include <algorithm>
#include <limits>
#include <map>
#include <set>
#include <sstream>

#include "cvs/extent.h"
#include "cvs/rewriting.h"
#include "hypergraph/join_graph.h"

namespace eve {

std::string SynchronizedView::ToString() const {
  std::ostringstream os;
  os << (is_drop ? "[drop-based]" : "[replacement-based]") << " "
     << legality.ToString() << "\n";
  if (!is_drop) os << candidate.ToString() << "\n";
  os << view.ToString();
  return os.str();
}

const JoinGraph& SyncContext::graph_prime() const {
  std::call_once(graph_once_, [this] {
    graph_prime_.emplace(JoinGraph::Build(*mkb_prime_));
  });
  return *graph_prime_;
}

Result<CvsResult> SynchronizeDeleteRelation(const ViewDefinition& view,
                                            const std::string& relation,
                                            const SyncContext& context,
                                            const CvsOptions& options) {
  CvsResult result;
  if (!view.HasFromRelation(relation)) {
    // Unaffected view: CVS is a no-op (the caller detects affectedness;
    // returning the view unchanged keeps the API composable).
    SynchronizedView unchanged;
    unchanged.view = view;
    unchanged.legality.p1_unaffected = true;
    unchanged.legality.p2_evaluable = true;
    unchanged.legality.p3_extent = true;
    unchanged.legality.p4_parameters = true;
    unchanged.legality.inferred_extent = ExtentRelation::kEqual;
    result.rewritings.push_back(std::move(unchanged));
    return result;
  }

  const CapabilityChange change = CapabilityChange::DeleteRelation(relation);
  const Mkb& mkb = context.mkb();
  const Mkb& mkb_prime = context.mkb_prime();

  // Step 1: H_R(MKB) — we work on the relation-level join graph of MKB'
  // (H'_R is its restriction to R's former component), built once per
  // change and shared by every affected view.
  const JoinGraph& graph_prime = context.graph_prime();

  // Step 2: R-mapping (Def. 2).
  EVE_ASSIGN_OR_RETURN(const RMapping mapping,
                       ComputeRMapping(view, relation, mkb));

  // One ranking path: the explicit cost model or the built-in default
  // encoding the historical lexicographic order.
  const RewritingCostModel model =
      options.cost_model.has_value() ? *options.cost_model
                                     : DefaultRankingCostModel();

  // Step 3: R-replacement (Def. 3), as a lazy best-first stream.
  std::optional<CandidateStream> stream;
  {
    Result<CandidateStream> stream_or = CandidateStream::Create(
        view, mapping, mkb, graph_prime, options.replacement, model);
    if (stream_or.ok()) {
      stream.emplace(stream_or.MoveValue());
    } else {
      result.diagnostics.push_back(stream_or.status().ToString());
    }
  }

  // Relation evolution parameters gate the replacement path (P4).
  EvolutionParams r_params{false, true};
  for (const ViewRelation& rel : view.from()) {
    if (rel.name == relation) r_params = rel.params;
  }

  int name_counter = 0;
  auto next_name = [&]() {
    ++name_counter;
    std::string name = view.name() + options.rename_suffix;
    if (name_counter > 1) name += std::to_string(name_counter);
    return name;
  };

  // Accepted rewritings in arrival order with their ranking totals; the
  // drop-based rewriting (when legal) is appended last, as before.
  std::vector<SynchronizedView> accepted;
  std::multiset<double> accepted_totals;
  const double kInf = std::numeric_limits<double>::infinity();
  // The total the next candidate must beat once top_k rewritings are in
  // hand. A candidate tying the k-th best cannot displace it (ties keep
  // the earlier arrival), so >= is the correct stopping comparison.
  auto kth_best = [&]() -> double {
    if (options.top_k == 0 || accepted_totals.size() < options.top_k) {
      return kInf;
    }
    auto it = accepted_totals.begin();
    std::advance(it, options.top_k - 1);
    return *it;
  };

  // Probe the drop-based rewriting up front: its cost participates in the
  // top-k bound, letting the pull loop stop before exploring candidates
  // that cannot beat it. The real drop rewriting (with its proper name)
  // is built after the loop to keep the historical result order.
  bool drop_seeded = false;
  if (options.include_drop_rewriting && r_params.dispensable) {
    Result<ViewDefinition> probe =
        DropRelationRewriting(view, relation, view.name());
    if (probe.ok()) {
      const LegalityReport legality =
          CheckLegality(view, probe.value(), change, mkb_prime,
                        ExtentRelation::kSuperset, {});
      if (legality.legal() || !options.require_view_extent) {
        accepted_totals.insert(
            ScoreRewriting(view, probe.value(), legality.inferred_extent,
                           model)
                .total);
        drop_seeded = true;
      }
    }
  }

  // Effective pull cap: the historical max_results plus the per-sync
  // candidate budget; whichever is tighter.
  size_t pull_cap = options.replacement.max_results;
  const char* cap_name = "max_results";
  if (options.candidate_budget > 0 &&
      (pull_cap == 0 || options.candidate_budget < pull_cap)) {
    pull_cap = options.candidate_budget;
    cap_name = "candidate_budget";
  }

  // Steps 4-6, pull-driven: splice/legality-check candidates strictly in
  // lower-bound order, stopping as soon as the stream provably cannot
  // improve the top-k.
  size_t pulled = 0;
  if (stream.has_value()) {
    const size_t probe_limit = r_params.replaceable ? pull_cap : 1;
    while (true) {
      const double bound = kth_best();
      if (bound < kInf && stream->NextLowerBound() >= bound) {
        if (!stream->Exhausted()) {
          result.enumeration.terminated_early = true;
          std::ostringstream note;
          note << "top-k early termination: next candidate lower bound "
               << stream->NextLowerBound() << " >= k-th best cost " << bound
               << " with " << stream->PendingStates()
               << " queue states unexplored";
          result.diagnostics.push_back(note.str());
        }
        break;
      }
      if (probe_limit > 0 && pulled >= probe_limit) {
        if (!stream->Exhausted() && r_params.replaceable) {
          result.diagnostics.push_back(
              std::string(cap_name) + "=" + std::to_string(pull_cap) +
              " stopped the enumeration after " + std::to_string(pulled) +
              " candidates with " + std::to_string(stream->PendingStates()) +
              " queue states unexplored; the result may be incomplete");
        }
        break;
      }
      std::optional<ReplacementCandidate> candidate_or = stream->Next();
      if (!candidate_or.has_value()) break;
      ++pulled;
      if (!r_params.replaceable) continue;  // emptiness probe only
      const ReplacementCandidate candidate = std::move(*candidate_or);

      Result<ViewDefinition> spliced =
          SpliceRewriting(view, mapping, candidate, next_name());
      if (!spliced.ok()) {
        result.diagnostics.push_back("candidate rejected: " +
                                     spliced.status().ToString());
        ++result.enumeration.candidates_rejected;
        continue;
      }
      // One local copy, moved into the result below (the definition used
      // to be copied three times per candidate).
      ViewDefinition spliced_view = spliced.MoveValue();
      std::map<AttributeRef, ExprPtr> substitution;
      for (const AttributeReplacement& repl : candidate.replacements) {
        substitution.emplace(repl.original, repl.replacement);
      }
      const ExtentRelation extent =
          InferExtentRelation(view, spliced_view, mapping, candidate, mkb);
      SynchronizedView synced;
      synced.mapping = mapping;
      synced.candidate = candidate;
      synced.legality = CheckLegality(view, spliced_view, change, mkb_prime,
                                      extent, substitution);
      synced.cost = ScoreRewriting(view, spliced_view, extent, model);
      synced.view = std::move(spliced_view);
      if (!synced.legality.legal()) {
        if (options.require_view_extent || !synced.legality.p1_unaffected ||
            !synced.legality.p2_evaluable ||
            !synced.legality.p4_parameters) {
          result.diagnostics.push_back("candidate rejected: " +
                                       synced.legality.ToString());
          ++result.enumeration.candidates_rejected;
          continue;
        }
      }
      accepted_totals.insert(synced.cost.total);
      accepted.push_back(std::move(synced));
    }
  }
  if (!r_params.replaceable) {
    result.diagnostics.push_back("relation " + relation +
                                 " is non-replaceable (RR=false); "
                                 "replacement path skipped");
  }
  if (stream.has_value() && stream->stats().candidates_yielded == 0 &&
      stream->Exhausted()) {
    result.diagnostics.push_back(
        "R-replacement(" + view.name() + ", H'_" + relation +
        "(MKB')) is empty: no join chain in MKB' covers the required "
        "attributes");
  }

  // Drop-based rewriting for a dispensable relation.
  if (options.include_drop_rewriting && r_params.dispensable) {
    Result<ViewDefinition> dropped =
        DropRelationRewriting(view, relation, next_name());
    if (dropped.ok()) {
      ViewDefinition dropped_view = dropped.MoveValue();
      SynchronizedView synced;
      synced.mapping = mapping;
      synced.is_drop = true;
      // Dropping a relation (and only dispensable components with it)
      // projects away columns and removes join filters: on the common
      // interface the new extent contains the old one.
      synced.legality = CheckLegality(view, dropped_view, change, mkb_prime,
                                      ExtentRelation::kSuperset, {});
      synced.cost = ScoreRewriting(view, dropped_view,
                                   synced.legality.inferred_extent, model);
      synced.view = std::move(dropped_view);
      if (synced.legality.legal() || !options.require_view_extent) {
        accepted.push_back(std::move(synced));
      } else {
        result.diagnostics.push_back("drop-based rewriting rejected: " +
                                     synced.legality.ToString());
        if (drop_seeded) {
          // The probe admitted a rewriting the full check rejected; its
          // total is no longer attainable. (CheckLegality is
          // deterministic, so this cannot happen — kept for safety.)
          accepted_totals.erase(accepted_totals.begin());
        }
      }
    } else {
      result.diagnostics.push_back("drop-based rewriting not possible: " +
                                   dropped.status().ToString());
    }
  }

  // Final ranking: lowest total first; ties keep arrival order
  // (replacement candidates in stream order, then the drop rewriting).
  std::stable_sort(accepted.begin(), accepted.end(),
                   [](const SynchronizedView& a, const SynchronizedView& b) {
                     return a.cost.total < b.cost.total;
                   });
  if (options.top_k > 0 && accepted.size() > options.top_k) {
    result.diagnostics.push_back(
        "ranked " + std::to_string(accepted.size()) +
        " legal rewritings; returning the top " +
        std::to_string(options.top_k));
    accepted.resize(options.top_k);
  }
  result.rewritings = std::move(accepted);

  if (stream.has_value()) {
    EnumerationStats stats = stream->stats();
    stats.candidates_rejected = result.enumeration.candidates_rejected;
    stats.terminated_early = result.enumeration.terminated_early;
    stats.states_pending = stream->PendingStates();
    stats.exhausted = stream->Exhausted();
    result.enumeration = stats;
    for (std::string& note : stream->TruncationNotes()) {
      result.diagnostics.push_back(std::move(note));
    }
  }
  // Fold the token's accounting in after the stream stats (which carry
  // partial/frontier_bound from the stop itself). The rewritings list is
  // a valid best-first prefix either way; `partial` tells the caller it
  // is a prefix, not the full space.
  const DeadlineToken& token = options.replacement.token;
  if (token.valid()) {
    result.enumeration.deadline.work_spent = token.work_spent();
    result.enumeration.deadline.work_budget = token.work_budget();
    result.enumeration.deadline.stop_cause = token.cause();
    if (result.enumeration.deadline.partial) {
      result.diagnostics.push_back(
          "deadline stopped the enumeration (" +
          std::string(StopCauseToString(token.cause())) + " after " +
          std::to_string(token.work_spent()) +
          " work units); returning the best-under-budget prefix");
    }
  }
  return result;
}

ViewDefinition ApplyRenameToView(const ViewDefinition& view,
                                 const CapabilityChange& change) {
  auto rename_ref = [&](const AttributeRef& ref) -> AttributeRef {
    if (change.kind == CapabilityChange::Kind::kRenameRelation &&
        ref.relation == change.relation) {
      return AttributeRef{change.new_name, ref.attribute};
    }
    if (change.kind == CapabilityChange::Kind::kRenameAttribute &&
        ref.relation == change.relation && ref.attribute == change.attribute) {
      return AttributeRef{ref.relation, change.new_name};
    }
    return ref;
  };
  std::vector<ViewSelectItem> select;
  for (const ViewSelectItem& item : view.select()) {
    select.push_back(ViewSelectItem{item.expr->TransformColumns(rename_ref),
                                    item.output_name, item.params});
  }
  std::vector<ViewRelation> from;
  for (const ViewRelation& rel : view.from()) {
    std::string name = rel.name;
    if (change.kind == CapabilityChange::Kind::kRenameRelation &&
        name == change.relation) {
      name = change.new_name;
    }
    from.push_back(ViewRelation{std::move(name), rel.params});
  }
  std::vector<ViewCondition> where;
  for (const ViewCondition& cond : view.where()) {
    where.push_back(ViewCondition{cond.clause->TransformColumns(rename_ref),
                                  cond.params});
  }
  return ViewDefinition(view.name(), view.extent(), std::move(select),
                        std::move(from), std::move(where));
}

Result<CvsResult> Synchronize(const ViewDefinition& view,
                              const CapabilityChange& change,
                              const SyncContext& context,
                              const CvsOptions& options) {
  switch (change.kind) {
    case CapabilityChange::Kind::kAddRelation:
    case CapabilityChange::Kind::kAddAttribute: {
      CvsResult result;
      SynchronizedView unchanged;
      unchanged.view = view;
      unchanged.legality.p1_unaffected = true;
      unchanged.legality.p2_evaluable = true;
      unchanged.legality.p3_extent = true;
      unchanged.legality.p4_parameters = true;
      unchanged.legality.inferred_extent = ExtentRelation::kEqual;
      result.rewritings.push_back(std::move(unchanged));
      return result;
    }
    case CapabilityChange::Kind::kRenameRelation:
    case CapabilityChange::Kind::kRenameAttribute: {
      CvsResult result;
      SynchronizedView renamed;
      renamed.view = ApplyRenameToView(view, change);
      renamed.legality.p1_unaffected = true;
      renamed.legality.p2_evaluable = true;
      renamed.legality.p3_extent = true;
      renamed.legality.p4_parameters = true;
      renamed.legality.inferred_extent = ExtentRelation::kEqual;
      result.rewritings.push_back(std::move(renamed));
      return result;
    }
    case CapabilityChange::Kind::kDeleteRelation:
      return SynchronizeDeleteRelation(view, change.relation, context,
                                       options);
    case CapabilityChange::Kind::kDeleteAttribute:
      return SynchronizeDeleteAttribute(view, change.relation,
                                        change.attribute, context, options);
  }
  return Status::Internal("unexpected capability change kind");
}

}  // namespace eve
