#include "support/r_replacement_oracle.h"

#include <algorithm>
#include <optional>
#include <set>
#include <string>

namespace eve {

Result<std::vector<ReplacementCandidate>> ComputeRReplacements(
    const ViewDefinition& view, const RMapping& mapping, const Mkb& mkb,
    const JoinGraph& graph_prime, const RReplacementOptions& options) {
  EVE_ASSIGN_OR_RETURN(
      CandidateStream stream,
      CandidateStream::Create(view, mapping, mkb, graph_prime, options,
                              DefaultRankingCostModel()));
  std::vector<ReplacementCandidate> results;
  while (results.size() < options.max_results) {
    std::optional<ReplacementCandidate> candidate = stream.Next();
    if (!candidate.has_value()) break;
    results.push_back(std::move(*candidate));
  }
  // Historical contract: smaller join skeletons first.
  std::stable_sort(results.begin(), results.end(),
                   [](const ReplacementCandidate& a,
                      const ReplacementCandidate& b) {
                     return a.tree.relations.size() < b.tree.relations.size();
                   });
  return results;
}

Result<std::vector<ReplacementCandidate>> ComputeRReplacementsEager(
    const ViewDefinition& view, const RMapping& mapping, const Mkb& mkb,
    const JoinGraph& graph_prime, const RReplacementOptions& options) {
  const std::string& r = mapping.relation;
  EVE_ASSIGN_OR_RETURN(const AttributeNeeds needs,
                       ClassifyAttributeNeeds(view, mapping));

  // Surviving part of Min(H_R) (Def. 3 (III)).
  std::set<std::string> kept;
  for (const std::string& rel : mapping.relations) {
    if (rel != r) kept.insert(rel);
  }
  std::vector<JoinConstraint> mandatory_edges;
  for (const JoinConstraint& edge : mapping.min_edges) {
    if (!edge.Involves(r)) mandatory_edges.push_back(edge);
  }

  // Candidate covers per attribute: one choice list per mandatory
  // attribute (choosing is compulsory), plus — under chase_optional_covers
  // — one per dispensable attribute with a "skip" (nullptr) choice so
  // dropping remains an option.
  std::vector<std::vector<const FunctionOfConstraint*>> cover_choices;
  std::vector<AttributeRef> choice_attrs;
  for (const AttributeRef& attr : needs.mandatory) {
    std::vector<const FunctionOfConstraint*> candidates;
    for (const FunctionOfConstraint* fc : mkb.CoversOf(attr)) {
      if (fc->source.relation == r) continue;
      if (!graph_prime.HasRelation(fc->source.relation)) continue;
      candidates.push_back(fc);
    }
    if (candidates.empty()) {
      // A mandatory attribute with no cover: R-replacement is empty.
      return std::vector<ReplacementCandidate>{};
    }
    cover_choices.push_back(std::move(candidates));
    choice_attrs.push_back(attr);
  }
  if (options.chase_optional_covers) {
    for (const AttributeRef& attr : needs.optional) {
      std::vector<const FunctionOfConstraint*> candidates{nullptr};
      for (const FunctionOfConstraint* fc : mkb.CoversOf(attr)) {
        if (fc->source.relation == r) continue;
        if (!graph_prime.HasRelation(fc->source.relation)) continue;
        candidates.push_back(fc);
      }
      if (candidates.size() > 1) {
        cover_choices.push_back(std::move(candidates));
        choice_attrs.push_back(attr);
      }
    }
  }

  std::vector<ReplacementCandidate> results;
  std::set<std::string> dedup_keys;

  // Iterates the (bounded) cartesian product of cover choices.
  std::vector<size_t> combo(cover_choices.size(), 0);
  size_t combos_tried = 0;
  while (true) {
    if (combos_tried++ >= options.max_cover_combinations) break;

    std::set<std::string> required = kept;
    std::vector<const FunctionOfConstraint*> chosen;
    chosen.reserve(combo.size());
    for (size_t i = 0; i < combo.size(); ++i) {
      chosen.push_back(cover_choices[i][combo[i]]);
      if (chosen.back() != nullptr) {
        required.insert(chosen.back()->source.relation);
      }
    }

    if (!required.empty()) {
      JoinTreeSearchOptions search;
      search.max_extra_relations = options.max_extra_relations;
      search.max_results = options.max_results;
      const std::vector<JoinTree> trees =
          graph_prime.FindConnectingTrees(required, mandatory_edges, search);
      for (const JoinTree& tree : trees) {
        ReplacementCandidate candidate;
        candidate.tree = tree;
        std::set<AttributeRef> replaced;
        for (size_t i = 0; i < chosen.size(); ++i) {
          if (chosen[i] == nullptr) continue;  // skipped optional cover
          candidate.replacements.push_back(
              AttributeReplacement{choice_attrs[i], chosen[i]->fn,
                                   chosen[i]->source.relation,
                                   chosen[i]->id});
          replaced.insert(choice_attrs[i]);
        }
        // Opportunistic covers for the remaining optional attributes,
        // using relations already in the tree (paper Ex. 10:
        // Age -> f(Birthday)).
        for (const AttributeRef& attr : needs.optional) {
          if (replaced.count(attr) > 0) continue;
          const FunctionOfConstraint* found = nullptr;
          for (const FunctionOfConstraint* fc : mkb.CoversOf(attr)) {
            if (fc->source.relation == r) continue;
            if (std::binary_search(tree.relations.begin(),
                                   tree.relations.end(),
                                   fc->source.relation)) {
              found = fc;
              break;
            }
          }
          if (found != nullptr) {
            candidate.replacements.push_back(AttributeReplacement{
                attr, found->fn, found->source.relation, found->id});
          } else {
            candidate.unreplaced.push_back(attr);
          }
        }
        // Dedup on (relations, substitutions).
        std::string key;
        for (const std::string& rel : candidate.tree.relations) {
          key += rel + "|";
        }
        key += "#";
        for (const AttributeReplacement& repl : candidate.replacements) {
          key += repl.original.ToString() + ">" + repl.constraint_id + "|";
        }
        if (dedup_keys.insert(key).second) {
          results.push_back(std::move(candidate));
        }
        if (results.size() >= options.max_results) return results;
      }
    }

    // Advance the combo odometer.
    size_t pos = 0;
    while (pos < combo.size()) {
      if (++combo[pos] < cover_choices[pos].size()) break;
      combo[pos] = 0;
      ++pos;
    }
    if (pos == combo.size()) break;  // odometer wrapped: done
    if (combo.empty()) break;        // no mandatory attrs: single combo
  }

  // Prefer smaller join skeletons.
  std::stable_sort(results.begin(), results.end(),
                   [](const ReplacementCandidate& a,
                      const ReplacementCandidate& b) {
                     return a.tree.relations.size() < b.tree.relations.size();
                   });
  return results;
}

}  // namespace eve
