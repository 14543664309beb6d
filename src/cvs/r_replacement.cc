#include "cvs/r_replacement.h"

#include <algorithm>
#include <limits>
#include <set>
#include <sstream>

#include "cvs/extent.h"

namespace eve {

namespace {

void AddUnique(std::vector<AttributeRef>* refs, const AttributeRef& ref) {
  if (std::find(refs->begin(), refs->end(), ref) == refs->end()) {
    refs->push_back(ref);
  }
}

// Attributes of `relation` appearing in `expr`.
std::vector<AttributeRef> AttrsOfRelation(const Expr& expr,
                                          const std::string& relation) {
  std::vector<AttributeRef> cols;
  expr.CollectColumns(&cols);
  std::vector<AttributeRef> out;
  for (const AttributeRef& ref : cols) {
    if (ref.relation == relation) AddUnique(&out, ref);
  }
  return out;
}

}  // namespace

std::string ReplacementCandidate::ToString() const {
  std::ostringstream os;
  os << "candidate: " << tree.ToString();
  for (const AttributeReplacement& repl : replacements) {
    os << "\n  " << repl.ToString();
  }
  for (const AttributeRef& ref : unreplaced) {
    os << "\n  " << ref.ToString() << " -> (dropped)";
  }
  return os.str();
}

Result<AttributeNeeds> ClassifyAttributeNeeds(const ViewDefinition& view,
                                              const RMapping& mapping) {
  const std::string& r = mapping.relation;
  AttributeNeeds needs;

  for (const ViewSelectItem& item : view.select()) {
    const std::vector<AttributeRef> attrs = AttrsOfRelation(*item.expr, r);
    if (attrs.empty()) continue;
    if (!item.params.dispensable && !item.params.replaceable) {
      return Status::ViewDisabled(
          "view " + view.name() + ": SELECT item '" + item.output_name +
          "' is indispensable and non-replaceable but references " + r);
    }
    for (const AttributeRef& ref : attrs) {
      if (!item.params.dispensable) {
        AddUnique(&needs.mandatory, ref);
      } else if (item.params.replaceable) {
        AddUnique(&needs.optional, ref);
      }
      // Dispensable + non-replaceable: the component is simply dropped.
    }
  }

  // Conditions consumed by Min(H_R) become join edges of the replacement
  // and need no covers; all other conditions referencing R do.
  std::set<size_t> consumed(mapping.consumed_conditions.begin(),
                            mapping.consumed_conditions.end());
  for (size_t i = 0; i < view.where().size(); ++i) {
    if (consumed.count(i) > 0) continue;
    const ViewCondition& cond = view.where()[i];
    const std::vector<AttributeRef> attrs = AttrsOfRelation(*cond.clause, r);
    if (attrs.empty()) continue;
    if (!cond.params.dispensable && !cond.params.replaceable) {
      return Status::ViewDisabled(
          "view " + view.name() + ": condition '" + cond.clause->ToString() +
          "' is indispensable and non-replaceable but references " + r);
    }
    for (const AttributeRef& ref : attrs) {
      if (!cond.params.dispensable) {
        AddUnique(&needs.mandatory, ref);
      } else if (cond.params.replaceable) {
        AddUnique(&needs.optional, ref);
      }
    }
  }

  // An attribute needed mandatorily anywhere is not optional.
  std::erase_if(needs.optional, [&](const AttributeRef& ref) {
    return std::find(needs.mandatory.begin(), needs.mandatory.end(), ref) !=
           needs.mandatory.end();
  });
  return needs;
}

std::string DeadlineStats::ToString() const {
  if (work_budget == 0 && stop_cause == StopCause::kNone && !partial) {
    return "";
  }
  std::ostringstream os;
  os << "deadline: spent " << work_spent;
  if (work_budget > 0) os << "/" << work_budget;
  os << " units";
  if (stop_cause != StopCause::kNone) {
    os << ", stopped: " << StopCauseToString(stop_cause);
  }
  if (frontier_bound > 0) os << ", frontier bound " << frontier_bound;
  if (partial) os << ", partial";
  return os.str();
}

void DeadlineStats::MergeFrom(const DeadlineStats& other) {
  work_spent += other.work_spent;
  if (work_budget == 0) work_budget = other.work_budget;
  if (stop_cause == StopCause::kNone) stop_cause = other.stop_cause;
  if (frontier_bound == 0) frontier_bound = other.frontier_bound;
  partial = partial || other.partial;
}

std::string EnumerationStats::ToString() const {
  std::ostringstream os;
  os << "combos " << combos_generated;
  if (combos_truncated > 0) os << " (+" << combos_truncated << " truncated)";
  os << ", trees expanded " << trees_expanded;
  if (search_sets_cut > 0) os << " (" << search_sets_cut << " sets cut)";
  os << ", yielded " << candidates_yielded;
  if (duplicates_skipped > 0) os << ", dups " << duplicates_skipped;
  if (candidates_rejected > 0) os << ", rejected " << candidates_rejected;
  if (states_pending > 0) os << ", pending " << states_pending;
  os << (terminated_early ? ", terminated early"
                          : (exhausted ? ", exhausted" : ""));
  const std::string deadline_text = deadline.ToString();
  if (!deadline_text.empty()) os << "; " << deadline_text;
  return os.str();
}

void EnumerationStats::MergeFrom(const EnumerationStats& other) {
  combos_generated += other.combos_generated;
  combos_truncated += other.combos_truncated;
  trees_expanded += other.trees_expanded;
  search_sets_cut += other.search_sets_cut;
  candidates_yielded += other.candidates_yielded;
  duplicates_skipped += other.duplicates_skipped;
  candidates_rejected += other.candidates_rejected;
  states_pending += other.states_pending;
  exhausted = exhausted && other.exhausted;
  terminated_early = terminated_early || other.terminated_early;
  deadline.MergeFrom(other.deadline);
}

Result<CandidateStream> CandidateStream::Create(
    const ViewDefinition& view, const RMapping& mapping, const Mkb& mkb,
    const JoinGraph& graph_prime, const RReplacementOptions& options,
    const RewritingCostModel& model) {
  const std::string& r = mapping.relation;
  EVE_ASSIGN_OR_RETURN(const AttributeNeeds needs,
                       ClassifyAttributeNeeds(view, mapping));

  CandidateStream stream;
  stream.view_ = &view;
  stream.mapping_ = &mapping;
  stream.mkb_ = &mkb;
  stream.graph_ = &graph_prime;
  stream.options_ = options;
  stream.model_ = model;
  stream.optional_attrs_ = needs.optional;

  // Surviving part of Min(H_R) (Def. 3 (III)).
  for (const std::string& rel : mapping.relations) {
    if (rel != r) stream.kept_.insert(rel);
  }
  for (const JoinConstraint& edge : mapping.min_edges) {
    if (!edge.Involves(r)) stream.mandatory_edges_.push_back(edge);
  }
  for (const ViewRelation& rel : view.from()) {
    if (rel.name != r) stream.from_minus_r_.insert(rel.name);
  }

  // Candidate covers per attribute, exactly as in the eager reference
  // enumeration (tests/support/r_replacement_oracle.cc):
  // one choice list per mandatory attribute, plus — under
  // chase_optional_covers — one per dispensable attribute with a "skip"
  // (nullptr) choice.
  std::vector<std::vector<const FunctionOfConstraint*>> cover_choices;
  for (const AttributeRef& attr : needs.mandatory) {
    std::vector<const FunctionOfConstraint*> candidates;
    for (const FunctionOfConstraint* fc : mkb.CoversOf(attr)) {
      if (fc->source.relation == r) continue;
      if (!graph_prime.HasRelation(fc->source.relation)) continue;
      candidates.push_back(fc);
    }
    if (candidates.empty()) {
      // A mandatory attribute with no cover: R-replacement is empty. The
      // stream is born exhausted.
      return stream;
    }
    cover_choices.push_back(std::move(candidates));
    stream.choice_attrs_.push_back(attr);
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
        stream.choice_attrs_.push_back(attr);
      }
    }
  }

  // SELECT items no candidate can preserve: those mentioning an attribute
  // of R that is neither mandatory (always substituted) nor an optional
  // attribute with at least one surviving cover. Admissible floor on
  // dropped_attributes for every candidate.
  std::set<AttributeRef> coverable(needs.mandatory.begin(),
                                   needs.mandatory.end());
  for (const AttributeRef& attr : needs.optional) {
    for (const FunctionOfConstraint* fc : mkb.CoversOf(attr)) {
      if (fc->source.relation == r) continue;
      if (!graph_prime.HasRelation(fc->source.relation)) continue;
      coverable.insert(attr);
      break;
    }
  }
  for (const ViewSelectItem& item : view.select()) {
    const std::vector<AttributeRef> attrs = AttrsOfRelation(*item.expr, r);
    if (attrs.empty()) continue;
    const bool preservable =
        std::all_of(attrs.begin(), attrs.end(), [&](const AttributeRef& a) {
          return coverable.count(a) > 0;
        });
    if (!preservable) ++stream.dropped_floor_;
  }

  // Materialize the (bounded) cartesian product of cover choices. This is
  // the one part kept eager: a combo is a few set unions, and the
  // per-combo lower bound is NOT monotone along coordinate-increment
  // edges (switching covers can shrink the required set or strengthen the
  // extent floor), so a lattice-lazy enumeration would be unsound.
  size_t total_combos = 1;
  for (const auto& choices : cover_choices) {
    if (total_combos >
        std::numeric_limits<size_t>::max() / choices.size()) {
      total_combos = std::numeric_limits<size_t>::max();
      break;
    }
    total_combos *= choices.size();
  }
  std::vector<size_t> combo(cover_choices.size(), 0);
  while (stream.combos_.size() < options.max_cover_combinations) {
    Combo c;
    c.required = stream.kept_;
    c.chosen.reserve(combo.size());
    for (size_t i = 0; i < combo.size(); ++i) {
      c.chosen.push_back(cover_choices[i][combo[i]]);
      if (c.chosen.back() != nullptr) {
        c.required.insert(c.chosen.back()->source.relation);
      }
    }
    if (!c.required.empty()) {
      // Extent floor of the chosen covers alone: every later contribution
      // (opportunistic covers, Steiner relations) only moves the combined
      // extent up the lattice.
      ReplacementCandidate floor_probe;
      for (size_t i = 0; i < c.chosen.size(); ++i) {
        if (c.chosen[i] == nullptr) continue;
        floor_probe.replacements.push_back(AttributeReplacement{
            stream.choice_attrs_[i], c.chosen[i]->fn,
            c.chosen[i]->source.relation, c.chosen[i]->id});
      }
      c.extent_floor = CandidateExtentFloor(mapping, floor_probe, mkb);
      PartialCandidate partial;
      partial.original_from_size = view.from().size();
      partial.join_width =
          stream.JoinWidthLowerBound(c.required, c.required.size());
      partial.dropped_attributes = stream.dropped_floor_;
      partial.extent_floor = c.extent_floor;
      c.base_lower_bound = LowerBound(partial, model);

      const size_t index = stream.combos_.size();
      stream.combos_.push_back(std::move(c));
      State state;
      state.lower_bound = stream.combos_[index].base_lower_bound;
      state.kind = StateKind::kSearch;
      state.combo_index = index;
      stream.PushState(std::move(state));
    }

    // Advance the odometer.
    size_t pos = 0;
    while (pos < combo.size()) {
      if (++combo[pos] < cover_choices[pos].size()) break;
      combo[pos] = 0;
      ++pos;
    }
    if (pos == combo.size()) break;  // odometer wrapped: done
    if (combo.empty()) break;        // no choice lists: single combo
  }
  stream.stats_.combos_generated = stream.combos_.size();
  if (total_combos > options.max_cover_combinations) {
    stream.stats_.combos_truncated =
        total_combos - options.max_cover_combinations;
  }
  return stream;
}

void CandidateStream::PushState(State state) {
  state.seq = next_seq_++;
  heap_.push(std::move(state));
}

size_t CandidateStream::JoinWidthLowerBound(
    const std::set<std::string>& required, size_t tree_size) const {
  // Spliced FROM = (view FROM minus R) plus the tree relations not
  // already present. The tree spans `required` and has >= tree_size
  // relations, so it brings in at least
  // max(|required \ FROM|, tree_size - |FROM|) new ones.
  size_t outside_from = 0;
  for (const std::string& rel : required) {
    if (from_minus_r_.count(rel) == 0) ++outside_from;
  }
  if (tree_size > from_minus_r_.size()) {
    outside_from =
        std::max(outside_from, tree_size - from_minus_r_.size());
  }
  return from_minus_r_.size() + outside_from;
}

size_t CandidateStream::CountDroppedSelectItems(
    const std::vector<AttributeReplacement>& replacements) const {
  std::set<AttributeRef> replaced;
  for (const AttributeReplacement& repl : replacements) {
    replaced.insert(repl.original);
  }
  size_t dropped = 0;
  for (const ViewSelectItem& item : view_->select()) {
    const std::vector<AttributeRef> attrs =
        AttrsOfRelation(*item.expr, mapping_->relation);
    if (attrs.empty()) continue;
    const bool substitutable =
        std::all_of(attrs.begin(), attrs.end(), [&](const AttributeRef& a) {
          return replaced.count(a) > 0;
        });
    if (!substitutable) ++dropped;
  }
  return dropped;
}

void CandidateStream::FoldEnumeratorStats(Combo* combo) {
  const size_t expanded = combo->enumerator->sets_expanded();
  const size_t cut = combo->enumerator->sets_cut();
  stats_.trees_expanded += expanded - combo->seen_expanded;
  stats_.search_sets_cut += cut - combo->seen_cut;
  combo->seen_expanded = expanded;
  combo->seen_cut = cut;
}

double CandidateStream::SearchLowerBound(const Combo& combo) const {
  PartialCandidate partial;
  partial.original_from_size = view_->from().size();
  partial.join_width = JoinWidthLowerBound(
      combo.required, combo.enumerator->NextTreeSizeLowerBound());
  partial.dropped_attributes = dropped_floor_;
  partial.extent_floor = combo.extent_floor;
  return std::max(LowerBound(partial, model_), combo.base_lower_bound);
}

std::optional<ReplacementCandidate> CandidateStream::Next() {
  const std::string& r = mapping_->relation;
  if (deadline_stopped_) return std::nullopt;
  while (!heap_.empty()) {
    // Safe point: a token expired elsewhere (wall clock, a sibling's
    // spending, an explicit Cancel) stops the stream before more work.
    if (options_.token.Expired()) {
      MarkDeadlineStop(0);
      return std::nullopt;
    }
    State top = heap_.top();
    heap_.pop();
    if (top.kind == StateKind::kReady) {
      // Emitting a candidate is one unit of logical work. A refused emit
      // pushes the state back so the stream stays coherent.
      if (!options_.token.Spend(1)) {
        PushState(std::move(top));
        MarkDeadlineStop(0);
        return std::nullopt;
      }
      ++stats_.candidates_yielded;
      return std::move(top.ready);
    }
    Combo& combo = combos_[top.combo_index];
    if (!combo.enumerator.has_value()) {
      JoinTreeSearchOptions search;
      search.max_extra_relations = options_.max_extra_relations;
      search.token = options_.token;
      combo.enumerator.emplace(*graph_, combo.required, mandatory_edges_,
                               search);
      if (combo.enumerator->Exhausted()) continue;  // unreachable combo
    }
    // Lazy key update: the frontier may have grown past this state's
    // recorded bound while other combos were being explored.
    const double fresh = SearchLowerBound(combo);
    if (fresh > top.lower_bound) {
      top.lower_bound = fresh;
      PushState(std::move(top));
      continue;
    }
    std::optional<JoinTree> tree = combo.enumerator->Next();
    FoldEnumeratorStats(&combo);
    if (!tree.has_value()) {
      // A token stop inside the enumerator must not read as combo
      // exhaustion: record the frontier bound where the search was cut
      // and stop the whole stream (the token is shared).
      if (combo.enumerator->interrupted()) {
        State search_state;
        search_state.lower_bound = top.lower_bound;
        search_state.kind = StateKind::kSearch;
        search_state.combo_index = top.combo_index;
        PushState(std::move(search_state));
        MarkDeadlineStop(combo.enumerator->NextTreeSizeLowerBound());
        return std::nullopt;
      }
      continue;  // combo exhausted
    }
    if (!combo.enumerator->Exhausted()) {
      State search_state;
      search_state.lower_bound = SearchLowerBound(combo);
      search_state.kind = StateKind::kSearch;
      search_state.combo_index = top.combo_index;
      PushState(std::move(search_state));
    }

    // Assemble the candidate exactly as the eager enumeration does.
    ReplacementCandidate candidate;
    candidate.tree = std::move(*tree);
    std::set<AttributeRef> replaced;
    for (size_t i = 0; i < combo.chosen.size(); ++i) {
      if (combo.chosen[i] == nullptr) continue;  // skipped optional cover
      candidate.replacements.push_back(
          AttributeReplacement{choice_attrs_[i], combo.chosen[i]->fn,
                               combo.chosen[i]->source.relation,
                               combo.chosen[i]->id});
      replaced.insert(choice_attrs_[i]);
    }
    // Opportunistic covers for the remaining optional attributes, using
    // relations already in the tree (paper Ex. 10: Age -> f(Birthday)).
    for (const AttributeRef& attr : optional_attrs_) {
      if (replaced.count(attr) > 0) continue;
      const FunctionOfConstraint* found = nullptr;
      for (const FunctionOfConstraint* fc : mkb_->CoversOf(attr)) {
        if (fc->source.relation == r) continue;
        if (std::binary_search(candidate.tree.relations.begin(),
                               candidate.tree.relations.end(),
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
    // Dedup on (relations, substitutions) — same key as the eager path.
    std::string key;
    for (const std::string& rel : candidate.tree.relations) {
      key += rel + "|";
    }
    key += "#";
    for (const AttributeReplacement& repl : candidate.replacements) {
      key += repl.original.ToString() + ">" + repl.constraint_id + "|";
    }
    if (!dedup_keys_.insert(key).second) {
      ++stats_.duplicates_skipped;
      continue;
    }

    // Exact componentwise bound for the finished candidate: width and
    // dropped attributes are now known, the extent floor includes Steiner
    // relations. Clamped to the popped bound so emission stays monotone.
    size_t new_relations = 0;
    for (const std::string& rel : candidate.tree.relations) {
      if (from_minus_r_.count(rel) == 0) ++new_relations;
    }
    PartialCandidate partial;
    partial.original_from_size = view_->from().size();
    partial.join_width = from_minus_r_.size() + new_relations;
    partial.dropped_attributes =
        CountDroppedSelectItems(candidate.replacements);
    partial.extent_floor = CandidateExtentFloor(*mapping_, candidate, *mkb_);
    candidate.cost_lower_bound =
        std::max(LowerBound(partial, model_), top.lower_bound);

    State ready;
    ready.lower_bound = candidate.cost_lower_bound;
    ready.kind = StateKind::kReady;
    ready.combo_index = top.combo_index;
    ready.ready = std::move(candidate);
    PushState(std::move(ready));
  }
  stats_.exhausted = true;
  return std::nullopt;
}

void CandidateStream::MarkDeadlineStop(size_t frontier_bound) {
  deadline_stopped_ = true;
  stats_.deadline.partial = true;
  if (stats_.deadline.frontier_bound == 0) {
    stats_.deadline.frontier_bound = frontier_bound;
  }
}

double CandidateStream::NextLowerBound() const {
  if (heap_.empty()) return std::numeric_limits<double>::infinity();
  return heap_.top().lower_bound;
}

std::vector<std::string> CandidateStream::TruncationNotes() const {
  std::vector<std::string> notes;
  if (stats_.combos_truncated > 0) {
    notes.push_back(
        "cover-choice enumeration truncated: " +
        std::to_string(stats_.combos_truncated) + " of " +
        std::to_string(stats_.combos_truncated + stats_.combos_generated) +
        " combinations dropped by max_cover_combinations=" +
        std::to_string(options_.max_cover_combinations));
  }
  if (stats_.search_sets_cut > 0) {
    notes.push_back(
        "join-tree search cut " + std::to_string(stats_.search_sets_cut) +
        " frontier sets at max_extra_relations=" +
        std::to_string(options_.max_extra_relations) +
        "; the enumeration may be incomplete");
  }
  return notes;
}

}  // namespace eve
