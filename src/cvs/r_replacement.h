// R-replacement (paper Def. 3): candidate join expressions built from
// H'(MKB') that avoid R, retain the surviving part of Min(H_R), and cover
// every attribute of R the view cannot lose, via function-of constraints.

#ifndef EVE_CVS_R_REPLACEMENT_H_
#define EVE_CVS_R_REPLACEMENT_H_

#include <optional>
#include <queue>
#include <set>
#include <string>
#include <vector>

#include "common/cancellation.h"
#include "common/result.h"
#include "cvs/cost_model.h"
#include "cvs/r_mapping.h"
#include "esql/view_definition.h"
#include "hypergraph/join_graph.h"
#include "mkb/mkb.h"

namespace eve {

// One attribute substitution R.A -> f(S.B) (Def. 3 (IV)): S is the cover,
// f(S.B) the replacement.
struct AttributeReplacement {
  AttributeRef original;
  ExprPtr replacement;          // f over the cover's source attribute
  std::string cover_relation;   // S
  std::string constraint_id;    // the function-of constraint used

  std::string ToString() const {
    return original.ToString() + " -> " + replacement->ToString() + "  [" +
           constraint_id + "]";
  }
};

// One Max(V_{j,R}) candidate: the join skeleton plus the attribute
// substitutions it supports.
struct ReplacementCandidate {
  JoinTree tree;
  std::vector<AttributeReplacement> replacements;
  // Attributes of R used only in dispensable components for which no cover
  // exists in this candidate; the splice step drops those components.
  std::vector<AttributeRef> unreplaced;
  // Admissible lower bound on this candidate's final ranking cost under
  // the cost model the stream was built with (see CandidateStream; 0 for
  // the eager reference enumeration in tests/support). Candidates leave the stream in nondecreasing
  // cost_lower_bound order.
  double cost_lower_bound = 0.0;

  std::string ToString() const;
};

struct RReplacementOptions {
  // Bounds passed to the join-tree search.
  size_t max_extra_relations = 3;
  size_t max_results = 32;
  // Bound on the cartesian product of per-attribute cover choices.
  size_t max_cover_combinations = 256;
  // When true, covers of *dispensable* attributes are chased too: the
  // enumeration also proposes join trees that reach them, instead of only
  // replacing them opportunistically when a cover happens to sit in the
  // tree (paper Ex. 10). Default off — the paper's Ex. 9 enumerates
  // candidates anchored by indispensable attributes only; turn on for
  // maximal preservation (see cvs/cost_model.h and E11 in EXPERIMENTS.md).
  bool chase_optional_covers = false;
  // Optional deadline/cancellation scope for the whole enumeration: the
  // join-tree enumerators spend one unit per frontier set expanded, the
  // stream one per candidate emitted. When the token refuses, Next()
  // returns nullopt with deadline_stopped() set — the candidates already
  // yielded form a valid (partial) prefix. The null token costs nothing.
  DeadlineToken token;
};

// How each attribute of R is used by the view, derived from evolution
// parameters: attributes in indispensable components must be covered;
// attributes only in dispensable components are covered opportunistically.
struct AttributeNeeds {
  std::vector<AttributeRef> mandatory;
  std::vector<AttributeRef> optional;
};

// Classifies R's attributes in `view`. Fails with kViewDisabled when an
// indispensable, non-replaceable component references R (P4 can never be
// met by any rewriting).
Result<AttributeNeeds> ClassifyAttributeNeeds(const ViewDefinition& view,
                                              const RMapping& mapping);

// Deadline/budget accounting for one enumeration run (or, merged, for
// every view of one change). Distinct from the count bounds above: those
// cap HOW MANY results come back, this block records whether a
// DeadlineToken stopped the search and how much work it admitted first.
struct DeadlineStats {
  uint64_t work_spent = 0;   // token units consumed (expansions+emissions)
  uint64_t work_budget = 0;  // configured logical budget; 0 = unlimited
  // First limit that fired (work-budget / deadline / cancelled); kNone
  // when the run finished inside its limits.
  StopCause stop_cause = StopCause::kNone;
  // Smallest join-tree relation count the interrupted search had not yet
  // explored — the first-cut frontier bound, i.e. how deep the search was
  // when it was stopped. 0 when no tree search was interrupted.
  size_t frontier_bound = 0;
  bool partial = false;  // the result is a best-under-budget prefix

  // "; deadline: spent 12/10 units, stopped: work-budget, frontier bound
  // 4, partial" — empty when no budget was set and nothing fired.
  std::string ToString() const;
  // Deterministic aggregation in view-name order: work adds, budgets and
  // bounds take the first nonzero, the first recorded cause wins, partial
  // ORs.
  void MergeFrom(const DeadlineStats& other);
};

// Counters describing one enumeration run — how much of the candidate
// space was explored, and whether any bound cut it short. Surfaced in
// CvsResult (and, aggregated per change, by evectl) so a capped result is
// never mistaken for a complete one.
struct EnumerationStats {
  size_t combos_generated = 0;   // cover combinations materialized
  size_t combos_truncated = 0;   // combinations dropped by
                                 // max_cover_combinations
  size_t trees_expanded = 0;     // frontier sets expanded across all
                                 // join-tree enumerators
  size_t search_sets_cut = 0;    // frontier sets cut by
                                 // max_extra_relations
  size_t candidates_yielded = 0; // candidates pulled from the stream
  size_t duplicates_skipped = 0; // candidates deduped away
  size_t candidates_rejected = 0;  // legality/splice rejections (driver)
  size_t states_pending = 0;     // queue states left when the driver
                                 // stopped pulling
  bool exhausted = false;        // the stream was drained to the end
  bool terminated_early = false; // the top-k bound stopped the pull loop
  // Deadline/budget accounting; deadline.partial distinguishes a
  // best-under-budget prefix from a complete (or merely count-capped)
  // result.
  DeadlineStats deadline;

  // "combos 4 (+2 truncated), trees expanded 37, ..." one-liner.
  std::string ToString() const;
  // Aggregation across views of one change: counters add; exhausted ANDs;
  // terminated_early ORs; deadline merges per DeadlineStats::MergeFrom.
  void MergeFrom(const EnumerationStats& other);
};

// Lazy best-first enumeration of replacement candidates: the streaming
// replacement for the historical eager cartesian-product loop. Cover
// combinations are materialized eagerly (they are cheap set unions,
// bounded by max_cover_combinations), but join-tree search and candidate
// assembly run lazily, merged across combinations by a priority queue
// keyed on admissible lower bounds (cvs/cost_model.h LowerBound).
//
// Contract: Next() yields candidates in nondecreasing cost_lower_bound
// order, and cost_lower_bound never exceeds the candidate's final
// ScoreRewriting total under the same model. NextLowerBound() bounds every
// candidate not yet yielded, which is what lets a top-k driver stop
// pulling the moment NextLowerBound() >= its k-th best accepted total.
//
// The stream borrows `view`, `mapping`, `mkb` and `graph_prime`; it must
// not outlive any of them. `mkb` is the PRE-change MKB (covers of R's
// attributes only exist there); `graph_prime` is the join graph of MKB'.
class CandidateStream {
 public:
  // Fails with kViewDisabled when an indispensable, non-replaceable
  // component references R (same contract as ClassifyAttributeNeeds).
  static Result<CandidateStream> Create(const ViewDefinition& view,
                                        const RMapping& mapping,
                                        const Mkb& mkb,
                                        const JoinGraph& graph_prime,
                                        const RReplacementOptions& options,
                                        const RewritingCostModel& model);

  CandidateStream(CandidateStream&&) = default;
  CandidateStream& operator=(CandidateStream&&) = default;

  // The next candidate in nondecreasing cost_lower_bound order, or
  // nullopt when the space is exhausted.
  std::optional<ReplacementCandidate> Next();

  // Admissible lower bound on every candidate not yet yielded; +infinity
  // once exhausted.
  double NextLowerBound() const;

  bool Exhausted() const { return heap_.empty(); }
  size_t PendingStates() const { return heap_.size(); }

  // True once options.token stopped the stream: Next() returned nullopt
  // with pending states (or an interrupted enumerator) left, so the
  // candidates yielded so far are a partial prefix, not the full space.
  bool deadline_stopped() const { return deadline_stopped_; }

  const EnumerationStats& stats() const { return stats_; }

  // One diagnostic line per bound that has cut the search so far, with
  // exact dropped/pruned counts. Empty when no bound fired.
  std::vector<std::string> TruncationNotes() const;

 private:
  // One choice of cover per choice-attribute, plus the lazily created
  // enumerator over join trees connecting kept ∪ cover sources.
  struct Combo {
    std::vector<const FunctionOfConstraint*> chosen;  // null = skipped
    std::set<std::string> required;
    ExtentRelation extent_floor = ExtentRelation::kEqual;
    double base_lower_bound = 0.0;
    std::optional<JoinTreeEnumerator> enumerator;
    // Enumerator counters already folded into stats_.
    size_t seen_expanded = 0;
    size_t seen_cut = 0;
  };
  enum class StateKind { kSearch, kReady };
  struct State {
    double lower_bound = 0.0;
    uint64_t seq = 0;  // deterministic tie-break: creation order
    StateKind kind = StateKind::kSearch;
    size_t combo_index = 0;
    std::optional<ReplacementCandidate> ready;
  };
  struct StateGreater {
    bool operator()(const State& a, const State& b) const {
      if (a.lower_bound != b.lower_bound) {
        return a.lower_bound > b.lower_bound;
      }
      return a.seq > b.seq;
    }
  };

  CandidateStream() = default;

  void PushState(State state);
  // Lower bound for the combo given its enumerator's current frontier.
  double SearchLowerBound(const Combo& combo) const;
  // Lower bound on the spliced FROM size given a tree-relation lower
  // bound `tree_size` and the relations `required` of the combo.
  size_t JoinWidthLowerBound(const std::set<std::string>& required,
                             size_t tree_size) const;
  // Exact count of SELECT items the splice step will drop for
  // `replacements` (every item mentioning an attribute of R outside the
  // substitution set).
  size_t CountDroppedSelectItems(
      const std::vector<AttributeReplacement>& replacements) const;
  void FoldEnumeratorStats(Combo* combo);

  const ViewDefinition* view_ = nullptr;
  const RMapping* mapping_ = nullptr;
  const Mkb* mkb_ = nullptr;
  const JoinGraph* graph_ = nullptr;
  RReplacementOptions options_;
  RewritingCostModel model_;

  std::vector<AttributeRef> choice_attrs_;   // parallel to Combo::chosen
  std::vector<AttributeRef> optional_attrs_; // opportunistically covered
  std::set<std::string> kept_;
  std::vector<JoinConstraint> mandatory_edges_;
  std::set<std::string> from_minus_r_;  // FROM relations minus R
  size_t dropped_floor_ = 0;  // SELECT items no candidate can preserve

  std::vector<Combo> combos_;
  std::priority_queue<State, std::vector<State>, StateGreater> heap_;
  // Records a token stop: sets deadline_stopped_ and folds the
  // interrupted search's frontier bound (0 = none) into stats_.
  void MarkDeadlineStop(size_t frontier_bound);

  std::set<std::string> dedup_keys_;
  uint64_t next_seq_ = 0;
  EnumerationStats stats_;
  bool deadline_stopped_ = false;
};

}  // namespace eve

#endif  // EVE_CVS_R_REPLACEMENT_H_
