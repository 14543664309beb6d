// Property tests for the lazy best-first candidate enumeration: the
// streaming pipeline must agree with the pre-refactor eager reference
// (same candidate set), yield in nondecreasing lower-bound order with
// admissible bounds, and a top-k run must return exactly the prefix the
// exhaustive run ranks first.

#include <gtest/gtest.h>

#include <algorithm>
#include <iomanip>
#include <random>
#include <sstream>
#include <string>
#include <vector>

#include "cvs/cvs.h"
#include "cvs/r_mapping.h"
#include "cvs/r_replacement.h"
#include "hypergraph/join_graph.h"
#include "mkb/evolution.h"
#include "support/r_replacement_oracle.h"
#include "workload/generator.h"

namespace eve {
namespace {

// Canonical identity of a candidate: the join skeleton plus the exact
// substitutions used (the same key the stream dedups on).
std::string CandidateKey(const ReplacementCandidate& candidate) {
  std::string key;
  for (const std::string& rel : candidate.tree.relations) key += rel + "|";
  key += "#";
  for (const AttributeReplacement& repl : candidate.replacements) {
    key += repl.original.ToString() + ">" + repl.constraint_id + "|";
  }
  return key;
}

std::vector<std::string> SortedKeys(
    const std::vector<ReplacementCandidate>& candidates) {
  std::vector<std::string> keys;
  keys.reserve(candidates.size());
  for (const ReplacementCandidate& candidate : candidates) {
    keys.push_back(CandidateKey(candidate));
  }
  std::sort(keys.begin(), keys.end());
  return keys;
}

// Options wide enough that nothing is truncated: both enumerations run
// the space to exhaustion.
RReplacementOptions ExhaustiveOptions() {
  RReplacementOptions options;
  options.max_results = 100000;
  options.max_cover_combinations = 100000;
  options.max_extra_relations = 4;
  return options;
}

TEST(EnumerationEquivalence, StreamMatchesEagerOnRandomMkbs) {
  size_t comparable = 0;
  for (uint64_t seed = 1; seed <= 12; ++seed) {
    RandomMkbSpec spec;
    spec.num_relations = 10;
    spec.seed = seed;
    const Mkb mkb = MakeRandomMkb(spec).value();
    std::mt19937_64 rng(seed);
    const Result<ViewDefinition> view_or =
        MakeRandomConnectedView(mkb, &rng, 3);
    if (!view_or.ok()) continue;
    const ViewDefinition& view = view_or.value();
    const std::string victim = view.from().front().name;

    const Result<RMapping> mapping_or = ComputeRMapping(view, victim, mkb);
    if (!mapping_or.ok()) continue;
    const Result<MkbEvolutionReport> evolution =
        EvolveMkb(mkb, CapabilityChange::DeleteRelation(victim));
    if (!evolution.ok()) continue;
    const JoinGraph graph_prime = JoinGraph::Build(evolution.value().mkb);

    const RReplacementOptions options = ExhaustiveOptions();
    const Result<std::vector<ReplacementCandidate>> eager =
        ComputeRReplacementsEager(view, mapping_or.value(), mkb, graph_prime,
                                  options);
    const Result<std::vector<ReplacementCandidate>> lazy =
        ComputeRReplacements(view, mapping_or.value(), mkb, graph_prime,
                             options);
    ASSERT_EQ(eager.ok(), lazy.ok()) << "seed " << seed;
    if (!eager.ok()) continue;
    EXPECT_EQ(SortedKeys(eager.value()), SortedKeys(lazy.value()))
        << "seed " << seed;
    if (!eager.value().empty()) ++comparable;
  }
  // The sweep must actually exercise non-trivial candidate spaces.
  EXPECT_GE(comparable, 4u);
}

TEST(EnumerationEquivalence, StreamYieldsInNondecreasingBoundOrder) {
  for (uint64_t seed = 1; seed <= 12; ++seed) {
    RandomMkbSpec spec;
    spec.num_relations = 10;
    spec.seed = seed;
    const Mkb mkb = MakeRandomMkb(spec).value();
    std::mt19937_64 rng(seed);
    const Result<ViewDefinition> view_or =
        MakeRandomConnectedView(mkb, &rng, 3);
    if (!view_or.ok()) continue;
    const ViewDefinition& view = view_or.value();
    const std::string victim = view.from().front().name;
    const Result<RMapping> mapping_or = ComputeRMapping(view, victim, mkb);
    if (!mapping_or.ok()) continue;
    const Result<MkbEvolutionReport> evolution =
        EvolveMkb(mkb, CapabilityChange::DeleteRelation(victim));
    if (!evolution.ok()) continue;
    const JoinGraph graph_prime = JoinGraph::Build(evolution.value().mkb);

    Result<CandidateStream> stream_or = CandidateStream::Create(
        view, mapping_or.value(), mkb, graph_prime, ExhaustiveOptions(),
        DefaultRankingCostModel());
    if (!stream_or.ok()) continue;
    CandidateStream stream = stream_or.MoveValue();
    double last = -1.0;
    while (std::optional<ReplacementCandidate> candidate = stream.Next()) {
      EXPECT_GE(candidate->cost_lower_bound, last) << "seed " << seed;
      last = candidate->cost_lower_bound;
    }
    EXPECT_TRUE(stream.Exhausted());
    EXPECT_TRUE(stream.stats().exhausted);
  }
}

class CoverFanTest : public ::testing::Test {
 protected:
  void SetUp() override {
    CoverFanMkbSpec spec;
    spec.num_covers = 8;
    mkb_ = MakeCoverFanMkb(spec).MoveValue();
    view_ = MakeCoverFanView(mkb_).MoveValue();
    mkb_prime_ = EvolveMkb(mkb_, CapabilityChange::DeleteRelation("R0"))
                     .MoveValue()
                     .mkb;
  }

  CvsOptions WideOptions() const {
    CvsOptions options;
    options.replacement.max_results = 100000;
    options.replacement.max_cover_combinations = 100000;
    options.replacement.max_extra_relations = 8;
    return options;
  }

  Mkb mkb_;
  Mkb mkb_prime_;
  ViewDefinition view_;
};

TEST_F(CoverFanTest, CandidateCostsIncreaseWithCoverDistance) {
  const CvsResult result =
      SynchronizeDeleteRelation(view_, "R0", SyncContext{mkb_, mkb_prime_},
                                WideOptions())
          .value();
  // One rewriting per cover distance, each strictly wider than the last.
  ASSERT_GE(result.rewritings.size(), 8u);
  for (size_t i = 1; i < result.rewritings.size(); ++i) {
    EXPECT_LE(result.rewritings[i - 1].cost.total,
              result.rewritings[i].cost.total);
  }
  // The PC constraints justify every pure-path rewriting as equal-extent.
  EXPECT_EQ(result.rewritings.front().legality.inferred_extent,
            ExtentRelation::kEqual);
}

TEST_F(CoverFanTest, TopKPrefixMatchesExhaustiveRun) {
  const CvsResult full =
      SynchronizeDeleteRelation(view_, "R0", SyncContext{mkb_, mkb_prime_},
                                WideOptions())
          .value();
  ASSERT_GE(full.rewritings.size(), 4u);

  CvsOptions top_k = WideOptions();
  top_k.top_k = 4;
  const CvsResult pruned =
      SynchronizeDeleteRelation(view_, "R0", SyncContext{mkb_, mkb_prime_},
                                top_k)
          .value();
  ASSERT_EQ(pruned.rewritings.size(), 4u);
  for (size_t i = 0; i < 4; ++i) {
    EXPECT_EQ(pruned.rewritings[i].view.ToString(),
              full.rewritings[i].view.ToString())
        << "rank " << i;
    EXPECT_EQ(pruned.rewritings[i].cost.total, full.rewritings[i].cost.total);
  }
  // The bound must actually fire: the full space has strictly worse
  // candidates behind the k-th best.
  EXPECT_TRUE(pruned.enumeration.terminated_early);
  EXPECT_LT(pruned.enumeration.candidates_yielded,
            full.enumeration.candidates_yielded);
}

// The top-k contract over the whole cover-fan sweep: at 4, 8, 12 and 16
// covers, with caps wide enough that nothing truncates, a run with
// top_k = 1, 4 or 8 returns exactly the first min(k, n) rewritings of the
// exhaustive run, byte for byte.
TEST(TopKSweep, PrefixOfExhaustiveRunAtEverySweepPoint) {
  for (const size_t covers : {4u, 8u, 12u, 16u}) {
    CoverFanMkbSpec spec;
    spec.num_covers = covers;
    const Mkb mkb = MakeCoverFanMkb(spec).MoveValue();
    const ViewDefinition view = MakeCoverFanView(mkb).MoveValue();
    const Mkb mkb_prime =
        EvolveMkb(mkb, CapabilityChange::DeleteRelation("R0")).MoveValue().mkb;
    CvsOptions options;
    options.replacement.max_results = 1000000;
    options.replacement.max_cover_combinations = 1000000;
    options.replacement.max_extra_relations = covers;
    const CvsResult full =
        SynchronizeDeleteRelation(view, "R0", SyncContext{mkb, mkb_prime},
                                  options)
            .value();
    for (const size_t k : {1u, 4u, 8u}) {
      SCOPED_TRACE("covers " + std::to_string(covers) + ", k " +
                   std::to_string(k));
      options.top_k = k;
      const CvsResult pruned =
          SynchronizeDeleteRelation(view, "R0", SyncContext{mkb, mkb_prime},
                                    options)
              .value();
      const size_t expect = std::min(k, full.rewritings.size());
      ASSERT_EQ(pruned.rewritings.size(), expect);
      for (size_t i = 0; i < expect; ++i) {
        EXPECT_EQ(pruned.rewritings[i].view.ToString(),
                  full.rewritings[i].view.ToString())
            << "rank " << i;
      }
    }
  }
}

TEST_F(CoverFanTest, LowerBoundsAreAdmissible) {
  const CvsResult result =
      SynchronizeDeleteRelation(view_, "R0", SyncContext{mkb_, mkb_prime_},
                                WideOptions())
          .value();
  for (const SynchronizedView& rewriting : result.rewritings) {
    if (rewriting.is_drop) continue;
    EXPECT_LE(rewriting.candidate.cost_lower_bound,
              rewriting.cost.total + 1e-9)
        << rewriting.view.name();
  }
}

TEST_F(CoverFanTest, BudgetedRunReturnsPrefixOfUnbudgetedTopK) {
  // A run stopped by the logical work budget must return a PREFIX of what
  // the unbudgeted run ranks first — a valid best-under-budget partial
  // answer, not an arbitrary subset — and must overshoot the budget by at
  // most the one refused step.
  const CvsResult full =
      SynchronizeDeleteRelation(view_, "R0", SyncContext{mkb_, mkb_prime_},
                                WideOptions())
          .value();
  ASSERT_GE(full.rewritings.size(), 8u);
  for (const uint64_t budget :
       {uint64_t{3}, uint64_t{8}, uint64_t{20}, uint64_t{60}}) {
    CvsOptions options = WideOptions();
    options.replacement.token = DeadlineToken::Root({budget, 0});
    const CvsResult partial =
        SynchronizeDeleteRelation(view_, "R0", SyncContext{mkb_, mkb_prime_},
                                  options)
            .value();
    ASSERT_LE(partial.rewritings.size(), full.rewritings.size())
        << "budget " << budget;
    for (size_t i = 0; i < partial.rewritings.size(); ++i) {
      EXPECT_EQ(partial.rewritings[i].view.ToString(),
                full.rewritings[i].view.ToString())
          << "budget " << budget << " rank " << i;
      EXPECT_EQ(partial.rewritings[i].cost.total, full.rewritings[i].cost.total)
          << "budget " << budget << " rank " << i;
    }
    EXPECT_EQ(partial.enumeration.deadline.work_budget, budget);
    // Spend-before-step: the refused unit is counted but never executed.
    EXPECT_LE(partial.enumeration.deadline.work_spent, budget + 1);
    if (partial.rewritings.size() < full.rewritings.size()) {
      EXPECT_TRUE(partial.enumeration.deadline.partial) << "budget " << budget;
      EXPECT_EQ(partial.enumeration.deadline.stop_cause,
                StopCause::kWorkBudget);
    }
  }
}

TEST_F(CoverFanTest, CandidateBudgetReportsTruncation) {
  CvsOptions options = WideOptions();
  options.candidate_budget = 2;
  const CvsResult result =
      SynchronizeDeleteRelation(view_, "R0", SyncContext{mkb_, mkb_prime_},
                                options)
          .value();
  EXPECT_LE(result.enumeration.candidates_yielded, 2u);
  EXPECT_FALSE(result.enumeration.exhausted);
  EXPECT_GT(result.enumeration.states_pending, 0u);
  const bool noted = std::any_of(
      result.diagnostics.begin(), result.diagnostics.end(),
      [](const std::string& d) {
        return d.find("candidate_budget") != std::string::npos;
      });
  EXPECT_TRUE(noted);
}

TEST_F(CoverFanTest, ComboTruncationIsDiagnosed) {
  CvsOptions options = WideOptions();
  options.replacement.max_cover_combinations = 1;
  const CvsResult result =
      SynchronizeDeleteRelation(view_, "R0", SyncContext{mkb_, mkb_prime_},
                                options)
          .value();
  EXPECT_GT(result.enumeration.combos_truncated, 0u);
  const bool noted = std::any_of(
      result.diagnostics.begin(), result.diagnostics.end(),
      [](const std::string& d) {
        return d.find("max_cover_combinations") != std::string::npos;
      });
  EXPECT_TRUE(noted);
}

// The deep-search benchmark's input (12 covers, 6 detours) under the
// default options eved runs with. The search shape is pinned exactly: a
// faster join-tree search must expand, cut and yield the same sets, not
// fewer, and rank the same rewritings in the same order.
TEST(DeepSearchShape, TwelveCoverSixDetourFanIsPinned) {
  CoverFanMkbSpec spec;
  spec.num_covers = 12;
  spec.detours = 6;
  spec.equal_pcs = true;
  const Mkb mkb = MakeCoverFanMkb(spec).MoveValue();
  const ViewDefinition view = MakeCoverFanView(mkb).MoveValue();
  const Mkb mkb_prime =
      EvolveMkb(mkb, CapabilityChange::DeleteRelation("R0")).MoveValue().mkb;
  const CvsResult result =
      SynchronizeDeleteRelation(view, "R0", SyncContext{mkb, mkb_prime},
                                CvsOptions{})
          .value();
  EXPECT_EQ(result.enumeration.ToString(),
            "combos 12, trees expanded 1620 (1074 sets cut), yielded 32, "
            "pending 8");

  // "cost | tree relations | tree edges | replacement constraints".
  std::vector<std::string> ranked;
  for (const SynchronizedView& rewriting : result.rewritings) {
    std::ostringstream line;
    line << std::setprecision(17) << rewriting.cost.total << " |";
    for (const std::string& rel : rewriting.candidate.tree.relations) {
      line << " " << rel;
    }
    line << " |";
    for (const JoinConstraint& edge : rewriting.candidate.tree.edges) {
      line << " " << edge.id;
    }
    line << " |";
    for (const AttributeReplacement& repl : rewriting.candidate.replacements) {
      line << " " << repl.constraint_id;
    }
    ranked.push_back(line.str());
  }
  const std::vector<std::string> expected = {
      "2 | A0 B1 | JB0 | FC1",
      "3 | A0 B1 B2 | JB0 JB1 | FC2",
      "4 | A0 B1 B2 B3 | JB0 JB1 JB2 | FC2",
      "4 | A0 B1 B2 B3 | JB0 JB1 JB2 | FC3",
      "5 | A0 B1 B2 B3 B4 | JB0 JB1 JB2 JB3 | FC3",
      "5 | A0 B1 B2 B3 B4 | JB0 JB1 JB2 JB3 | FC2",
      "5 | A0 B1 B2 B3 B4 | JB0 JB1 JB2 JB3 | FC4",
      "3000004 | A0 B1 B2 D1 | JB0 JD1 JB1 | FC2",
      "3000004 | A0 B1 B2 D2 | JB0 JD2 JB1 | FC2",
      "3000004 | A0 B1 B2 D3 | JB0 JD3 JB1 | FC2",
      "3000004 | A0 B1 B2 D4 | JB0 JD4 JB1 | FC2",
      "3000004 | A0 B1 B2 D5 | JB0 JD5 JB1 | FC2",
      "3000004 | A0 B1 B2 D6 | JB0 JD6 JB1 | FC2",
      "3000005 | A0 B1 B2 B3 D1 | JB0 JD1 JB1 JB2 | FC3",
      "3000005 | A0 B1 B2 B3 D1 | JB0 JD1 JB1 JB2 | FC2",
      "3000005 | A0 B1 B2 B3 D2 | JB0 JD2 JB1 JB2 | FC3",
      "3000005 | A0 B1 B2 B3 D2 | JB0 JD2 JB1 JB2 | FC2",
      "3000005 | A0 B1 B2 B3 D3 | JB0 JD3 JB1 JB2 | FC3",
      "3000005 | A0 B1 B2 B3 D3 | JB0 JD3 JB1 JB2 | FC2",
      "3000005 | A0 B1 B2 B3 D4 | JB0 JD4 JB1 JB2 | FC3",
      "3000005 | A0 B1 B2 B3 D4 | JB0 JD4 JB1 JB2 | FC2",
      "3000005 | A0 B1 B2 B3 D5 | JB0 JD5 JB1 JB2 | FC3",
      "3000005 | A0 B1 B2 B3 D5 | JB0 JD5 JB1 JB2 | FC2",
      "3000005 | A0 B1 B2 B3 D6 | JB0 JD6 JB1 JB2 | FC3",
      "3000005 | A0 B1 B2 B3 D6 | JB0 JD6 JB1 JB2 | FC2",
      "3000005 | A0 B1 B2 D1 D2 | JB0 JD1 JD2 JB1 | FC2",
      "3000005 | A0 B1 B2 D1 D3 | JB0 JD1 JD3 JB1 | FC2",
      "3000005 | A0 B1 B2 D1 D4 | JB0 JD1 JD4 JB1 | FC2",
      "3000005 | A0 B1 B2 D1 D5 | JB0 JD1 JD5 JB1 | FC2",
      "3000005 | A0 B1 B2 D1 D6 | JB0 JD1 JD6 JB1 | FC2",
      "3000005 | A0 B1 B2 D2 D3 | JB0 JD2 JD3 JB1 | FC2",
      "3000005 | A0 B1 B2 D2 D4 | JB0 JD2 JD4 JB1 | FC2",
  };
  EXPECT_EQ(ranked, expected);
}

}  // namespace
}  // namespace eve
