// Robustness / failure-injection suites: mutated and truncated inputs must
// produce Status errors, never crashes or hangs; CVS must stay sound when
// the MKB is inconsistent with itself or options are degenerate.

#include <gtest/gtest.h>

#include <cstdio>
#include <random>

#include "common/file_io.h"
#include "cvs/cvs.h"
#include "esql/binder.h"
#include "eve/eve_system.h"
#include "eve/journal.h"
#include "eve/view_pool_io.h"
#include "mkb/evolution.h"
#include "mkb/serializer.h"
#include "sql/parser.h"
#include "workload/generator.h"
#include "workload/travel_agency.h"

namespace eve {
namespace {

// One random byte-level corruption: overwrite, delete, or truncate.
std::string Mutate(std::mt19937_64* rng, const std::string& input) {
  if (input.empty()) return input;
  std::string mutated = input;
  const size_t pos =
      std::uniform_int_distribution<size_t>(0, input.size() - 1)(*rng);
  switch (std::uniform_int_distribution<int>(0, 2)(*rng)) {
    case 0:
      mutated[pos] = static_cast<char>(
          std::uniform_int_distribution<int>(0, 255)(*rng));
      break;
    case 1:
      mutated.erase(pos, 1);
      break;
    case 2:
      mutated.resize(pos);
      break;
  }
  return mutated;
}

const char* kSeedInputs[] = {
    "CREATE VIEW V (VE = >=) AS SELECT C.Name (false, true), "
    "f(A.Birthday) AS Age FROM Customer C, \"Accident-Ins\" A "
    "WHERE (C.Name = A.Holder) (CD = false) AND C.Age > 1",
    "CREATE VIEW W AS SELECT R.a + R.b * 2 FROM R WHERE R.c = DATE "
    "'2020-01-01' AND NOT (R.d = 'x''y')",
};

class MutationTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(MutationTest, ParserNeverCrashesOnMutatedInput) {
  std::mt19937_64 rng(GetParam());
  for (const char* seed_input : kSeedInputs) {
    std::string input = seed_input;
    std::uniform_int_distribution<size_t> pos_dist(0, input.size() - 1);
    std::uniform_int_distribution<int> char_dist(32, 126);
    std::uniform_int_distribution<int> op_dist(0, 2);
    for (int round = 0; round < 200; ++round) {
      std::string mutated = input;
      const int op = op_dist(rng);
      const size_t pos = pos_dist(rng);
      switch (op) {
        case 0:  // overwrite a byte
          mutated[pos] = static_cast<char>(char_dist(rng));
          break;
        case 1:  // delete a byte
          mutated.erase(pos, 1);
          break;
        case 2:  // truncate
          mutated.resize(pos);
          break;
      }
      // Must not crash; any Status outcome is fine.
      const Result<ParsedView> result = ParseView(mutated);
      (void)result;
    }
  }
}

TEST_P(MutationTest, MisdLoaderNeverCrashesOnMutatedInput) {
  const Mkb mkb = MakeTravelAgencyMkb().value();
  const std::string input = SaveMkb(mkb);
  std::mt19937_64 rng(GetParam());
  std::uniform_int_distribution<size_t> pos_dist(0, input.size() - 1);
  std::uniform_int_distribution<int> char_dist(32, 126);
  std::uniform_int_distribution<int> op_dist(0, 2);
  for (int round = 0; round < 100; ++round) {
    std::string mutated = input;
    const int op = op_dist(rng);
    const size_t pos = pos_dist(rng);
    switch (op) {
      case 0:
        mutated[pos] = static_cast<char>(char_dist(rng));
        break;
      case 1:
        mutated.erase(pos, 1);
        break;
      case 2:
        mutated.resize(pos);
        break;
    }
    const Result<Mkb> result = LoadMkb(mutated);
    (void)result;
  }
}

TEST_P(MutationTest, DeeplyNestedSeedNeverCrashes) {
  // Seed input chosen to sit near the parser's recursion budget, so
  // mutations that add bytes probe the depth guard rather than the stack.
  std::string input = "1";
  for (int i = 0; i < 400; ++i) input = "(" + input + ")";
  std::mt19937_64 rng(GetParam());
  for (int round = 0; round < 100; ++round) {
    const Result<ExprPtr> result = ParseExpression(Mutate(&rng, input));
    (void)result;
  }
}

TEST_P(MutationTest, ViewPoolLoaderNeverCrashesOnMutatedInput) {
  EveSystem system(MakeTravelAgencyMkb().MoveValue());
  ASSERT_TRUE(system.RegisterViewText(CustomerPassengersAsiaSql()).ok());
  ASSERT_TRUE(system.RegisterViewText(AsiaCustomerSql()).ok());
  ASSERT_TRUE(
      system.SetViewState("AsiaCustomer", ViewState::kDisabled).ok());
  const std::string input = SaveViews(system);
  std::mt19937_64 rng(GetParam());
  for (int round = 0; round < 100; ++round) {
    EveSystem fresh(MakeTravelAgencyMkb().MoveValue());
    const Status status = LoadViews(Mutate(&rng, input), &fresh);
    (void)status;
  }
}

TEST_P(MutationTest, CheckpointLoaderNeverCrashesOnMutatedInput) {
  EveSystem system(MakeTravelAgencyMkb().MoveValue());
  ASSERT_TRUE(system.RegisterViewText(CustomerPassengersAsiaSql()).ok());
  ASSERT_TRUE(
      system.ApplyChange(CapabilityChange::DeleteRelation("RentACar")).ok());
  const std::string input = RenderCheckpoint(system);
  std::mt19937_64 rng(GetParam());
  for (int round = 0; round < 100; ++round) {
    const Result<EveSystem> result = LoadCheckpoint(Mutate(&rng, input));
    (void)result;
  }
}

TEST_P(MutationTest, JournalScanAndReplayNeverCrashOnMutatedBytes) {
  const std::string path =
      ::testing::TempDir() + "robustness_journal_" +
      std::to_string(GetParam()) + ".wal";
  std::remove(path.c_str());
  std::string bytes;
  {
    Journal journal = Journal::Open(path).MoveValue();
    EveSystem system(MakeTravelAgencyMkb().MoveValue());
    system.AttachJournal(&journal);
    ASSERT_TRUE(system.RegisterViewText(CustomerPassengersAsiaSql()).ok());
    ASSERT_TRUE(
        system.ApplyChange(CapabilityChange::DeleteRelation("RentACar"))
            .ok());
    bytes = ReadFileToString(path).MoveValue();
  }
  const std::string checkpoint =
      RenderCheckpoint(EveSystem(MakeTravelAgencyMkb().MoveValue()));
  std::mt19937_64 rng(GetParam());
  for (int round = 0; round < 100; ++round) {
    const Result<JournalScan> scan = ScanJournalBytes(Mutate(&rng, bytes));
    if (!scan.ok()) continue;  // bad magic — rejected, not crashed
    // Whatever record prefix survived must replay without crashing.
    const Result<EveSystem> recovered =
        EveSystem::Recover(checkpoint, scan.value().records);
    (void)recovered;
  }
  std::remove(path.c_str());
}

TEST_P(MutationTest, VersionStoreDeserializeNeverCrashesOnMutatedInput) {
  EveSystem system(MakeTravelAgencyMkb().MoveValue());
  ASSERT_TRUE(system.RegisterViewText(CustomerPassengersAsiaSql()).ok());
  ASSERT_TRUE(
      system.ApplyChange(CapabilityChange::DeleteRelation("RentACar")).ok());
  ASSERT_TRUE(system.RollbackToVersion(1).ok());
  const std::string input = system.versions().Serialize();
  std::mt19937_64 rng(GetParam());
  for (int round = 0; round < 200; ++round) {
    const Result<MkbVersionStore> result =
        MkbVersionStore::Deserialize(Mutate(&rng, input));
    if (result.ok()) {
      // Whatever loaded must scrub without crashing.
      (void)result.value().Scrub();
    }
  }
}

TEST_P(MutationTest, JournalWithVersionRecordsNeverCrashesOnMutatedBytes) {
  // Same contract as the plain journal fuzz, but the journal now carries
  // version-commit and rollback records: whatever record prefix survives
  // the scan must replay to a system whose version chain scrubs clean —
  // replay rebuilds the chain, it never trusts corrupted bytes for it.
  const std::string path = ::testing::TempDir() +
                           "robustness_version_journal_" +
                           std::to_string(GetParam()) + ".wal";
  std::remove(path.c_str());
  std::string bytes;
  EveSystem base(MakeTravelAgencyMkb().MoveValue());
  ASSERT_TRUE(base.RegisterViewText(CustomerPassengersAsiaSql()).ok());
  const std::string checkpoint = RenderCheckpoint(base);
  {
    Journal journal = Journal::Open(path).MoveValue();
    EveSystem system = base;
    system.AttachJournal(&journal);
    ASSERT_TRUE(
        system.ApplyChange(CapabilityChange::DeleteRelation("RentACar"))
            .ok());
    ASSERT_TRUE(system.RetractConstraint("JC6").ok());
    ASSERT_TRUE(system.RollbackToVersion(1).ok());
    bytes = ReadFileToString(path).MoveValue();
  }
  std::mt19937_64 rng(GetParam());
  for (int round = 0; round < 100; ++round) {
    const Result<JournalScan> scan = ScanJournalBytes(Mutate(&rng, bytes));
    if (!scan.ok()) continue;  // bad magic — rejected, not crashed
    const Result<EveSystem> recovered =
        EveSystem::Recover(checkpoint, scan.value().records);
    if (recovered.ok()) {
      EXPECT_EQ(recovered.value().ScrubVersions().corruptions, 0u);
    }
  }
  std::remove(path.c_str());
}

INSTANTIATE_TEST_SUITE_P(Seeds, MutationTest,
                         ::testing::Values(11, 22, 33, 44));

// Satellite integrity guarantee: EVERY single-byte flip inside the
// checkpoint's VERSIONS section is caught — by the checkpoint loader (CRC
// or framing validation, or the tip-consistency cross-check) or, failing
// that, by the scrubber on the loaded system. No flip loads silently clean.
TEST(CheckpointVersionsFuzzTest, EveryFlipInVersionsSectionIsDetected) {
  EveSystem system(MakeTravelAgencyMkb().MoveValue());
  ASSERT_TRUE(system.RegisterViewText(CustomerPassengersAsiaSql()).ok());
  ASSERT_TRUE(
      system.ApplyChange(CapabilityChange::DeleteRelation("RentACar")).ok());
  const std::string checkpoint = RenderCheckpoint(system);
  const size_t begin = checkpoint.find("-- SECTION VERSIONS");
  ASSERT_NE(begin, std::string::npos);
  const size_t end = checkpoint.find("-- SECTION END", begin);
  ASSERT_NE(end, std::string::npos);

  size_t undetected = 0;
  for (size_t i = begin; i < end; ++i) {
    std::string mutated = checkpoint;
    mutated[i] = static_cast<char>(mutated[i] ^ 0x01);
    const Result<EveSystem> loaded = LoadCheckpoint(mutated);
    if (!loaded.ok()) continue;  // detected at load
    if (loaded.value().ScrubVersions().corruptions > 0) continue;
    ++undetected;
    ADD_FAILURE() << "flip at checkpoint byte " << i << " ('" << checkpoint[i]
                  << "') loaded clean and scrubbed clean";
  }
  EXPECT_EQ(undetected, 0u);
}

// --- Degenerate options ---------------------------------------------------------

class DegenerateOptionsTest : public ::testing::Test {
 protected:
  void SetUp() override {
    mkb_ = MakeTravelAgencyMkb().MoveValue();
    view_ = ParseAndBindView(CustomerPassengersAsiaSql(), mkb_.catalog())
                .MoveValue();
    mkb_prime_ =
        EvolveMkb(mkb_, CapabilityChange::DeleteRelation("Customer"))
            .MoveValue()
            .mkb;
  }
  Mkb mkb_;
  Mkb mkb_prime_;
  ViewDefinition view_;
};

TEST_F(DegenerateOptionsTest, ZeroBudgetsMeanNoRewritingsNotCrashes) {
  CvsOptions options;
  options.replacement.max_results = 0;
  options.replacement.max_cover_combinations = 0;
  const Result<CvsResult> result = SynchronizeDeleteRelation(
      view_, "Customer", SyncContext{mkb_, mkb_prime_}, options);
  ASSERT_TRUE(result.ok());
  EXPECT_TRUE(result.value().rewritings.empty());
}

TEST_F(DegenerateOptionsTest, HugeBudgetsTerminate) {
  CvsOptions options;
  options.replacement.max_results = 10000;
  options.replacement.max_cover_combinations = 10000;
  options.replacement.max_extra_relations = 10;
  const Result<CvsResult> result = SynchronizeDeleteRelation(
      view_, "Customer", SyncContext{mkb_, mkb_prime_}, options);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result.value().rewritings.size(), 2u);  // still just two
}

TEST_F(DegenerateOptionsTest, EmptySuffixStillNamesViews) {
  CvsOptions options;
  options.rename_suffix = "";
  const Result<CvsResult> result = SynchronizeDeleteRelation(
      view_, "Customer", SyncContext{mkb_, mkb_prime_}, options);
  ASSERT_TRUE(result.ok());
  for (const SynchronizedView& rewriting : result.value().rewritings) {
    EXPECT_FALSE(rewriting.view.name().empty());
  }
}

// --- Inconsistent inputs -------------------------------------------------------

TEST_F(DegenerateOptionsTest, StaleMkbPrimeRejectedByLegality) {
  // Passing the UN-evolved MKB as MKB' : candidates would still reference
  // deleted state consistently, but P2 rebinding uses the passed
  // catalog — which still has Customer, so the rewriting is fine; what
  // must NOT happen is a crash. Verify the call succeeds gracefully.
  const Result<CvsResult> result =
      SynchronizeDeleteRelation(view_, "Customer", SyncContext{mkb_, mkb_});
  ASSERT_TRUE(result.ok());
}

TEST_F(DegenerateOptionsTest, ViewOverForeignMkbFails) {
  // A view bound against a different MKB whose relations don't exist here.
  ChainMkbSpec spec;
  spec.length = 4;
  const Mkb chain = MakeChainMkb(spec).value();
  const ViewDefinition foreign = MakeChainView(chain, 0, 2).value();
  const Result<CvsResult> result =
      SynchronizeDeleteRelation(foreign, "R0", SyncContext{mkb_, mkb_prime_});
  EXPECT_FALSE(result.ok());
}

TEST_F(DegenerateOptionsTest, SynchronizeUnusedAttributeIsNoOp) {
  const Mkb prime =
      EvolveMkb(mkb_, CapabilityChange::DeleteAttribute("Tour", "TourName"))
          .MoveValue()
          .mkb;
  const Result<CvsResult> result = SynchronizeDeleteAttribute(
      view_, "Tour", "TourName", SyncContext{mkb_, prime}, {});
  ASSERT_TRUE(result.ok());
  ASSERT_EQ(result.value().rewritings.size(), 1u);
  EXPECT_EQ(result.value().rewritings[0].view.name(), view_.name());
}

// --- Deep expressions ------------------------------------------------------------

TEST(DeepExpressionTest, DeeplyNestedParenthesesParse) {
  std::string expr = "1";
  for (int i = 0; i < 200; ++i) expr = "(" + expr + " + 1)";
  const Result<ExprPtr> result = ParseExpression(expr);
  ASSERT_TRUE(result.ok());
}

TEST(DeepExpressionTest, LongConjunctionsParse) {
  std::string where = "R.a0 = 1";
  for (int i = 1; i < 300; ++i) {
    where += " AND R.a" + std::to_string(i) + " = " + std::to_string(i);
  }
  const Result<std::vector<ExprPtr>> result = ParseConjunction(where);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result.value().size(), 300u);
}

TEST(DeepExpressionTest, PathologicalNestingRejectedWithStatus) {
  // Far beyond the recursion budget: must come back as a ParseError, not a
  // stack overflow.
  std::string expr = "1";
  for (int i = 0; i < 20000; ++i) expr = "(" + expr;
  const Result<ExprPtr> result = ParseExpression(expr);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kParseError);
  EXPECT_NE(result.status().message().find("nests too deeply"),
            std::string::npos);
}

TEST(DeepExpressionTest, PathologicalNotChainRejectedWithStatus) {
  std::string expr;
  for (int i = 0; i < 20000; ++i) expr += "NOT ";
  expr += "true";
  const Result<ExprPtr> result = ParseExpression(expr);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kParseError);
}

TEST(DeepExpressionTest, PathologicalWhereNestingRejectedWithStatus) {
  std::string cond = "R.a = 1";
  for (int i = 0; i < 20000; ++i) cond = "NOT " + cond;
  const Result<ParsedView> result =
      ParseView("CREATE VIEW V AS SELECT R.a FROM R WHERE " + cond);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kParseError);
}

TEST(DeepExpressionTest, WideViewsParseAndPrint) {
  std::string sql = "CREATE VIEW Wide AS SELECT ";
  for (int i = 0; i < 150; ++i) {
    if (i > 0) sql += ", ";
    sql += "R.c" + std::to_string(i);
  }
  sql += " FROM R";
  const Result<ParsedView> view = ParseView(sql);
  ASSERT_TRUE(view.ok());
  EXPECT_EQ(view.value().select.size(), 150u);
}

}  // namespace
}  // namespace eve
