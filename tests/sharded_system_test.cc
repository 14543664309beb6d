// ShardedEveSystem: hash routing, replica convergence, merged-report
// byte-identity against the single-system reference, RCU snapshot
// publication, and poisoning on commit-phase divergence. This binary runs
// under TSan in CI (see PinnedSnapshotReadsAreStableDuringCommits).

#include <gtest/gtest.h>

#include <atomic>
#include <string>
#include <thread>
#include <vector>

#include "common/failpoint.h"
#include "common/sharding.h"
#include "eve/eve_system.h"
#include "eve/sharded_system.h"
#include "eve/view_pool_io.h"
#include "mkb/capability_change.h"
#include "mkb/serializer.h"
#include "workload/generator.h"

namespace eve {
namespace {

Mkb MakeMkb() {
  ChainMkbSpec spec;
  spec.length = 32;
  spec.cover_distance = 2;
  return MakeChainMkb(spec).MoveValue();
}

// Registers `num_views` chain views named SV<i>: even ones reference the
// victim relation R1's neighborhood, odd ones sit far down the chain.
template <typename System>
void RegisterPool(System* system, const Mkb& mkb, size_t num_views) {
  for (size_t i = 0; i < num_views; ++i) {
    const size_t start = (i % 2 == 0) ? (i / 2) % 2 : 16 + (i / 2) % 12;
    ViewDefinition view = MakeChainView(mkb, start, 3).MoveValue();
    view.set_name("SV" + std::to_string(i));
    ASSERT_TRUE(system->RegisterView(view).ok()) << view.name();
  }
}

// Everything durable about one sharded system, per shard, concatenated.
std::string SnapSharded(const ShardedEveSystem& system) {
  std::string out;
  for (size_t i = 0; i < system.shard_count(); ++i) {
    out += "==== shard " + std::to_string(i) + "\n";
    out += SaveMkb(system.shard(i).mkb());
    out += SaveViews(system.shard(i));
    out += "log " + std::to_string(system.shard(i).change_log().size()) + "\n";
  }
  return out;
}

TEST(ShardedSystemTest, ViewsRouteToTheirHashShard) {
  const Mkb mkb = MakeMkb();
  ShardedEveSystem system(mkb, {}, 4);
  RegisterPool(&system, mkb, 24);
  ASSERT_EQ(system.NumViews(), 24u);

  size_t placed = 0;
  for (size_t s = 0; s < 4; ++s) {
    for (const std::string& name : system.shard(s).ViewNames()) {
      EXPECT_EQ(ShardOf(name, 4), s) << name;
      ++placed;
    }
    EXPECT_GT(system.shard(s).NumViews(), 0u)
        << "24 hashed views left shard " << s << " empty";
  }
  EXPECT_EQ(placed, 24u);

  // Merged reads agree with the routing.
  const std::vector<std::string> names = system.ViewNames();
  EXPECT_EQ(names.size(), 24u);
  EXPECT_TRUE(std::is_sorted(names.begin(), names.end()));
  EXPECT_TRUE(system.GetView("SV0").ok());
  EXPECT_EQ(system.GetView("SV0").value()->definition.name(), "SV0");
}

TEST(ShardedSystemTest, ShardCountIsFixedAfterFirstRegistration) {
  const Mkb mkb = MakeMkb();
  ShardedEveSystem system(mkb);
  EXPECT_TRUE(system.SetShardCount(8).ok());
  EXPECT_EQ(system.shard_count(), 8u);
  RegisterPool(&system, mkb, 2);
  const Status resized = system.SetShardCount(4);
  EXPECT_EQ(resized.code(), StatusCode::kFailedPrecondition);
  EXPECT_EQ(system.shard_count(), 8u);
}

TEST(ShardedSystemTest, MergedReportsAreByteIdenticalAcrossShardCounts) {
  const Mkb mkb = MakeMkb();
  const std::vector<CapabilityChange> changes = {
      CapabilityChange::DeleteAttribute("R1", "P1"),
      CapabilityChange::DeleteRelation("R1"),
      CapabilityChange::RenameRelation("R20", "R20x"),
  };

  std::string reference_reports;
  std::string reference_pool;
  for (const size_t count : {size_t{1}, size_t{4}, size_t{16}}) {
    ShardedEveSystem system(mkb, {}, count);
    RegisterPool(&system, mkb, 24);
    std::string reports;
    for (const CapabilityChange& change : changes) {
      const Result<ChangeReport> report = system.ApplyChange(change);
      ASSERT_TRUE(report.ok()) << "shards=" << count;
      reports += report.value().ToString() + "\n====\n";
    }
    // Merged pool across shards, name-ordered.
    std::string pool;
    for (const std::string& name : system.ViewNames()) {
      const RegisteredView* view = system.GetView(name).value();
      pool += name +
              (view->state == ViewState::kActive ? " [active]\n"
                                                 : " [disabled]\n") +
              view->definition.ToString() + "\n";
    }
    if (count == 1) {
      reference_reports = reports;
      reference_pool = pool;
      // The 1-shard merged report IS the classic single-system report.
      EveSystem single(mkb);
      RegisterPool(&single, mkb, 24);
      std::string single_reports;
      for (const CapabilityChange& change : changes) {
        single_reports += single.ApplyChange(change).value().ToString() +
                          "\n====\n";
      }
      EXPECT_EQ(reports, single_reports);
    } else {
      EXPECT_EQ(reports, reference_reports) << "shards=" << count;
      EXPECT_EQ(pool, reference_pool) << "shards=" << count;
    }
  }
}

TEST(ShardedSystemTest, ReplicasConvergeAcrossEveryMutationKind) {
  const Mkb mkb = MakeMkb();
  ShardedEveSystem system(mkb, {}, 4);
  RegisterPool(&system, mkb, 12);
  ASSERT_TRUE(system
                  .ExtendMkb("SOURCE ExtraIS RELATION Extra1 "
                             "(Name string, X int)")
                  .ok());
  ASSERT_TRUE(
      system.ApplyChange(CapabilityChange::DeleteRelation("R1")).ok());
  ASSERT_TRUE(system.RetractConstraint("JL4").ok());
  ASSERT_TRUE(
      system.ApplyChange(CapabilityChange::DeleteRelation("R20")).ok());
  ASSERT_TRUE(
      system.ApplyChange(CapabilityChange::RenameRelation("R25", "R25x"))
          .ok());
  const std::string reference = SaveMkb(system.shard(0).mkb());
  for (size_t s = 1; s < 4; ++s) {
    EXPECT_EQ(SaveMkb(system.shard(s).mkb()), reference) << "shard " << s;
  }
}

TEST(ShardedSystemTest, PinnedSnapshotIsImmutableAcrossCommits) {
  const Mkb mkb = MakeMkb();
  ShardedEveSystem system(mkb, {}, 4);
  RegisterPool(&system, mkb, 12);

  const std::shared_ptr<const ShardedSnapshot> pinned = system.PinPublished();
  ASSERT_NE(pinned, nullptr);
  const uint64_t pinned_epoch = pinned->epoch;
  const std::string pinned_mkb = SaveMkb(*pinned->mkb);

  ASSERT_TRUE(
      system.ApplyChange(CapabilityChange::DeleteRelation("R1")).ok());

  // The old pin is untouched; the new pin carries a later epoch and the
  // evolved MKB.
  EXPECT_EQ(pinned->epoch, pinned_epoch);
  EXPECT_EQ(SaveMkb(*pinned->mkb), pinned_mkb);
  const std::shared_ptr<const ShardedSnapshot> now = system.PinPublished();
  EXPECT_GT(now->epoch, pinned_epoch);
  EXPECT_NE(SaveMkb(*now->mkb), pinned_mkb);
  EXPECT_EQ(now->shard_versions.size(), 4u);
}

TEST(ShardedSystemTest, PinnedSnapshotReadsAreStableDuringCommits) {
  // Readers pin snapshots while the coordinator commits: every pinned
  // snapshot must render byte-stably (RCU: never torn, never blocked).
  const Mkb mkb = MakeMkb();
  ShardedEveSystem system(mkb, {}, 4);
  RegisterPool(&system, mkb, 12);

  std::atomic<bool> stop{false};
  std::atomic<size_t> pins{0};
  std::atomic<size_t> torn{0};
  std::vector<std::thread> readers;
  for (int r = 0; r < 3; ++r) {
    readers.emplace_back([&] {
      while (!stop.load()) {
        const std::shared_ptr<const ShardedSnapshot> snap =
            system.PinPublished();
        const std::string first = SaveMkb(*snap->mkb);
        if (SaveMkb(*snap->mkb) != first ||
            snap->shard_versions.size() != 4) {
          torn.fetch_add(1);
        }
        pins.fetch_add(1);
      }
    });
  }
  for (const char* victim : {"R1", "R20", "R25"}) {
    ASSERT_TRUE(
        system.ApplyChange(CapabilityChange::DeleteRelation(victim)).ok());
  }
  stop.store(true);
  for (std::thread& reader : readers) reader.join();
  EXPECT_EQ(torn.load(), 0u);
  EXPECT_GT(pins.load(), 0u);
}

TEST(ShardedSystemTest, ShardStatsCountOwnedViewsAndCommits) {
  const Mkb mkb = MakeMkb();
  ShardedEveSystem system(mkb, {}, 4);
  RegisterPool(&system, mkb, 24);
  const CapabilityChange change = CapabilityChange::DeleteRelation("R1");
  // Which shards own a view the change affects, before committing it.
  std::vector<bool> has_affected(4);
  for (size_t s = 0; s < 4; ++s) {
    has_affected[s] = !system.shard(s).AffectedViews(change).empty();
  }
  ASSERT_TRUE(system.ApplyChange(change).ok());
  ASSERT_TRUE(
      system.EnqueueChange(CapabilityChange::DeleteRelation("R17")).ok());

  const std::vector<ShardStatsRow> rows = system.Stats();
  ASSERT_EQ(rows.size(), 4u);
  size_t views = 0;
  uint64_t commits = 0;
  size_t queued = 0;
  for (const ShardStatsRow& row : rows) {
    views += row.views;
    commits += row.commits;
    queued += row.queue_depth;
    EXPECT_GT(row.last_synced_version, 0u);
    // Only shards owning affected views count the commit; replica no-op
    // commits on the other shards do not inflate their stats.
    EXPECT_EQ(row.commits > 0, has_affected[row.shard])
        << "shard " << row.shard;
  }
  EXPECT_EQ(views, 24u);
  EXPECT_GT(commits, 0u);
  EXPECT_GT(queued, 0u);  // the queued R17 change affects some shard
  EXPECT_FALSE(system.RenderShardStats().empty());
}

TEST(ShardedSystemTest, CommitPhaseFailureOnLaterShardPoisons) {
  const Mkb mkb = MakeMkb();
  ShardedEveSystem system(mkb, {}, 4);
  RegisterPool(&system, mkb, 12);

  Failpoints::Instance().Reset();
  Failpoints::Instance().Arm(fp::kShardedCommitShard, FailpointAction::kError,
                             2);
  const Result<ChangeReport> report =
      system.ApplyChange(CapabilityChange::DeleteRelation("R1"));
  Failpoints::Instance().Reset();
  ASSERT_FALSE(report.ok());
  EXPECT_TRUE(system.poisoned());
  // Every further mutation is refused, and the refusal names the rebuild
  // that exists: LOAD MISD replaces the whole system.
  const Status refused =
      system.ApplyChange(CapabilityChange::DeleteRelation("R20")).status();
  EXPECT_EQ(refused.code(), StatusCode::kFailedPrecondition);
  EXPECT_NE(refused.message().find("rebuild it with LOAD MISD"),
            std::string::npos)
      << refused;
  EXPECT_EQ(system.ExtendMkb("SOURCE S RELATION Z (A int)").code(),
            StatusCode::kFailedPrecondition);
}

TEST(ShardedSystemTest, PrepareFailureLeavesNothingCommittedAnywhere) {
  const Mkb mkb = MakeMkb();
  ShardedEveSystem system(mkb, {}, 4);
  RegisterPool(&system, mkb, 12);
  const std::string before = SnapSharded(system);
  // Deleting a relation that does not exist fails in prepare on every
  // shard identically — clean abort, no poison.
  EXPECT_FALSE(
      system.ApplyChange(CapabilityChange::DeleteRelation("NoSuch")).ok());
  EXPECT_FALSE(system.poisoned());
  EXPECT_EQ(SnapSharded(system), before);
}

TEST(ShardedSystemTest, BulkRegistrationPartitionsAcrossShards) {
  ChainMkbSpec spec;
  spec.length = 16;
  const Mkb mkb = MakeChainMkb(spec).MoveValue();
  ViewPoolSpec pool_spec;
  pool_spec.num_views = 400;
  pool_spec.max_span = 2;
  const std::vector<ViewDefinition> pool =
      MakeViewPool(mkb, pool_spec).MoveValue();

  ShardedEveSystem system(mkb, {}, 4);
  const uint64_t genesis = system.shard(0).current_version();
  ASSERT_TRUE(system.RegisterViewsBulk(pool).ok());
  EXPECT_EQ(system.NumViews(), 400u);
  for (size_t s = 0; s < 4; ++s) {
    EXPECT_GT(system.shard(s).NumViews(), 0u) << "shard " << s;
    // One bulk record → ONE version per shard, not one per view.
    EXPECT_EQ(system.shard(s).current_version(), genesis + 1) << "shard " << s;
  }
}

TEST(ShardedSystemTest, SkewedViewPoolLandsOnShardZero) {
  ChainMkbSpec spec;
  spec.length = 16;
  const Mkb mkb = MakeChainMkb(spec).MoveValue();
  ViewPoolSpec pool_spec;
  pool_spec.num_views = 200;
  pool_spec.shard_skew = 1.0;
  pool_spec.skew_shards = 4;
  const std::vector<ViewDefinition> pool =
      MakeViewPool(mkb, pool_spec).MoveValue();
  for (const ViewDefinition& view : pool) {
    EXPECT_EQ(ShardOf(view.name(), 4), 0u) << view.name();
  }
}

}  // namespace
}  // namespace eve
