#include "shadow.h"

#include <optional>
#include <sstream>
#include <vector>

#include "cvs/cost_model.h"
#include "cvs/cvs.h"
#include "cvs/extent.h"
#include "cvs/legality.h"
#include "cvs/r_mapping.h"
#include "cvs/r_replacement.h"
#include "cvs/rewriting.h"
#include "eve/view_pool_io.h"
#include "hypergraph/join_graph.h"
#include "mkb/evolution.h"
#include "mkb/version_store.h"

namespace perfbench {

const char* const kApplyLayers[] = {
    "mkb.evolution.evolve",     "eve.system.affected",
    "hypergraph.join_graph.build", "cvs.synchronize",
    "eve.view_pool_io.render",  "mkb.version_store.commit",
    "eve.journal.append",
};
const size_t kNumApplyLayers = sizeof(kApplyLayers) / sizeof(kApplyLayers[0]);

namespace {

// The R-mapping / R-replacement / legality steps of one delete-relation
// synchronization, each timed on its own (the same calls, in the same
// order, that SynchronizeDeleteRelation makes; shadow detail spans).
bool ShadowDeleteRelationDetail(const eve::ViewDefinition& view,
                                const std::string& relation,
                                const eve::CapabilityChange& change,
                                const eve::SyncContext& context,
                                const eve::CvsOptions& options,
                                Tracer* tracer, uint64_t op, int parent,
                                std::string* error) {
  std::optional<eve::RMapping> mapping;
  {
    ScopedSpan span(tracer, "cvs.r_mapping", op, parent, true);
    eve::Result<eve::RMapping> computed =
        eve::ComputeRMapping(view, relation, context.mkb());
    if (!computed.ok()) {
      *error = "ComputeRMapping: " + computed.status().ToString();
      return false;
    }
    mapping.emplace(computed.MoveValue());
  }
  const eve::RewritingCostModel model = eve::DefaultRankingCostModel();
  std::vector<eve::ReplacementCandidate> candidates;
  {
    ScopedSpan span(tracer, "cvs.r_replacement", op, parent, true);
    eve::Result<eve::CandidateStream> stream = eve::CandidateStream::Create(
        view, *mapping, context.mkb(), context.graph_prime(),
        options.replacement, model);
    if (stream.ok()) {
      const size_t cap = options.replacement.max_results;
      while (cap == 0 || candidates.size() < cap) {
        std::optional<eve::ReplacementCandidate> next = stream.value().Next();
        if (!next.has_value()) break;
        candidates.push_back(std::move(*next));
      }
    }
  }
  {
    ScopedSpan span(tracer, "cvs.legality", op, parent, true);
    for (const eve::ReplacementCandidate& candidate : candidates) {
      eve::Result<eve::ViewDefinition> spliced = eve::SpliceRewriting(
          view, *mapping, candidate, view.name() + "'");
      if (!spliced.ok()) continue;
      std::map<eve::AttributeRef, eve::ExprPtr> substitution;
      for (const eve::AttributeReplacement& repl : candidate.replacements) {
        substitution.emplace(repl.original, repl.replacement);
      }
      const eve::ExtentRelation extent = eve::InferExtentRelation(
          view, spliced.value(), *mapping, candidate, context.mkb());
      eve::CheckLegality(view, spliced.value(), change, context.mkb_prime(),
                         extent, substitution);
    }
  }
  return true;
}

}  // namespace

bool ShadowChange(const eve::EveSystem& system,
                  const eve::CapabilityChange& change, eve::Journal* scratch,
                  Tracer* tracer, uint64_t op, ShadowCounts* counts,
                  std::string* error) {
  ScopedSpan root(tracer, "shadow.change", op, -1, true);
  const int parent = root.id();
  ++counts->changes;

  const eve::PinnedMkb base = system.versions().Tip();
  std::shared_ptr<const eve::Mkb> next;
  {
    ScopedSpan span(tracer, "mkb.evolution.evolve", op, parent, true);
    eve::Result<eve::MkbEvolutionReport> evolved =
        eve::EvolveMkb(*base.mkb, change);
    if (!evolved.ok()) {
      *error = "EvolveMkb: " + evolved.status().ToString();
      return false;
    }
    next = std::make_shared<const eve::Mkb>(std::move(evolved.value().mkb));
  }
  std::vector<std::string> affected;
  {
    ScopedSpan span(tracer, "eve.system.affected", op, parent, true);
    affected = system.AffectedViews(change);
  }
  counts->affected_views += affected.size();
  const eve::SyncContext context(base.mkb, next, base.id());
  const bool delete_relation =
      change.kind == eve::CapabilityChange::Kind::kDeleteRelation;
  if (delete_relation && !affected.empty()) {
    // The real path builds the join graph of MKB' once per change, lazily,
    // on the first affected view.
    ScopedSpan span(tracer, "hypergraph.join_graph.build", op, parent, true);
    context.graph_prime();
  }
  eve::CvsOptions options;
  options.top_k = system.sync_top_k();
  options.candidate_budget = system.sync_candidate_budget();
  for (const std::string& name : affected) {
    eve::Result<const eve::RegisteredView*> view = system.GetView(name);
    if (!view.ok()) {
      *error = "GetView: " + view.status().ToString();
      return false;
    }
    const eve::ViewDefinition& definition = view.value()->definition;
    {
      ScopedSpan span(tracer, "cvs.synchronize", op, parent, true);
      eve::Result<eve::CvsResult> result =
          eve::Synchronize(definition, change, context, options);
      if (!result.ok()) {
        *error = "Synchronize: " + result.status().ToString();
        return false;
      }
      counts->candidates_pulled += result.value().enumeration.candidates_yielded;
      counts->rewritings += result.value().rewritings.size();
      counts->trees_expanded += result.value().enumeration.trees_expanded;
    }
    if (delete_relation) {
      ScopedSpan detail(tracer, "shadow.cvs_detail", op, -1, true);
      if (!ShadowDeleteRelationDetail(definition, change.relation, change,
                                      context, options, tracer, op,
                                      detail.id(), error)) {
        return false;
      }
    }
  }
  std::string views_text;
  {
    ScopedSpan span(tracer, "eve.view_pool_io.render", op, parent, true);
    views_text = eve::SaveViews(system);
  }
  eve::MkbVersionStore copy = system.versions();
  const uint64_t before = copy.ByteStats().retained_bytes;
  {
    ScopedSpan span(tracer, "mkb.version_store.commit", op, parent, true);
    copy.Commit(next, std::move(views_text), change.ToString());
  }
  counts->version_bytes += copy.ByteStats().retained_bytes - before;
  {
    ScopedSpan span(tracer, "eve.journal.append", op, parent, true);
    const eve::Status a = scratch->Append(eve::JournalRecordKind::kApplyChange,
                                          eve::SerializeChange(change));
    const eve::Status b =
        scratch->Append(eve::JournalRecordKind::kVersionCommit,
                        std::to_string(base.id() + 1));
    if (!a.ok() || !b.ok()) {
      *error = "Journal::Append on the scratch journal failed";
      return false;
    }
  }
  return true;
}

std::map<std::string, double> MeanShadowUs(const Tracer& tracer,
                                           uint64_t changes) {
  std::map<std::string, double> means;
  if (changes == 0) return means;
  for (const auto& [name, totals] : tracer.Totals(true)) {
    means[name] = static_cast<double>(totals.total_ns) / 1e3 /
                  static_cast<double>(changes);
  }
  return means;
}

void SetShadowMetrics(const Tracer& tracer, const ShadowCounts& counts,
                      RunResult* result) {
  std::map<std::string, double> us = MeanShadowUs(tracer, counts.changes);
  const double n = counts.changes > 0 ? static_cast<double>(counts.changes) : 1;
  result->Set("eve.system.affected_views",
              static_cast<double>(counts.affected_views) / n, "count");
  result->Set("eve.view_pool_io.render_us", us["eve.view_pool_io.render"], "us");
  result->Set("eve.journal.append_us", us["eve.journal.append"], "us");
  result->Set("mkb.version_store.commit_us", us["mkb.version_store.commit"],
              "us");
  result->Set("mkb.version_store.bytes_per_commit",
              static_cast<double>(counts.version_bytes) / n, "B");
  result->Set("mkb.evolution.evolve_us", us["mkb.evolution.evolve"], "us");
  result->Set("hypergraph.join_graph.build_us",
              us["hypergraph.join_graph.build"], "us");
  result->Set("hypergraph.trees_expanded",
              static_cast<double>(counts.trees_expanded) / n, "count");
  result->Set("cvs.synchronize_us", us["cvs.synchronize"], "us");
  result->Set("cvs.r_mapping_us", us["cvs.r_mapping"], "us");
  result->Set("cvs.r_replacement_us", us["cvs.r_replacement"], "us");
  result->Set("cvs.legality_us", us["cvs.legality"], "us");
  result->Set("cvs.candidates_pulled",
              static_cast<double>(counts.candidates_pulled) / n, "count");
  result->Set("cvs.accept_ratio",
              counts.candidates_pulled > 0
                  ? static_cast<double>(counts.rewritings) /
                        static_cast<double>(counts.candidates_pulled)
                  : 0.0,
              "ratio");
}

const std::vector<std::pair<std::string, std::string>>& PerLayerMetrics() {
  static const std::vector<std::pair<std::string, std::string>> kMetrics = {
      {"net.protocol.response_bytes", "B"},
      {"net.protocol.frame_us", "us"},
      {"net.rtt_overhead_us", "us"},
      {"net.console.run_us", "us"},
      {"net.replication.ack_wait_us", "us"},
      {"net.replication.lag_records", "count"},
      {"eve.system.affected_views", "count"},
      {"eve.system.apply_us", "us"},
      {"eve.view_pool_io.render_us", "us"},
      {"eve.view_pool_io.load_s", "s"},
      {"eve.journal.append_us", "us"},
      {"eve.journal.appends_per_change", "count"},
      {"eve.materialization.refresh_us", "us"},
      {"eve.materialization.path_equal", "count"},
      {"eve.materialization.path_superset", "count"},
      {"eve.materialization.path_subset", "count"},
      {"eve.materialization.path_full", "count"},
      {"mkb.version_store.commit_us", "us"},
      {"mkb.version_store.bytes_per_commit", "B"},
      {"mkb.evolution.evolve_us", "us"},
      {"hypergraph.join_graph.build_us", "us"},
      {"hypergraph.trees_expanded", "count"},
      {"cvs.synchronize_us", "us"},
      {"cvs.r_mapping_us", "us"},
      {"cvs.r_replacement_us", "us"},
      {"cvs.legality_us", "us"},
      {"cvs.candidates_pulled", "count"},
      {"cvs.accept_ratio", "ratio"},
      {"cvs.truncated_views", "count"},
      {"esql.parse_bind_us", "us"},
      {"algebra.execute_us", "us"},
      {"algebra.rows_scanned", "count"},
      {"algebra.rows_out", "count"},
      {"algebra.cartesian_fallbacks", "count"},
      {"storage.extent_rows", "count"},
      {"trace.unattributed_us", "us"},
      {"trace.overhead_pct", "%"},
      {"harness.change_p90_ms", "ms"},
      {"harness.drift_ratio", "ratio"},
      {"harness.read_lateness_p99_us", "us"},
      {"harness.read_p90_us", "us"},
      {"harness.read_p99_us", "us"},
  };
  return kMetrics;
}

void CompletePerLayer(RunResult* result) {
  std::vector<std::pair<std::string, Metric>> ordered;
  for (const auto& [name, unit] : PerLayerMetrics()) {
    Metric metric{0.0, unit};
    for (const auto& [have, value] : result->metrics) {
      if (have == name) metric = value;
    }
    ordered.push_back({name, metric});
  }
  result->metrics = std::move(ordered);
}

void Reconcile(const std::string& e2e_name, double e2e_mean_us,
               const std::vector<std::pair<std::string, double>>& layers,
               RunResult* result) {
  double attributed = 0.0;
  std::ostringstream os;
  os.precision(12);
  os << "reconciliation of " << e2e_name << " (mean us per change): e2e "
     << e2e_mean_us;
  for (const auto& [name, us] : layers) {
    os << " | " << name << " " << us;
    attributed += us;
  }
  const double unattributed = e2e_mean_us - attributed;
  os << " | unattributed " << unattributed;
  result->Note(os.str());
  result->Set("trace.unattributed_us", unattributed, "us");
}

void NoteSpanTotals(const Tracer& tracer, RunResult* result) {
  for (const bool shadow : {false, true}) {
    for (const auto& [name, totals] : tracer.Totals(shadow)) {
      std::ostringstream os;
      os << (shadow ? "shadow" : "real") << " span " << name << ": "
         << totals.count << " spans, self " << totals.self_ns / 1000
         << " us, total " << totals.total_ns / 1000 << " us";
      result->Note(os.str());
    }
  }
}

}  // namespace perfbench
