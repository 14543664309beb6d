// Federation simulation, in two acts.
//
// Act 1 (data level): materializes a view over the travel-agency database,
// lets the Customer source leave the federation, and shows that the
// synchronized view — evaluated over the surviving sources only — still
// answers the original question, with the extent relationship the PC
// constraints promised.
//
// Act 2 (unreliable transport): drives a FederationSimulator through a
// randomized fault schedule — leases, backoff, circuit breakers, degraded-
// mode provisional rewritings — and checks the convergence property: every
// view ends correctly rewritten, explicitly disabled, or provisional with
// a live lease. Exits nonzero on any violation, so chaos CI can run this
// binary under an EVE_FAILPOINTS matrix (the failpoint registry arms
// itself from the environment) and fail the build on silent wrongness.

#include <cstdlib>
#include <iostream>

#include "cvs/cvs.h"
#include "esql/binder.h"
#include "esql/evaluator.h"
#include "federation/simulator.h"
#include "mkb/evolution.h"
#include "workload/travel_agency.h"

namespace {

template <typename T>
T Unwrap(eve::Result<T> result, const char* what) {
  if (!result.ok()) {
    std::cerr << what << ": " << result.status() << std::endl;
    std::exit(1);
  }
  return result.MoveValue();
}

void Check(const eve::Status& status, const char* what) {
  if (!status.ok()) {
    std::cerr << what << ": " << status << std::endl;
    std::exit(1);
  }
}

// One simulator run: randomized transport faults plus a scripted capability
// change while sources are degrading. Returns the number of convergence
// violations (0 = the federation layer kept its promise).
size_t RunFaultSchedule(uint64_t seed, bool heal_within_lease) {
  eve::Mkb mkb = Unwrap(eve::MakeTravelAgencyMkb(), "building MKB");
  Check(eve::AddAccidentInsPc(&mkb), "PC constraint");
  eve::EveSystem system(std::move(mkb));
  Check(system.RegisterViewText(eve::CustomerPassengersAsiaSql()),
        "registering view");
  Check(system.RegisterViewText(eve::AsiaCustomerSql()), "registering view");

  eve::federation::SimOptions options;
  options.ticks = 400;
  options.seed = seed;
  options.fault_rate = heal_within_lease ? 0.02 : 0.08;
  options.heal_within_lease = heal_within_lease;
  if (!heal_within_lease) options.config.lease_ticks = 40;
  eve::federation::FederationSimulator sim(&system, options);
  sim.RandomizeFaults();
  sim.ScheduleChange(60, eve::CapabilityChange::DeleteRelation("RentACar"));
  sim.ScheduleChange(120, eve::CapabilityChange::DeleteRelation("Customer"));

  const eve::federation::SimResult result =
      Unwrap(sim.Run(), "running fault schedule");
  std::cout << "  seed " << seed << " ("
            << (heal_within_lease ? "healed-within-lease" : "harsh") << "): "
            << result.stats.probes << " probes, " << result.stats.failures
            << " failed, " << result.stats.state_transitions
            << " transitions, " << result.stats.departures << " departures, "
            << result.fault_windows << " fault windows, "
            << result.views_rewritten << " rewrites ("
            << result.provisional_outcomes << " provisional), "
            << result.views_disabled << " disables\n";
  for (const std::string& violation : result.violations) {
    std::cerr << "  CONVERGENCE VIOLATION: " << violation << "\n";
  }
  return result.violations.size();
}

}  // namespace

int main() {
  eve::Mkb mkb = Unwrap(eve::MakeTravelAgencyMkb(), "building MKB");
  Check(eve::AddAccidentInsPc(&mkb), "PC constraint");

  // The federation's current data.
  eve::Database db;
  Check(eve::PopulateTravelAgencyDatabase(mkb, &db, 80, /*seed=*/2026),
        "populating federation");

  // The marketing department's view: Asia-bound customers with ages.
  const eve::ViewDefinition view = Unwrap(
      eve::ParseAndBindView(R"sql(
        CREATE VIEW AsiaPassengers (VE = >=) AS
        SELECT C.Name (false, true), C.Age (false, true)
        FROM Customer C (true, true), FlightRes F
        WHERE (C.Name = F.PName) (false, true)
          AND (F.Dest = 'Asia') (false, false)
      )sql",
                            mkb.catalog()),
      "binding view");

  const eve::Table before =
      Unwrap(eve::EvaluateView(view, db, mkb.catalog()), "evaluating view");
  std::cout << "== AsiaPassengers, served by the Customer source ==\n"
            << before.ToString(8) << "\n";

  // The Customer source leaves the federation.
  const eve::CapabilityChange change =
      eve::CapabilityChange::DeleteRelation("Customer");
  std::cout << "== " << change.ToString()
            << " (the IS leaves the federation) ==\n\n";
  const eve::MkbEvolutionReport evolution =
      Unwrap(eve::EvolveMkb(mkb, change), "evolving MKB");

  const eve::CvsResult result = Unwrap(
      eve::SynchronizeDeleteRelation(view, "Customer",
                                     eve::SyncContext{mkb, evolution.mkb}),
      "running CVS");
  if (result.rewritings.empty()) {
    std::cout << "view disabled:\n";
    for (const std::string& diagnostic : result.diagnostics) {
      std::cout << "  " << diagnostic << "\n";
    }
    return 1;
  }
  const eve::SynchronizedView& best = result.rewritings.front();
  std::cout << "== Synchronized view (extent "
            << eve::ExtentRelationToString(best.legality.inferred_extent)
            << ", VE = >= satisfied) ==\n"
            << best.view.ToString() << "\n\n";

  // Drop the Customer table — the source is gone — and serve the new view
  // from the survivors. (The post-change catalog governs evaluation.)
  Check(db.DropTable("Customer"), "dropping departed source's table");
  const eve::Table after =
      Unwrap(eve::EvaluateView(best.view, db, evolution.mkb.catalog()),
             "evaluating synchronized view");
  std::cout << "== AsiaPassengers, served by Accident-Ins instead ==\n"
            << after.ToString(8) << "\n";

  std::cout << "every original answer is still present (VE = >=): "
            << (before.IsSubsetOf(after) ? "yes" : "NO") << "\n";
  if (!before.IsSubsetOf(after)) return 1;

  // Act 2: the same federation under an unreliable transport.
  std::cout << "\n== Randomized fault schedules (convergence check) ==\n";
  size_t violations = 0;
  for (uint64_t seed = 1; seed <= 3; ++seed) {
    violations += RunFaultSchedule(seed, /*heal_within_lease=*/true);
    violations += RunFaultSchedule(seed, /*heal_within_lease=*/false);
  }
  if (violations > 0) {
    std::cerr << violations << " convergence violation(s)\n";
    return 1;
  }
  std::cout << "all schedules converged: every view correctly rewritten, "
               "explicitly disabled, or provisional with a live lease\n";
  return 0;
}
