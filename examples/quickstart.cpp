// Quickstart: reproduces the paper's running example end to end.
//
//  1. Build the Fig. 2 travel-agency MKB.
//  2. Define the Customer-Passengers-Asia view (Eq. 5) in E-SQL.
//  3. Apply the capability change "delete-relation Customer".
//  4. Run CVS and print every legal rewriting — including the paper's
//     Eq. (13) rewriting through Accident-Ins with Age = f(Birthday).

#include <cstdlib>
#include <iostream>

#include "cvs/cvs.h"
#include "esql/binder.h"
#include "esql/evaluator.h"
#include "mkb/evolution.h"
#include "workload/travel_agency.h"

namespace {

// Aborts with a message when a fallible step fails (example-only idiom).
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

}  // namespace

int main() {
  // --- 1. The meta-knowledge base (paper Fig. 2) -------------------------
  eve::Mkb mkb = Unwrap(eve::MakeTravelAgencyMkb(), "building MKB");
  Check(eve::AddAccidentInsPc(&mkb), "adding PC constraint");
  std::cout << "== MKB ==\n" << mkb.ToString() << "\n";

  // --- 2. The E-SQL view (paper Eq. 5) ------------------------------------
  const eve::ViewDefinition view =
      Unwrap(eve::ParseAndBindView(eve::CustomerPassengersAsiaSql(),
                                   mkb.catalog()),
             "parsing view");
  std::cout << "== View ==\n" << view.ToString() << "\n\n";

  // --- 3. The capability change ------------------------------------------
  const eve::CapabilityChange change =
      eve::CapabilityChange::DeleteRelation("Customer");
  eve::MkbEvolutionReport evolution =
      Unwrap(eve::EvolveMkb(mkb, change), "evolving MKB");
  std::cout << "== " << change.ToString() << " ==\ndropped constraints:";
  for (const std::string& id : evolution.dropped_constraints) {
    std::cout << " " << id;
  }
  std::cout << "\n\n";

  // --- 4. CVS ---------------------------------------------------------------
  const eve::CvsResult result = Unwrap(
      eve::SynchronizeDeleteRelation(view, "Customer",
                                     eve::SyncContext{mkb, evolution.mkb}),
      "running CVS");

  std::cout << "== Legal rewritings (" << result.rewritings.size()
            << ") ==\n";
  for (const eve::SynchronizedView& rewriting : result.rewritings) {
    std::cout << rewriting.ToString() << "\n\n";
  }
  for (const std::string& diagnostic : result.diagnostics) {
    std::cout << "note: " << diagnostic << "\n";
  }

  if (result.rewritings.empty()) {
    std::cerr << "expected CVS to preserve the view" << std::endl;
    return 1;
  }

  // --- 5. Evaluate old and new over a consistent database -----------------
  eve::Database db;
  Check(eve::PopulateTravelAgencyDatabase(mkb, &db, 40, /*seed=*/7),
        "populating database");
  const eve::FunctionRegistry registry = eve::FunctionRegistry::Default();
  const eve::Table before =
      Unwrap(eve::EvaluateView(view, db, mkb.catalog(), &registry),
             "evaluating original view");
  const eve::Table after = Unwrap(
      eve::EvaluateView(result.rewritings.front().view, db,
                        evolution.mkb.catalog(), &registry),
      "evaluating rewritten view");
  std::cout << "== Extents ==\noriginal (" << before.NumRows() << " rows)\n"
            << before.ToString(5) << "\nrewritten (" << after.NumRows()
            << " rows)\n"
            << after.ToString(5) << std::endl;
  return 0;
}
