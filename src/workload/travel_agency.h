// The paper's running example (Ex. 1, Fig. 2): the travel-agency
// federation — seven relations across seven ISs, join constraints JC1–JC6
// and function-of constraints F1–F7 — plus the Ex. 4 Person extension and
// the PC constraints the extent examples rely on. Used by tests
// and examples as the canonical fixture.

#ifndef EVE_WORKLOAD_TRAVEL_AGENCY_H_
#define EVE_WORKLOAD_TRAVEL_AGENCY_H_

#include <cstdint>
#include <string>

#include "common/result.h"
#include "mkb/mkb.h"
#include "storage/database.h"

namespace eve {

// Builds the Fig. 2 MKB exactly: Customer, Tour, Participant, FlightRes,
// Accident-Ins, Hotels, RentACar; JC1–JC6; F1–F7 (F3 uses the date
// arithmetic (today − Birthday)/365 with today = 2026-07-07).
Result<Mkb> MakeTravelAgencyMkb();

// Ex. 4's extension: adds Person(Name, SSN, PAddr), the join constraint
// JC-CP (Customer.Name = Person.Name), the function-of constraint F-ADDR
// (Customer.Addr = Person.PAddr) and the PC constraint
// π[Name,PAddr](Person) ⊇ π[Name,Addr](Customer).
Status AddPersonExtension(Mkb* mkb);

// PC constraint justifying the Ex. 9/10 rewriting direction:
// π[Holder](Accident-Ins) ⊇ π[Name](Customer).
Status AddAccidentInsPc(Mkb* mkb);

// PC constraint for the FlightRes cover of Customer.Name:
// π[PName](FlightRes) ⊇ π[Name](Customer).
Status AddFlightResPc(Mkb* mkb);

// E-SQL text of the paper's views.
// Eq. (3): Asia-Customer with indispensable-replaceable C.Addr.
std::string AsiaCustomerSql();
// Eq. (5): Customer-Passengers-Asia with the full parameter annotations.
std::string CustomerPassengersAsiaSql();

// Populates `db` with a synthetic but constraint-consistent state:
//  * every Customer.Name appears in Accident-Ins.Holder and Person.Name
//    (when those relations exist), honoring the PC constraints;
//  * Accident-Ins.Birthday is derived from Customer.Age so F3 holds;
//  * FlightRes/Participant reference customer names with mixed
//    destinations so 'Asia' filters select non-trivial subsets.
// Tables are created for every catalog relation.
Status PopulateTravelAgencyDatabase(const Mkb& mkb, Database* db,
                                    size_t num_customers, uint64_t seed);

}  // namespace eve

#endif  // EVE_WORKLOAD_TRAVEL_AGENCY_H_
