// Command travel implements the classic flex-transaction trip booking:
// book a flight and a hotel (compensatable), pay (pivot), then issue
// tickets and vouchers (retriable) — with a cheaper fallback hotel as an
// alternative execution path. Several concurrent trips compete for the
// same inventory; the PRED scheduler interleaves them correctly even
// when bookings fail.
package main

import (
	"fmt"
	"log"

	"transproc"
)

func buildFederation(seed int64) *transproc.Federation {
	fed := transproc.NewFederation()

	air := transproc.NewSubsystem("airline", seed)
	air.MustRegister(transproc.ServiceSpec{
		Name: "bookFlight", Kind: transproc.Compensatable, Subsystem: "airline",
		Compensation: "bookFlight⁻¹", WriteSet: []string{"seats"}, Cost: 3,
	})
	air.MustRegister(transproc.ServiceSpec{
		Name: "issueTicket", Kind: transproc.Retriable, Subsystem: "airline",
		WriteSet: []string{"tickets"}, Cost: 1, FailureProb: 0.2,
	})
	fed.MustAdd(air)

	hotels := transproc.NewSubsystem("hotels", seed+1)
	hotels.MustRegister(transproc.ServiceSpec{
		Name: "bookGrand", Kind: transproc.Compensatable, Subsystem: "hotels",
		Compensation: "bookGrand⁻¹", WriteSet: []string{"grandRooms"}, Cost: 3,
	})
	hotels.MustRegister(transproc.ServiceSpec{
		Name: "bookBudget", Kind: transproc.Compensatable, Subsystem: "hotels",
		Compensation: "bookBudget⁻¹", WriteSet: []string{"budgetRooms"}, Cost: 2,
	})
	hotels.MustRegister(transproc.ServiceSpec{
		Name: "voucher", Kind: transproc.Retriable, Subsystem: "hotels",
		WriteSet: []string{"vouchers"}, Cost: 1,
	})
	fed.MustAdd(hotels)

	bank := transproc.NewSubsystem("bank", seed+2)
	bank.MustRegister(transproc.ServiceSpec{
		Name: "charge", Kind: transproc.Pivot, Subsystem: "bank",
		WriteSet: []string{"ledger"}, Cost: 4,
	})
	fed.MustAdd(bank)

	return fed
}

// trip builds a process:
//
//	bookFlight ≪ (bookGrand ◁ bookBudget), each booking followed by its
//	own charge ≪ issueTicket ≪ voucher continuation.
//
// Alternative execution paths are disjoint branches (each alternative is
// a complete continuation in the flex transaction model), so the
// fallback branch repeats the charge/ticket/voucher activities with its
// own local ids. If booking the Grand fails, the budget branch runs; if
// a charge (the pivot) fails, everything is compensated (backward
// recovery).
func trip(id transproc.ProcessID) *transproc.Process {
	return transproc.NewProcess(id).
		Add(1, "bookFlight", transproc.Compensatable).
		Add(2, "bookGrand", transproc.Compensatable).
		Add(3, "bookBudget", transproc.Compensatable).
		Add(4, "charge", transproc.Pivot).
		Add(5, "issueTicket", transproc.Retriable).
		Add(6, "voucher", transproc.Retriable).
		Add(7, "charge", transproc.Pivot).
		Add(8, "issueTicket", transproc.Retriable).
		Add(9, "voucher", transproc.Retriable).
		Chain(1, 2, 3). // preferred Grand, fallback Budget
		Seq(2, 4).Seq(4, 5).Seq(5, 6).
		Seq(3, 7).Seq(7, 8).Seq(8, 9).
		MustBuild()
}

func main() {
	fed := buildFederation(7)
	hotels, _ := fed.Subsystem("hotels")
	// The Grand has one last room: the second booking attempt fails.
	hotels.ForceFail("bookGrand", 1)

	// The preferred branch of trip T2 will fail at bookGrand... but the
	// failure could hit any trip depending on interleaving; what is
	// guaranteed is that every trip terminates: preferred path, fallback
	// path, or effect-free abort.
	eng, err := transproc.NewEngine(fed, transproc.Config{Mode: transproc.PRED})
	if err != nil {
		log.Fatal(err)
	}
	res, err := eng.Run([]*transproc.Process{trip("T1"), trip("T2"), trip("T3")})
	if err != nil {
		log.Fatal(err)
	}

	fmt.Println("schedule:", res.Schedule)
	ok, _, _, _ := res.Schedule.PRED()
	fmt.Println("prefix-reducible:", ok)
	for _, id := range []transproc.ProcessID{"T1", "T2", "T3"} {
		out := res.Outcomes[id]
		fmt.Printf("%s: committed=%v aborted=%v\n", id, out.Committed, out.Aborted)
	}
	fmt.Printf("grandRooms=%d budgetRooms=%d seats=%d ledger=%d tickets=%d vouchers=%d\n",
		hotels.Get("grandRooms"), hotels.Get("budgetRooms"),
		mustSub(fed, "airline").Get("seats"), mustSub(fed, "bank").Get("ledger"),
		mustSub(fed, "airline").Get("tickets"), hotels.Get("vouchers"))
	fmt.Printf("metrics: makespan=%d retries=%d compensations=%d deferrals=%d\n",
		res.Metrics.Makespan, res.Metrics.Retries, res.Metrics.Compensations, res.Metrics.Deferrals)
}

func mustSub(fed *transproc.Federation, name string) *transproc.Subsystem {
	s, ok := fed.Subsystem(name)
	if !ok {
		log.Fatalf("missing subsystem %s", name)
	}
	return s
}
