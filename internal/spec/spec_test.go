package spec

import (
	"strings"
	"testing"

	"transproc/internal/scheduler"
)

const validDoc = `{
  "subsystems": [
    {"name": "hotel", "seed": 1, "services": [
      {"name": "book", "kind": "compensatable", "writes": ["rooms"], "cost": 2},
      {"name": "bookBudget", "kind": "compensatable", "writes": ["budgetRooms"], "cost": 1},
      {"name": "confirm", "kind": "retriable", "writes": ["mail"]}
    ]},
    {"name": "bank", "seed": 2, "services": [
      {"name": "charge", "kind": "pivot", "writes": ["ledger"], "cost": 3}
    ]}
  ],
  "processes": [
    {"id": "Trip1",
     "activities": [
       {"local": 1, "service": "book"},
       {"local": 2, "service": "bookBudget"},
       {"local": 3, "service": "charge"},
       {"local": 4, "service": "confirm"},
       {"local": 5, "service": "charge"},
       {"local": 6, "service": "confirm"}
     ],
     "chains": [{"from": 1, "alts": [3, 5]}],
     "seq": [[2, 1], [3, 4], [5, 6]]
    },
    {"id": "Trip2",
     "activities": [
       {"local": 1, "service": "book"},
       {"local": 2, "service": "charge"},
       {"local": 3, "service": "confirm"}
     ],
     "seq": [[1, 2], [2, 3]],
     "arrival": 5
    }
  ]
}`

func TestLoadAndRun(t *testing.T) {
	t.Parallel()
	fed, jobs, err := Load([]byte(validDoc))
	if err != nil {
		t.Fatal(err)
	}
	if len(jobs) != 2 {
		t.Fatalf("jobs = %d", len(jobs))
	}
	if jobs[1].Arrival != 5 {
		t.Fatalf("arrival = %d", jobs[1].Arrival)
	}
	// Default compensation name derived.
	spec, ok := fed.Spec("book⁻¹")
	if !ok {
		t.Fatalf("auto compensation not registered")
	}
	_ = spec
	eng, err := scheduler.New(fed, scheduler.Config{Mode: scheduler.PRED})
	if err != nil {
		t.Fatal(err)
	}
	res, err := eng.RunJobs(jobs)
	if err != nil {
		t.Fatal(err)
	}
	if res.Metrics.CommittedProcs != 2 {
		t.Fatalf("both processes must commit: %+v", res.Metrics)
	}
	ok2, _, _, err := res.Schedule.PRED()
	if err != nil || !ok2 {
		t.Fatalf("PRED = %v, %v", ok2, err)
	}
}

func TestParseErrors(t *testing.T) {
	t.Parallel()
	cases := []struct {
		name string
		doc  string
		want string
	}{
		{"bad json", `{`, "spec:"},
		{"unknown field", `{"subsystems": [{"nope": 1}], "processes": []}`, "unknown field"},
		{"no subsystems", `{"subsystems": [], "processes": [{"id": "x"}]}`, "no subsystems"},
		{"no processes", `{"subsystems": [{"name": "a"}], "processes": []}`, "no processes"},
		{"trailing", validDoc + `{"x": 1}`, "trailing data"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			_, err := Parse([]byte(c.doc))
			if err == nil || !strings.Contains(err.Error(), c.want) {
				t.Fatalf("err = %v, want fragment %q", err, c.want)
			}
		})
	}
}

func TestBuildErrors(t *testing.T) {
	t.Parallel()
	cases := []struct {
		name string
		doc  string
		want string
	}{
		{
			"unknown kind",
			`{"subsystems": [{"name": "a", "services": [{"name": "s", "kind": "magic"}]}],
			  "processes": [{"id": "P", "activities": [{"local": 1, "service": "s"}]}]}`,
			"unknown kind",
		},
		{
			"unknown service",
			`{"subsystems": [{"name": "a", "services": [{"name": "s", "kind": "retriable"}]}],
			  "processes": [{"id": "P", "activities": [{"local": 1, "service": "ghost"}]}]}`,
			"unknown service",
		},
		{
			"missing id",
			`{"subsystems": [{"name": "a", "services": [{"name": "s", "kind": "retriable"}]}],
			  "processes": [{"id": "", "activities": [{"local": 1, "service": "s"}]}]}`,
			"without id",
		},
		{
			"ill-formed process",
			`{"subsystems": [{"name": "a", "services": [
			    {"name": "p", "kind": "pivot"},
			    {"name": "c", "kind": "compensatable"}]}],
			  "processes": [{"id": "P",
			    "activities": [{"local": 1, "service": "p"}, {"local": 2, "service": "c"}],
			    "seq": [[1, 2]]}]}`,
			"guaranteed termination",
		},
		{
			"duplicate subsystem",
			`{"subsystems": [{"name": "a", "services": [{"name": "s", "kind": "retriable"}]},
			                 {"name": "a", "services": []}],
			  "processes": [{"id": "P", "activities": [{"local": 1, "service": "s"}]}]}`,
			"duplicate subsystem",
		},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			f, err := Parse([]byte(c.doc))
			if err != nil {
				t.Fatalf("parse: %v", err)
			}
			_, _, err = f.Build()
			if err == nil || !strings.Contains(err.Error(), c.want) {
				t.Fatalf("err = %v, want fragment %q", err, c.want)
			}
		})
	}
}

func TestAlternativeChainFromSpec(t *testing.T) {
	t.Parallel()
	fed, jobs, err := Load([]byte(validDoc))
	if err != nil {
		t.Fatal(err)
	}
	// Force the preferred charge of Trip1 to fail once: the process
	// must take the alternative branch (5, 6).
	bank, _ := fed.Subsystem("bank")
	bank.ForceFail("charge", 1)
	eng, _ := scheduler.New(fed, scheduler.Config{Mode: scheduler.PRED})
	res, err := eng.RunJobs(jobs[:1])
	if err != nil {
		t.Fatal(err)
	}
	if !res.Outcomes["Trip1"].Committed {
		t.Fatalf("Trip1 must commit via the alternative: %s", res.Schedule)
	}
}

// A commutative service that reads an item it writes returns a value that
// depends on invocation order: the derived table must make it conflict
// with itself (the subsystem's item locks block the pair either way),
// while a blind commutative writer still commutes with itself.
func TestCommutativeReadOwnWriteFromSpec(t *testing.T) {
	t.Parallel()
	fed, jobs, err := Load([]byte(`{
  "subsystems": [{"name": "desk", "seed": 1, "services": [
    {"name": "takeTicket", "kind": "compensatable", "reads": ["ticket"], "writes": ["ticket"], "commutative": true},
    {"name": "countVisit", "kind": "retriable", "writes": ["visits"], "commutative": true}
  ]}],
  "processes": [
    {"id": "A", "activities": [{"local": 1, "service": "takeTicket"}, {"local": 2, "service": "countVisit"}], "seq": [[1, 2]]},
    {"id": "B", "activities": [{"local": 1, "service": "takeTicket"}, {"local": 2, "service": "countVisit"}], "seq": [[1, 2]]}
  ]
}`))
	if err != nil {
		t.Fatal(err)
	}
	table, err := fed.ConflictTable()
	if err != nil {
		t.Fatal(err)
	}
	if !table.Conflicts("takeTicket", "takeTicket") || !table.Conflicts("takeTicket", "takeTicket⁻¹") {
		t.Fatal("takeTicket reads the ticket it writes: it must conflict with itself and its compensation")
	}
	if table.Conflicts("countVisit", "countVisit") {
		t.Fatal("countVisit writes blindly and is declared commutative: it commutes with itself")
	}
	eng, err := scheduler.New(fed, scheduler.Config{Mode: scheduler.PRED})
	if err != nil {
		t.Fatal(err)
	}
	res, err := eng.RunJobs(jobs)
	if err != nil {
		t.Fatal(err)
	}
	if res.Metrics.CommittedProcs != 2 {
		t.Fatalf("both processes must commit: %+v", res.Metrics)
	}
	if ok, _, _, err := res.Schedule.PRED(); err != nil || !ok {
		t.Fatalf("PRED = %v, %v", ok, err)
	}
}
