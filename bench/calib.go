package main

import (
	"encoding/json"
	"fmt"
	"sort"
	"time"
)

// The reference kernel is a fixed piece of single-threaded work in the
// benchmark's own code — JSON encode and decode, map updates, small
// allocations, a sort: the instruction mix of the product — that no
// change to the product can make faster or slower. A run times it
// between its reps, and reports its times at reference speed: scaled by
// refNominalMS over what a pass of the kernel took during that run.
//
// The reason is the host. For stretches of tens of minutes this shared
// machine runs everything 1.1 to 1.4 times slower (README.md,
// Steadiness); a stretch moves every rep of a run, the fastest
// included, so no statistic over the reps removes it, and a change of
// stretch between two sets of runs of the same code reads as a
// regression beyond any bound. The kernel sees the same stretch. The
// correction is crude — the workloads lose between 1.1× and 1.4× where
// the kernel loses about 1.25× — but what it leaves is a third of what
// it takes away.

// refNominalMS is a pass of the kernel on the machine the workloads
// were sized on, in a quiet stretch. It only fixes the scale of the
// reported numbers.
const refNominalMS = 1.6

// refShare is the share of a run's measuring time spent in the kernel.
const refShare = 0.08

type refRecord struct {
	LSN  int64  `json:"lsn"`
	Type string `json:"type"`
	Proc string `json:"proc"`
	Tx   int64  `json:"tx"`
}

var refSink int

func referencePass() time.Duration {
	start := time.Now()
	m := make(map[string]int, 64)
	keys := make([]string, 0, 1024)
	for i := 0; i < 1000; i++ {
		rec := refRecord{LSN: int64(i), Type: "invoke", Proc: string(rune('A'+i%26)) + "x", Tx: int64(i * 7)}
		b, _ := json.Marshal(rec)
		var back refRecord
		_ = json.Unmarshal(b, &back)
		m[back.Proc] += len(b)
		keys = append(keys, back.Proc+string(b[:8]))
	}
	sort.Strings(keys)
	refSink += len(keys) + len(m)
	return time.Since(start)
}

// calibration collects a run's passes of the reference kernel.
type calibration struct{ passMS []float64 }

// sample runs the kernel for refShare of d, the time the reps around it
// take, and at least three passes.
func (c *calibration) sample(d time.Duration) {
	start := time.Now()
	for n := 0; n < 3 || time.Since(start) < time.Duration(refShare*float64(d)); n++ {
		c.passMS = append(c.passMS, ms(referencePass()))
	}
}

// toReference is the factor that takes a time measured during the run
// to reference speed; 1 when the run took no sample. It reads the
// passes as the workloads read their reps.
func (c *calibration) toReference() float64 {
	if len(c.passMS) == 0 {
		return 1
	}
	return refNominalMS / fasterHalf(c.passMS)
}

// atReference stores a run's time of the operation and its set-up time
// in the report at reference speed, notes what was measured, and
// returns the scaled time of the operation. fixedMS is the part of the
// operation's time that no processor speed changes — what rt-durable's
// modelled device cost — and is not scaled.
func (r *report) atReference(c *calibration, opMS, fixedMS, setupS float64, n int) float64 {
	k := c.toReference()
	scaled := fixedMS + (opMS-fixedMS)*k
	r.E2E["op_ms"] = value{scaled, n}
	r.E2E["setup_s"] = value{setupS * k, n}
	if len(c.passMS) > 0 {
		r.Notes = append(r.Notes, fmt.Sprintf("times are at reference speed: the reference kernel took %.3f ms a pass (%d passes; nominal %.1f ms), so they are scaled by %.3f; as measured: op_ms %.3f (%.3f of it on the modelled device, unscaled), setup_s %.4f",
			fasterHalf(c.passMS), len(c.passMS), refNominalMS, k, opMS, fixedMS, setupS))
	}
	return scaled
}
