package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"transproc/internal/spec"
	"transproc/internal/subsystem"
	"transproc/internal/wal"
)

// testWorld is a small fixed federation: a compensatable booking, a
// pivot charge and a retriable confirmation across two subsystems.
func testWorld(t *testing.T) *subsystem.Federation {
	t.Helper()
	fed, err := spec.BuildFederation([]spec.SubsystemSpec{
		{Name: "hotel", Seed: 1, Services: []spec.ServiceSpec{
			{Name: "book", Kind: "compensatable", Writes: []string{"rooms"}, Cost: 1},
			{Name: "confirm", Kind: "retriable", Writes: []string{"mail"}, Cost: 1},
		}},
		{Name: "pay", Seed: 2, Services: []spec.ServiceSpec{
			{Name: "charge", Kind: "pivot", Writes: []string{"ledger"}, Cost: 1},
			{Name: "refund", Kind: "retriable", Writes: []string{"ledger"}, Cost: 1},
		}},
	})
	if err != nil {
		t.Fatal(err)
	}
	return fed
}

func tripSpec(id string) spec.ProcessSpec {
	return spec.ProcessSpec{
		ID: id,
		Activities: []spec.ActivitySpec{
			{Local: 1, Service: "book"},
			{Local: 2, Service: "charge"},
			{Local: 3, Service: "confirm"},
		},
		Seq: [][2]int{{1, 2}, {2, 3}},
	}
}

func postJSON(t *testing.T, url string, body any) (*http.Response, []byte) {
	t.Helper()
	data, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url, "application/json", bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var buf bytes.Buffer
	buf.ReadFrom(resp.Body)
	return resp, buf.Bytes()
}

func getJSON(t *testing.T, url string, v any) int {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if v != nil {
		if err := json.NewDecoder(resp.Body).Decode(v); err != nil {
			t.Fatalf("decode %s: %v", url, err)
		}
	}
	return resp.StatusCode
}

// TestServeLifecycle drives the full happy path over real HTTP:
// submit, status, list, SSE, drain, restart with nothing to resume.
func TestServeLifecycle(t *testing.T) {
	dir := t.TempDir()
	srv, err := Open(testWorld(t), Config{Dir: dir, NoSync: true})
	if err != nil {
		t.Fatal(err)
	}
	addr, err := srv.Start("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	base := "http://" + addr

	if code := getJSON(t, base+"/healthz", nil); code != http.StatusOK {
		t.Fatalf("healthz: %d", code)
	}
	if code := getJSON(t, base+"/readyz", nil); code != http.StatusOK {
		t.Fatalf("readyz: %d", code)
	}

	const n = 6
	for i := 0; i < n; i++ {
		resp, body := postJSON(t, base+"/v1/processes", SubmitRequest{
			Tenant: "acme", Key: fmt.Sprintf("k%d", i), Proc: tripSpec(fmt.Sprintf("trip%d", i)),
		})
		if resp.StatusCode != http.StatusAccepted {
			t.Fatalf("submit %d: %d %s", i, resp.StatusCode, body)
		}
	}
	// Idempotent retry dedupes.
	resp, body := postJSON(t, base+"/v1/processes", SubmitRequest{
		Tenant: "acme", Key: "k0", Proc: tripSpec("trip0"),
	})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("dedupe: %d %s", resp.StatusCode, body)
	}
	var dedup SubmitResponse
	if err := json.Unmarshal(body, &dedup); err != nil || !dedup.Deduped {
		t.Fatalf("dedupe response: %s (err %v)", body, err)
	}
	// Same id without a key conflicts.
	if resp, _ := postJSON(t, base+"/v1/processes", SubmitRequest{Tenant: "acme", Proc: tripSpec("trip0")}); resp.StatusCode != http.StatusConflict {
		t.Fatalf("duplicate id: want 409, got %d", resp.StatusCode)
	}
	// Unknown service is a 400.
	bad := tripSpec("badproc")
	bad.Activities[0].Service = "no-such-service"
	if resp, _ := postJSON(t, base+"/v1/processes", SubmitRequest{Tenant: "acme", Proc: bad}); resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("bad service: want 400, got %d", resp.StatusCode)
	}

	if !srv.WaitIdle(10 * time.Second) {
		t.Fatal("server never went idle")
	}
	var st Status
	if code := getJSON(t, base+"/v1/processes/acme/trip0", &st); code != http.StatusOK {
		t.Fatalf("status: %d", code)
	}
	if st.State != stateCommitted || !st.Final {
		t.Fatalf("trip0 not committed: %+v", st)
	}

	var list ListResponse
	if code := getJSON(t, base+"/v1/processes?tenant=acme&limit=4", &list); code != http.StatusOK {
		t.Fatalf("list: %d", code)
	}
	if list.Total != n || len(list.Items) != 4 || list.NextOffset != 4 {
		t.Fatalf("list page 1: total=%d items=%d next=%d", list.Total, len(list.Items), list.NextOffset)
	}
	var page2 ListResponse
	getJSON(t, base+fmt.Sprintf("/v1/processes?tenant=acme&limit=4&offset=%d", list.NextOffset), &page2)
	if len(page2.Items) != n-4 || page2.NextOffset != 0 {
		t.Fatalf("list page 2: items=%d next=%d", len(page2.Items), page2.NextOffset)
	}

	// SSE stream of a finished process delivers status, the scheduling
	// decisions the runtime traced for it, then done.
	sseResp, err := http.Get(base + "/v1/processes/acme/trip1/events")
	if err != nil {
		t.Fatal(err)
	}
	sseBuf := make([]byte, 4096)
	deadline := time.Now().Add(5 * time.Second)
	var sse strings.Builder
	for time.Now().Before(deadline) && !strings.Contains(sse.String(), "event: done") {
		n, rerr := sseResp.Body.Read(sseBuf)
		sse.Write(sseBuf[:n])
		if rerr != nil {
			break
		}
	}
	sseResp.Body.Close()
	for _, ev := range []string{"event: status", "event: trace", "event: done"} {
		if !strings.Contains(sse.String(), ev) {
			t.Fatalf("SSE stream missing %q:\n%s", ev, sse.String())
		}
	}
	if len(srv.TraceTail("acme/trip1")) == 0 {
		t.Fatal("TraceTail of a settled submission is empty")
	}

	// Drain closes the WAL; admissions now bounce.
	var rep DrainReport
	respDrain, bodyDrain := postJSON(t, base+"/v1/drain", struct{}{})
	if respDrain.StatusCode != http.StatusOK {
		t.Fatalf("drain: %d %s", respDrain.StatusCode, bodyDrain)
	}
	if err := json.Unmarshal(bodyDrain, &rep); err != nil {
		t.Fatal(err)
	}
	if rep.Finished != n || rep.Parked != 0 {
		t.Fatalf("drain report: %+v", rep)
	}

	// Restart on the same directory: everything was sealed, nothing to
	// resume, statuses answered from the journal.
	srv2, err := Open(testWorld(t), Config{Dir: dir, NoSync: true})
	if err != nil {
		t.Fatal(err)
	}
	defer srv2.Close()
	fresh, reruns := srv2.Resumed()
	if fresh != 0 || reruns != 0 {
		t.Fatalf("clean restart resumed work: fresh=%d reruns=%d", fresh, reruns)
	}
	st2, ok := srv2.StatusOf("acme/trip0")
	if !ok || st2.State != stateCommitted {
		t.Fatalf("restart lost status: %+v (ok=%v)", st2, ok)
	}
}

// TestAPIDrainIsPrompt holds a drain through the API to the drain's own
// work: the HTTP shutdown behind it must not wait for the connection
// that carries the reply, and the listener closes afterwards.
func TestAPIDrainIsPrompt(t *testing.T) {
	srv, err := Open(testWorld(t), Config{Dir: t.TempDir(), NoSync: true})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	addr, err := srv.Start("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	if resp, body := postJSON(t, "http://"+addr+"/v1/drain", struct{}{}); resp.StatusCode != http.StatusOK {
		t.Fatalf("drain: %d %s", resp.StatusCode, body)
	}
	if took := time.Since(start); took > 500*time.Millisecond {
		t.Errorf("an idle server's drain through the API took %v", took)
	}
	for deadline := time.Now().Add(2 * time.Second); ; time.Sleep(5 * time.Millisecond) {
		c, err := net.Dial("tcp", addr)
		if err != nil {
			break
		}
		c.Close()
		if time.Now().After(deadline) {
			t.Fatal("the listener still accepts after the drain")
		}
	}
}

// journalAfterRun runs three trips to completion in a fresh directory,
// closes the server and returns the directory, the intake journal's
// path and its bytes (three submissions, three seals).
func journalAfterRun(t *testing.T) (dir, path string, data []byte) {
	t.Helper()
	dir = t.TempDir()
	srv, err := Open(testWorld(t), Config{Dir: dir, NoSync: true})
	if err != nil {
		t.Fatal(err)
	}
	handler := srv.Handler()
	for i := 0; i < 3; i++ {
		body, _ := json.Marshal(SubmitRequest{Tenant: "acme", Key: fmt.Sprintf("k%d", i), Proc: tripSpec(fmt.Sprintf("trip%d", i))})
		rec := httptest.NewRecorder()
		handler.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/processes", bytes.NewReader(body)))
		if rec.Code != http.StatusAccepted {
			t.Fatalf("submit %d: %d %s", i, rec.Code, rec.Body.String())
		}
	}
	if !srv.WaitIdle(10 * time.Second) {
		t.Fatal("server did not go idle")
	}
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}
	path = filepath.Join(dir, "intake.journal")
	data, err = os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return dir, path, data
}

// crashAt is the injected kill -9: a panic carrying the sentinel method
// scheduler.OnInjectedCrash recognizes.
type crashAt string

func (c crashAt) InjectedCrash() string { return string(c) }

// submit posts one submission straight to the handler.
func submit(h http.Handler, req SubmitRequest) *httptest.ResponseRecorder {
	body, _ := json.Marshal(req)
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/processes", bytes.NewReader(body)))
	return rec
}

// A submission body over maxSubmitBytes is refused with 413 before it
// reaches the journal, and the server keeps admitting. The process id
// here is longer than the journal's 16 MiB frame limit: without the
// cap its journal append failed and the server crashed.
func TestSubmitOversizedBody(t *testing.T) {
	srv, err := Open(testWorld(t), Config{Dir: t.TempDir(), NoSync: true})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	h := srv.Handler()
	if rec := submit(h, SubmitRequest{Tenant: "acme", Proc: tripSpec(strings.Repeat("a", 17<<20))}); rec.Code != http.StatusRequestEntityTooLarge {
		t.Fatalf("oversized submission: want 413, got %d %.200s", rec.Code, rec.Body.String())
	}
	if pt, crashed := srv.Crashed(); crashed {
		t.Fatalf("oversized submission crashed the server at %s", pt)
	}
	if rec := submit(h, SubmitRequest{Tenant: "acme", Proc: tripSpec("trip0")}); rec.Code != http.StatusAccepted {
		t.Fatalf("submission after the oversized one: want 202, got %d %s", rec.Code, rec.Body.String())
	}
}

// TestReadyz pins each 503 reason of /readyz. A submission held at
// serve:admit (journaled, its queue slot reserved, not yet enqueued)
// fills a one-slot queue and keeps a drain waiting.
func TestReadyz(t *testing.T) {
	cases := []struct {
		reason string
		cfg    Config
		// provoke brings the server into the state; hold is the
		// submission parked at serve:admit.
		provoke func(t *testing.T, srv *Server, hold func())
	}{
		{"overloaded", Config{QueueDepth: 1}, func(t *testing.T, srv *Server, hold func()) { hold() }},
		{"draining", Config{}, func(t *testing.T, srv *Server, hold func()) {
			hold()
			go srv.Drain(context.Background())
			for !srv.draining.Load() {
				time.Sleep(time.Millisecond)
			}
		}},
		{"closed", Config{}, func(t *testing.T, srv *Server, hold func()) {
			if _, err := srv.Drain(context.Background()); err != nil {
				t.Fatal(err)
			}
		}},
		{"crashed", Config{Inject: func(point string) {
			if point == PointAck {
				panic(crashAt(point))
			}
		}}, func(t *testing.T, srv *Server, hold func()) {
			submit(srv.Handler(), SubmitRequest{Tenant: "acme", Proc: tripSpec("trip0")})
		}},
	}
	for _, tc := range cases {
		t.Run(tc.reason, func(t *testing.T) {
			admitted, release := make(chan struct{}), make(chan struct{})
			inject := tc.cfg.Inject
			tc.cfg.Dir, tc.cfg.NoSync = t.TempDir(), true
			var holding atomic.Bool
			tc.cfg.Inject = func(point string) {
				if point == PointAdmit && holding.Load() {
					close(admitted)
					<-release
				}
				if inject != nil {
					inject(point)
				}
			}
			srv, err := Open(testWorld(t), tc.cfg)
			if err != nil {
				t.Fatal(err)
			}
			defer srv.Close()
			h := srv.Handler()
			readyz := func() (int, string) {
				rec := httptest.NewRecorder()
				h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/readyz", nil))
				var body struct{ Reason string }
				json.Unmarshal(rec.Body.Bytes(), &body)
				return rec.Code, body.Reason
			}
			if code, reason := readyz(); code != http.StatusOK {
				t.Fatalf("fresh server: readyz %d %q", code, reason)
			}
			var wg sync.WaitGroup
			defer wg.Wait()
			var once sync.Once
			defer once.Do(func() { close(release) })
			hold := func() {
				holding.Store(true)
				wg.Add(1)
				go func() {
					defer wg.Done()
					submit(h, SubmitRequest{Tenant: "acme", Proc: tripSpec("held")})
				}()
				<-admitted
			}
			tc.provoke(t, srv, hold)
			if code, reason := readyz(); code != http.StatusServiceUnavailable || reason != tc.reason {
				t.Fatalf("readyz %d %q, want 503 %q", code, reason, tc.reason)
			}
		})
	}
}

// An interior-corrupt intake journal refuses to open, loudly, and is
// left byte-for-byte untouched: truncating at the first bad entry would
// silently un-admit every acknowledged submission behind it.
func TestOpenRejectsInteriorCorruptJournal(t *testing.T) {
	dir, path, data := journalAfterRun(t)
	bounds := wal.FrameBounds(data)
	if len(bounds) != 7 {
		t.Fatalf("journal frame bounds %v, want 6 entries", bounds)
	}
	for _, i := range []int{0, bounds[0], bounds[0] + 4, bounds[0] + 20, bounds[2] + 1, bounds[5] - 1} {
		image := append([]byte(nil), data...)
		image[i] ^= 0xFF
		if err := os.WriteFile(path, image, 0o644); err != nil {
			t.Fatal(err)
		}
		srv, err := Open(testWorld(t), Config{Dir: dir, NoSync: true})
		if err == nil {
			srv.Close()
			t.Fatalf("byte %d flipped: server opened, want wal.ErrCorrupt", i)
		}
		if !errors.Is(err, wal.ErrCorrupt) {
			t.Fatalf("byte %d flipped: got %v, want wal.ErrCorrupt", i, err)
		}
		if after, _ := os.ReadFile(path); !bytes.Equal(after, image) {
			t.Fatalf("byte %d flipped: the corrupt journal was modified", i)
		}
	}
}

// A torn last journal entry (crash mid-append) is dropped on open and
// everything before it recovers.
func TestOpenDropsTornLastJournalEntry(t *testing.T) {
	dir, path, data := journalAfterRun(t)
	// The last entry is trip2's seal: without it trip2 is resumed and
	// found committed in the WAL.
	if err := os.WriteFile(path, data[:len(data)-3], 0o644); err != nil {
		t.Fatal(err)
	}
	srv, err := Open(testWorld(t), Config{Dir: dir, NoSync: true})
	if err != nil {
		t.Fatalf("open over a torn journal tail: %v", err)
	}
	defer srv.Close()
	if !srv.WaitIdle(10 * time.Second) {
		t.Fatal("server did not go idle")
	}
	for i := 0; i < 3; i++ {
		st, ok := srv.StatusOf(fmt.Sprintf("acme/trip%d", i))
		if !ok || st.State != stateCommitted {
			t.Fatalf("trip%d after torn-tail recovery: %+v (ok=%v)", i, st, ok)
		}
	}
}
