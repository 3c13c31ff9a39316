package main

import (
	"context"
	"errors"
	"net/http"
	"net/http/httptest"
	"os"
	"testing"
	"time"

	"transproc/internal/serve"
)

// A drain through POST /v1/drain closes the server; the signal that then
// ends the process finds nothing left to drain, and exits cleanly.
func TestAwaitDrainAfterAPIDrain(t *testing.T) {
	fed, err := serveWorldFromFlag("")
	if err != nil {
		t.Fatal(err)
	}
	s, err := serve.Open(fed, serve.Config{Dir: t.TempDir(), NoSync: true})
	if err != nil {
		t.Fatal(err)
	}
	rec := httptest.NewRecorder()
	s.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/drain", nil))
	if rec.Code != http.StatusOK {
		t.Fatalf("drain: %d %s", rec.Code, rec.Body.String())
	}
	sig := make(chan os.Signal, 1)
	sig <- os.Interrupt
	if err := awaitDrain(s, sig, time.Second); err != nil {
		t.Fatalf("awaitDrain after an API drain = %v, want nil", err)
	}
	// Without a signal, the API drain alone ends the wait.
	if err := awaitDrain(s, make(chan os.Signal), time.Second); err != nil {
		t.Fatalf("awaitDrain without a signal = %v, want nil", err)
	}
}

// A signal on a running server drains it.
func TestAwaitDrainOnSignal(t *testing.T) {
	fed, err := serveWorldFromFlag("")
	if err != nil {
		t.Fatal(err)
	}
	s, err := serve.Open(fed, serve.Config{Dir: t.TempDir(), NoSync: true})
	if err != nil {
		t.Fatal(err)
	}
	sig := make(chan os.Signal, 1)
	sig <- os.Interrupt
	if err := awaitDrain(s, sig, time.Second); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Drain(context.Background()); !errors.Is(err, serve.ErrClosed) {
		t.Fatalf("second Drain = %v, want ErrClosed", err)
	}
}
