package main

import (
	"fmt"
	"os"
	"os/signal"
	"sync/atomic"
	"syscall"
)

// seedTrap installs a SIGINT/SIGTERM handler for a seeded battery run.
// The returned progress hook records the scenario currently in flight;
// on a signal the handler prints that seed and the command repro
// composes for it, then exits 130 — so an interrupted nightly job (or an
// impatient ^C) never loses the pointer into the battery. stop
// uninstalls the handler; call it once the battery returns normally.
func seedTrap(repro func(seed int64) string) (progress func(seed int64, class string), stop func()) {
	var seed atomic.Int64
	seed.Store(-1)
	var class atomic.Value
	class.Store("")

	ch := make(chan os.Signal, 1)
	signal.Notify(ch, os.Interrupt, syscall.SIGTERM)
	done := make(chan struct{})
	go func() {
		select {
		case sig := <-ch:
			if s := seed.Load(); s >= 0 {
				fmt.Fprintf(os.Stderr, "\n%v: interrupted at seed %d (class %s); reproduce with: %s\n",
					sig, s, class.Load(), repro(s))
			} else {
				fmt.Fprintf(os.Stderr, "\n%v: interrupted before the first scenario\n", sig)
			}
			os.Exit(130)
		case <-done:
		}
	}()
	return func(s int64, c string) {
			class.Store(c)
			seed.Store(s)
		}, func() {
			signal.Stop(ch)
			close(done)
		}
}
