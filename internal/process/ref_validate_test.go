package process_test

import (
	"fmt"

	"transproc/internal/process"
)

// refValidateGuaranteedTermination is the explorer as it was before it
// cloned once per branching state: two clones at every state, commit
// first, and the backward-recovery check over Snapshot's map. It is the
// reference exploreTermination must match, verdict and error text.
func refValidateGuaranteedTermination(p *process.Process) error {
	var explore func(in *process.Instance) error
	explore = func(in *process.Instance) error {
		if _, err := in.Completion(); err != nil {
			return fmt.Errorf("completion not computable: %w", err)
		}
		if in.Terminated() || (in.Done() && !in.Aborting()) {
			return nil
		}
		frontier := in.Frontier()
		if len(frontier) == 0 {
			return fmt.Errorf("process %s: stuck non-terminal state", p.ID)
		}
		next := frontier[0]
		a := p.Activity(next)
		{
			c := in.Clone()
			if err := c.MarkCommitted(next); err != nil {
				return err
			}
			if err := explore(c); err != nil {
				return err
			}
		}
		if !a.Kind.GuaranteedToCommit() {
			c := in.Clone()
			plan, err := c.MarkFailed(next)
			if err != nil {
				return err
			}
			for _, s := range plan.Steps {
				if err := c.ApplyStep(s); err != nil {
					return err
				}
			}
			if plan.Abort {
				// Backward recovery must leave no committed activities.
				for local, st := range c.Snapshot() {
					if st == process.Committed {
						return fmt.Errorf("process %s: backward recovery left activity %d committed", p.ID, local)
					}
				}
				c.MarkTerminated(false)
			}
			if err := explore(c); err != nil {
				return err
			}
		}
		return nil
	}
	return explore(process.NewInstance(p))
}
