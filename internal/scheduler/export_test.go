package scheduler

// SetRunning marks activity local in flight (service) or finished ("")
// behind the driver's back, for tests that stage a process mid-dispatch.
func (p *Proc) SetRunning(local int, service string) { p.setRunning(local, service) }
