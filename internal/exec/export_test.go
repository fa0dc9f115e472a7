package exec

// SetSlowPath and Crossings expose the reference-interpreter switch and
// the scheduler-turn counter to the external-package SDET test.
func SetSlowPath(r *Runner, slow bool) { r.slowPath = slow }

func Crossings(r *Runner) int64 { return r.crossings }
