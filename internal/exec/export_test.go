package exec

import "testing"

// SetSlowPath, Crossings and CheckTreeWalk expose the reference-interpreter
// switch, the scheduler-turn counter and the tree-walking oracle check to
// the external-package SDET tests.
func SetSlowPath(r *Runner, slow bool) { r.slowPath = slow }

func Crossings(r *Runner) int64 { return r.crossings }

func CheckTreeWalk(t testing.TB, name string, build func() *Runner) { checkTreeWalk(t, name, build) }
