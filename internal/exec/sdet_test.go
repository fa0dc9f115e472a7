package exec_test

import (
	"reflect"
	"testing"

	"structlayout/internal/exec"
	"structlayout/internal/machine"
	"structlayout/internal/workload"
)

// TestRunaheadSDETSuperdome128 runs the paper's SDET workload on the
// 128-way Superdome, as Fig 8 does, through the fast path and the
// slow-path reference: the results must be identical, and
// read-only-hit runahead must at least halve the scheduler crossings.
func TestRunaheadSDETSuperdome128(t *testing.T) {
	p := workload.DefaultParams()
	p.ScriptsPerThread = 1
	suite, err := workload.NewSuite(p)
	if err != nil {
		t.Fatal(err)
	}
	topo := machine.Superdome128()
	run := func(slow bool) (*exec.Result, int64) {
		r, err := exec.NewRunner(suite.Prog, exec.Config{Topo: topo, Cache: p.Cache, Seed: 3})
		if err != nil {
			t.Fatal(err)
		}
		exec.SetSlowPath(r, slow)
		for _, label := range workload.Labels() {
			ks := suite.Struct(label)
			count := ks.ArenaCount
			if label == "D" && count < topo.NumCPUs() {
				count = topo.NumCPUs() // per-CPU runqueues, as the suite sizes them
			}
			if err := r.DefineArena(ks.Baseline(int(p.Cache.LineSize)), count); err != nil {
				t.Fatal(err)
			}
		}
		for cpu := 0; cpu < topo.NumCPUs(); cpu++ {
			if err := r.AddThread(cpu, suite.EntryFor(cpu), suite.ThreadParams(cpu, 3), p.ScriptsPerThread); err != nil {
				t.Fatal(err)
			}
		}
		res, err := r.Run()
		if err != nil {
			t.Fatal(err)
		}
		return res, exec.Crossings(r)
	}
	fast, fastX := run(false)
	slow, slowX := run(true)
	if !reflect.DeepEqual(fast, slow) {
		t.Fatalf("fast path diverges from reference: cycles %d vs %d, coherence %+v vs %+v",
			fast.Cycles, slow.Cycles, fast.Coherence, slow.Coherence)
	}
	if 2*fastX > slowX {
		t.Fatalf("fast path crossed the scheduler %d times, reference %d; want at most half", fastX, slowX)
	}
	t.Logf("%d crossings vs reference %d (%.1f%%)", fastX, slowX, 100*float64(fastX)/float64(slowX))
}

// TestSDETProceduresMatchTreeWalk runs every procedure of the SDET
// workload as a single thread's entry on the 128-way Superdome and
// requires the code-stream interpreter to agree with the tree-walking
// oracle on block and loop counts and final cycles.
func TestSDETProceduresMatchTreeWalk(t *testing.T) {
	p := workload.DefaultParams()
	suite, err := workload.NewSuite(p)
	if err != nil {
		t.Fatal(err)
	}
	topo := machine.Superdome128()
	const cpu = 5
	for _, pr := range suite.Prog.Procs {
		build := func() *exec.Runner {
			r, err := exec.NewRunner(suite.Prog, exec.Config{Topo: topo, Cache: p.Cache, Seed: 9})
			if err != nil {
				t.Fatal(err)
			}
			for _, label := range workload.Labels() {
				ks := suite.Struct(label)
				count := ks.ArenaCount
				if label == "D" && count < topo.NumCPUs() {
					count = topo.NumCPUs()
				}
				if err := r.DefineArena(ks.Baseline(int(p.Cache.LineSize)), count); err != nil {
					t.Fatal(err)
				}
			}
			if err := r.AddThread(cpu, pr.Name, suite.ThreadParams(cpu, 9), 2); err != nil {
				t.Fatal(err)
			}
			return r
		}
		exec.CheckTreeWalk(t, pr.Name, build)
	}
	t.Logf("%d procedures agree", len(suite.Prog.Procs))
}
