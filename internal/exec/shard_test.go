package exec

import (
	"math"
	"reflect"
	"testing"

	"structlayout/internal/coherence"
	"structlayout/internal/ir"
	"structlayout/internal/machine"
	"structlayout/internal/parallel"
	"structlayout/internal/sampling"
)

// buildDisjointWorkload builds one procedure per CPU whose static
// footprints are pairwise disjoint: every instance is selected by a
// per-thread parameter or PerCPU(), and the only region is per-thread.
// With count >= ncpu distinct parameter values, threadGroups must split
// the run into ncpu singleton groups.
func buildDisjointWorkload(ncpu int) (*ir.Program, *ir.StructType, []string) {
	p := ir.NewProgram("disjoint")
	s := ir.NewStruct("D",
		ir.I64("lock"),
		ir.I64("hot"),
		ir.I64("cold"),
	)
	p.AddStruct(s)
	p.AddRegion("priv", 8<<10, true)

	names := make([]string, ncpu)
	for cpu := 0; cpu < ncpu; cpu++ {
		name := "own" + string(rune('A'+cpu))
		b := p.NewProc(name)
		b.Compute(10)
		b.Loop(60, func(b *ir.Builder) {
			b.Lock(s, "lock", ir.Param(0))
			b.Write(s, "hot", ir.Param(0))
			b.Compute(5)
			b.Unlock(s, "lock", ir.Param(0))
			b.IfElse(0.4, func(b *ir.Builder) {
				b.MemRandom("priv", ir.Write)
			}, func(b *ir.Builder) {
				b.Read(s, "cold", ir.PerCPU())
			})
		})
		b.Done()
		names[cpu] = name
	}
	return p.MustFinalize(), s, names
}

// runWorkload executes a built workload with the given shard count and
// per-thread params.
func runWorkload(t *testing.T, prog *ir.Program, s *ir.StructType, names []string, shards int, paramOf func(cpu int) []int, sim SimConfig) *Result {
	t.Helper()
	cache := coherence.SmallCache()
	cache.Shards = shards
	r, err := NewRunner(prog, Config{Topo: machine.Bus4(), Cache: cache, Seed: 7, Sim: sim})
	if err != nil {
		t.Fatal(err)
	}
	if err := r.DefineArena(origLayout(t, s), 4); err != nil {
		t.Fatal(err)
	}
	for cpu, name := range names {
		var params []int
		if paramOf != nil {
			params = paramOf(cpu)
		}
		if err := r.AddThread(cpu, name, params, 3); err != nil {
			t.Fatal(err)
		}
	}
	res, err := r.Run()
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// TestShardedRunByteIdentical: shard count must be invisible to a run's
// Result, even for the conflicting workload (single group) where sharding
// buys no concurrency.
func TestShardedRunByteIdentical(t *testing.T) {
	prog, s, names := buildMixedWorkload(4)
	base := runWorkload(t, prog, s, names, 0, nil, SimConfig{})
	for _, shards := range []int{1, 2, 8} {
		got := runWorkload(t, prog, s, names, shards, nil, SimConfig{})
		if !reflect.DeepEqual(got, base) {
			t.Fatalf("shards=%d result diverges: cycles=%d coh=%+v vs cycles=%d coh=%+v",
				shards, got.Cycles, got.Coherence, base.Cycles, base.Coherence)
		}
	}
}

// TestGroupParallelByteIdentical: a footprint-disjoint workload splits into
// per-thread groups under shard mode; running those groups concurrently at
// several worker limits must be byte-identical to the serial single-group
// run.
func TestGroupParallelByteIdentical(t *testing.T) {
	prog, s, names := buildDisjointWorkload(4)
	params := func(cpu int) []int { return []int{cpu} }
	base := runWorkload(t, prog, s, names, 0, params, SimConfig{})

	old := parallel.Limit()
	defer parallel.SetLimit(old)
	for _, lim := range []int{1, 2, 4} {
		parallel.SetLimit(lim)
		got := runWorkload(t, prog, s, names, 8, params, SimConfig{})
		if !reflect.DeepEqual(got, base) {
			t.Fatalf("-j %d sharded result diverges: cycles=%d coh=%+v vs serial cycles=%d coh=%+v",
				lim, got.Cycles, got.Coherence, base.Cycles, base.Coherence)
		}
	}
}

// groupsOf decodes a fresh runner and reports its thread partition sizes.
func groupsOf(t *testing.T, prog *ir.Program, s *ir.StructType, names []string, paramOf func(cpu int) []int) []int {
	t.Helper()
	cache := coherence.SmallCache()
	cache.Shards = 8
	r, err := NewRunner(prog, Config{Topo: machine.Bus4(), Cache: cache, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	if err := r.DefineArena(origLayout(t, s), 4); err != nil {
		t.Fatal(err)
	}
	for cpu, name := range names {
		var params []int
		if paramOf != nil {
			params = paramOf(cpu)
		}
		if err := r.AddThread(cpu, name, params, 1); err != nil {
			t.Fatal(err)
		}
	}
	if err := r.decode(); err != nil {
		t.Fatal(err)
	}
	var sizes []int
	for _, g := range r.threadGroups() {
		sizes = append(sizes, len(g))
	}
	return sizes
}

// TestThreadGroupsPartition checks the conflict analysis directly: shared
// instances collapse everything into one group, disjoint parameters split
// per thread, and colliding parameters group exactly the colliding pair.
func TestThreadGroupsPartition(t *testing.T) {
	mixedProg, ms, mixedNames := buildMixedWorkload(4)
	if got := groupsOf(t, mixedProg, ms, mixedNames, nil); len(got) != 1 {
		t.Fatalf("shared workload split into %v groups", got)
	}
	prog, s, names := buildDisjointWorkload(4)
	if got := groupsOf(t, prog, s, names, func(cpu int) []int { return []int{cpu} }); len(got) != 4 {
		t.Fatalf("disjoint workload grouped as %v, want 4 singletons", got)
	}
	// Threads 0 and 2 share instance 0 (thread 2's PerCPU read still maps
	// to its own instance 2): expect groups {0,2},{1},{3}.
	collide := func(cpu int) []int {
		if cpu == 2 {
			return []int{0}
		}
		return []int{cpu}
	}
	got := groupsOf(t, prog, s, names, collide)
	if len(got) != 3 {
		t.Fatalf("colliding params grouped as %v, want 3 groups", got)
	}
}

// TestSampledWithinBound: sampled mode must skip a real fraction of
// accesses, report its sampling parameters, and extrapolate the miss count
// to within the documented bound of the exact run (15% relative on this
// workload, far looser than the binomial CI alone because misses cluster).
func TestSampledWithinBound(t *testing.T) {
	prog, s, names := buildMixedWorkload(4)
	exact := runWorkload(t, prog, s, names, 0, nil, SimConfig{})
	if exact.Sampled != nil {
		t.Fatal("exact run carries SampledInfo")
	}
	sampled := runWorkload(t, prog, s, names, 0, nil, SimConfig{Mode: SimSampled, WindowOps: 1 << 7, Period: 4})
	info := sampled.Sampled
	if info == nil {
		t.Fatal("sampled run missing SampledInfo")
	}
	if info.SkippedOps == 0 || info.Scale <= 1 {
		t.Fatalf("sampling skipped nothing: %+v", info)
	}
	if sampled.Completed != exact.Completed {
		t.Fatalf("sampled completed %d, exact %d", sampled.Completed, exact.Completed)
	}
	relErr := func(got, want uint64) float64 {
		return math.Abs(float64(got)-float64(want)) / float64(want)
	}
	if e := relErr(info.Extrapolated.Misses(), exact.Coherence.Misses()); e > 0.15 {
		t.Fatalf("extrapolated misses %d vs exact %d: %.1f%% error",
			info.Extrapolated.Misses(), exact.Coherence.Misses(), 100*e)
	}
	if e := relErr(info.Extrapolated.Accesses, exact.Coherence.Accesses); e > 0.05 {
		t.Fatalf("extrapolated accesses %d vs exact %d: %.1f%% error",
			info.Extrapolated.Accesses, exact.Coherence.Accesses, 100*e)
	}
	cyc := math.Abs(float64(sampled.Cycles)-float64(exact.Cycles)) / float64(exact.Cycles)
	if cyc > 0.15 {
		t.Fatalf("sampled cycles %d vs exact %d: %.1f%% error", sampled.Cycles, exact.Cycles, 100*cyc)
	}
	if info.MissCI95 <= 0 {
		t.Fatalf("missing confidence interval: %+v", info)
	}
}

// TestSampledDeterministic: identical sampled configs replay identical
// results, and the slow-path reference agrees with the fast path under
// sampling.
func TestSampledDeterministic(t *testing.T) {
	prog, s, names := buildMixedWorkload(4)
	sim := SimConfig{Mode: SimSampled, WindowOps: 1 << 7, Period: 4}
	a := runWorkload(t, prog, s, names, 0, nil, sim)
	b := runWorkload(t, prog, s, names, 0, nil, sim)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("sampled run not deterministic")
	}
	// Different sampling seed: same structure, different subset.
	c := runWorkload(t, prog, s, names, 0, nil, SimConfig{Mode: SimSampled, WindowOps: 1 << 7, Period: 4, Seed: 99})
	if c.Completed != a.Completed {
		t.Fatalf("seed changed completion: %d vs %d", c.Completed, a.Completed)
	}
}

// TestSampledSlowPathEquivalence: the gate and the off-window skip must act
// identically in the fast path and the slow-path reference.
func TestSampledSlowPathEquivalence(t *testing.T) {
	prog, s, names := buildMixedWorkload(4)
	sim := SimConfig{Mode: SimSampled, WindowOps: 1 << 7, Period: 4}
	run := func(slow bool) *Result {
		cache := coherence.SmallCache()
		r, err := NewRunner(prog, Config{Topo: machine.Bus4(), Cache: cache, Seed: 7, Sim: sim})
		if err != nil {
			t.Fatal(err)
		}
		r.slowPath = slow
		if err := r.DefineArena(origLayout(t, s), 4); err != nil {
			t.Fatal(err)
		}
		for cpu, name := range names {
			if err := r.AddThread(cpu, name, nil, 3); err != nil {
				t.Fatal(err)
			}
		}
		res, err := r.Run()
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	if fast, slow := run(false), run(true); !reflect.DeepEqual(fast, slow) {
		t.Fatalf("sampled fast path diverges from reference: %+v vs %+v", fast.Coherence, slow.Coherence)
	}
}

// TestSampledRejectsCollector: PMU collection needs every access; the
// combination must fail loudly, not silently degrade the trace.
func TestSampledRejectsCollector(t *testing.T) {
	prog, s, names := buildMixedWorkload(4)
	smp := &sampling.Config{IntervalCycles: 500, Seed: 11}
	r, err := NewRunner(prog, Config{Topo: machine.Bus4(), Cache: coherence.SmallCache(), Seed: 7, Sampling: smp, Sim: SimConfig{Mode: SimSampled}})
	if err != nil {
		t.Fatal(err)
	}
	if err := r.DefineArena(origLayout(t, s), 4); err != nil {
		t.Fatal(err)
	}
	for cpu, name := range names {
		if err := r.AddThread(cpu, name, nil, 1); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := r.Run(); err == nil {
		t.Fatal("sampled+collector run succeeded; want error")
	}
}

// TestParseSimMode covers the flag surface.
func TestParseSimMode(t *testing.T) {
	for in, want := range map[string]SimMode{"": SimExact, "exact": SimExact, "sampled": SimSampled} {
		got, err := ParseSimMode(in)
		if err != nil || got != want {
			t.Fatalf("ParseSimMode(%q) = %v, %v", in, got, err)
		}
	}
	if _, err := ParseSimMode("fast"); err == nil {
		t.Fatal("ParseSimMode accepted garbage")
	}
	if SimExact.String() != "exact" || SimSampled.String() != "sampled" {
		t.Fatal("SimMode.String mismatch")
	}
}
