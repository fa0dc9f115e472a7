package exec

import (
	"math/bits"
	"reflect"
	"strings"
	"testing"

	"structlayout/internal/coherence"
	"structlayout/internal/ir"
	"structlayout/internal/machine"
	"structlayout/internal/sampling"
)

// buildRunaheadWorkload builds a program whose field reads exercise every
// branch of the read-only-hit exemption. Declaration order at a 128-byte
// line places:
//
//	line 0: ro1 ro2 pad0 span…   — read-only fields alone on their line
//	line 1: …span lock hot ro3   — span straddles into the written line; ro3
//	        pad1                   shares it with a written field and a lock
//	line 2: ro4 pad2 ro5         — read-only again
//
// Threads hit the read-only fields on shared, per-CPU, parameter and
// loop-variable instances, contend on the lock and stream through a
// private region, so the tiny test cache keeps evicting the lines they
// re-read.
func buildRunaheadWorkload(nthreads int) (*ir.Program, *ir.StructType, []string) {
	p := ir.NewProgram("runahead")
	s := ir.NewStruct("R",
		ir.I64("ro1"), ir.I64("ro2"), ir.Arr("pad0", 10, 8, 8), ir.Arr("span", 8, 8, 8),
		ir.I64("lock"), ir.I64("hot"), ir.I64("ro3"), ir.Arr("pad1", 9, 8, 8),
		ir.I64("ro4"), ir.Arr("pad2", 14, 8, 8), ir.I64("ro5"),
	)
	p.AddStruct(s)
	p.AddRegion("priv", 4<<10, true)

	names := make([]string, nthreads)
	for i := range names {
		name := "ra" + string(rune('A'+i))
		b := p.NewProc(name)
		b.Compute(int64(10 + 7*i))
		b.Loop(30, func(b *ir.Builder) {
			b.Read(s, "ro1", ir.Shared(0)).Compute(3)
			b.Read(s, "ro1", ir.Shared(0)).Read(s, "ro2", ir.PerCPU())
			b.Read(s, "ro2", ir.PerCPU()).Compute(5)
			b.Read(s, "ro3", ir.Shared(0))
			b.Read(s, "span", ir.Param(0)).Read(s, "ro4", ir.Param(0))
			b.Read(s, "span", ir.Shared(0)).Compute(2).Read(s, "span", ir.PerCPU())
			b.Read(s, "ro1", ir.LoopVar()).Read(s, "ro3", ir.LoopVar())
			b.IfElse(0.4, func(b *ir.Builder) {
				b.Lock(s, "lock", ir.Shared(0))
				b.Write(s, "hot", ir.Shared(0))
				b.Compute(12)
				b.Unlock(s, "lock", ir.Shared(0))
			}, func(b *ir.Builder) {
				b.Write(s, "hot", ir.PerCPU())
				b.MemRandom("priv", ir.Read)
			})
			b.Read(s, "ro4", ir.PerCPU()).Read(s, "ro5", ir.Shared(1))
		})
		b.Done()
		names[i] = name
	}
	return p.MustFinalize(), s, names
}

// runRunahead executes the runahead workload on Bus4 with four threads,
// two of them pinned to CPU 0, and returns the Result and the run's
// scheduler crossings.
func runRunahead(t *testing.T, slow bool, smp *sampling.Config, sim SimConfig) (*Result, int64) {
	t.Helper()
	p, s, names := buildRunaheadWorkload(4)
	r, err := NewRunner(p, Config{Topo: machine.Bus4(), Cache: coherence.SmallCache(), Seed: 5, Sampling: smp, Sim: sim})
	if err != nil {
		t.Fatal(err)
	}
	r.slowPath = slow
	if err := r.DefineArena(origLayout(t, s), 5); err != nil {
		t.Fatal(err)
	}
	// DefineArena pads the stride to whole lines. Narrow it so instances
	// start mid-line and the same field lands on a written line in one
	// instance and on a read-only line in another. The arena's allocation
	// was sized for the wider stride, so every instance stays inside it.
	a := r.arenas["R"]
	a.stride = int64(a.lay.Size) + 24
	for i, name := range names {
		if err := r.AddThread(i, name, []int{i + 1}, 3); err != nil {
			t.Fatal(err)
		}
	}
	// AddThread allows one thread per CPU; pin the last one onto CPU 0 by
	// hand so CPU 0's threads evict each other's lines.
	r.threads[len(r.threads)-1].cpu = 0
	res, err := r.Run()
	if err != nil {
		t.Fatal(err)
	}
	return res, r.crossings
}

// TestRunaheadEquivalence: read-only-hit runahead must leave every
// observable of a run unchanged — exact, sampled, and with a PMU collector
// — against the slow-path reference, which never runs ahead, and in
// exact mode it must actually skip scheduler turns.
func TestRunaheadEquivalence(t *testing.T) {
	_, s, _ := buildRunaheadWorkload(1)
	l, span := origLayout(t, s), s.FieldIndex("span")
	if lo := l.Offsets[span]; lo/128 == (lo+s.Fields[span].Size-1)/128 {
		t.Fatal("workload drifted: span no longer straddles a line")
	}

	fast, fastX := runRunahead(t, false, nil, SimConfig{})
	slow, slowX := runRunahead(t, true, nil, SimConfig{})
	if !reflect.DeepEqual(fast, slow) {
		t.Fatalf("exact: runahead diverges from reference:\nfast: cycles=%d coh=%+v\nslow: cycles=%d coh=%+v",
			fast.Cycles, fast.Coherence, slow.Cycles, slow.Coherence)
	}
	if fastX >= slowX {
		t.Fatalf("exact: fast path crossed the scheduler %d times, reference %d; want strictly fewer", fastX, slowX)
	}
	t.Logf("exact: %d crossings vs reference %d", fastX, slowX)

	sim := SimConfig{Mode: SimSampled, WindowOps: 1 << 5, Period: 3}
	fast, _ = runRunahead(t, false, nil, sim)
	slow, _ = runRunahead(t, true, nil, sim)
	if !reflect.DeepEqual(fast, slow) {
		t.Fatalf("sampled: fast path diverges from reference: %+v vs %+v", fast.Coherence, slow.Coherence)
	}

	smp := func() *sampling.Config {
		return &sampling.Config{IntervalCycles: 300, DriftMaxCycles: 4, LossProb: 0.05, Seed: 3}
	}
	fast, _ = runRunahead(t, false, smp(), SimConfig{})
	slow, _ = runRunahead(t, true, smp(), SimConfig{})
	if !reflect.DeepEqual(fast, slow) {
		t.Fatalf("collector: fast path diverges: %d vs %d samples", len(fast.Trace.Samples), len(slow.Trace.Samples))
	}
}

// TestWokenThreadTimeCap: a thread woken by an unlock resumes after the
// handoff, later than its waker. When that pushes it to the scheduler's
// time cap, the run must fail instead of queueing a key past the cap.
func TestWokenThreadTimeCap(t *testing.T) {
	run := func(hold int64) (*Result, error) {
		p := ir.NewProgram("cap")
		s := ir.NewStruct("L", ir.I64("lock"))
		p.AddStruct(s)
		a := p.NewProc("holder")
		a.Lock(s, "lock", ir.Shared(0))
		a.Compute(hold)
		a.Unlock(s, "lock", ir.Shared(0))
		a.Done()
		b := p.NewProc("waiter")
		b.Lock(s, "lock", ir.Shared(0))
		b.Done()
		r, err := NewRunner(p.MustFinalize(), Config{Topo: machine.Bus4(), Cache: coherence.SmallCache(), Seed: 1})
		if err != nil {
			t.Fatal(err)
		}
		if err := r.DefineArena(origLayout(t, s), 1); err != nil {
			t.Fatal(err)
		}
		for cpu, name := range []string{"holder", "waiter"} {
			if err := r.AddThread(cpu, name, nil, 1); err != nil {
				t.Fatal(err)
			}
		}
		return r.Run()
	}
	// Calibrate: the holder's time is its lock and unlock latencies plus
	// the hold; the waiter parks on the lock and is woken by the unlock.
	base, err := run(1)
	if err != nil {
		t.Fatal(err)
	}
	if base.ThreadCycles[1] <= base.ThreadCycles[0] {
		t.Fatalf("waiter finished at %d, holder at %d: not woken by the unlock", base.ThreadCycles[1], base.ThreadCycles[0])
	}
	// Two threads: one id bit. Hold so the holder ends one cycle short of
	// the cap; the handoff carries the waiter past it.
	timeCap := int64(1) << (62 - bits.Len(1))
	_, err = run(timeCap - base.ThreadCycles[0])
	if err == nil || !strings.Contains(err.Error(), "thread 1 ") || !strings.Contains(err.Error(), "woken by thread 0") {
		t.Fatalf("run past the cap: err = %v, want thread 1 to hit the scheduler cap when woken by thread 0", err)
	}
}
