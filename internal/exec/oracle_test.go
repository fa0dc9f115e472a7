package exec

import (
	"fmt"
	"reflect"
	"testing"

	"structlayout/internal/coherence"
	"structlayout/internal/ir"
	"structlayout/internal/machine"
	"structlayout/internal/profile"
)

// treeWalk is an oracle for the code-stream compiler and interpreter that
// shares neither: it re-executes a single-thread run by walking the
// procedures' ExecNode trees recursively, straight from the ir
// instructions, with the runner's rng seeding and cost constants. It
// returns the block and loop profile and the thread's final cycles.
//
// r must be fresh (not run) and hold exactly one thread. With one thread
// the scheduler never interleaves anything, so the run is the thread's
// accesses in program order against r's (untouched) coherence system.
func treeWalk(r *Runner) (*profile.Profile, int64, error) {
	if len(r.threads) != 1 {
		return nil, 0, fmt.Errorf("treeWalk: %d threads, want 1", len(r.threads))
	}
	o := &treeOracle{r: r, t: r.threads[0], prof: profile.New(r.prog)}
	for it := int64(0); it < o.t.iters; it++ {
		if err := o.nodes(o.t.entry.Tree); err != nil {
			return nil, 0, err
		}
	}
	return o.prof, o.t.time, nil
}

type treeOracle struct {
	r    *Runner
	t    *thread
	prof *profile.Profile
}

func (o *treeOracle) branch(b *ir.BasicBlock) {
	o.prof.IncrBlock(b.Global)
	o.t.time += o.r.cfg.BranchCost
}

func (o *treeOracle) nodes(nodes []ir.ExecNode) error {
	for _, n := range nodes {
		switch n := n.(type) {
		case *ir.ExecBlock:
			if len(n.Block.Instrs) == 0 {
				o.branch(n.Block)
				continue
			}
			o.prof.IncrBlock(n.Block.Global)
			for _, in := range n.Block.Instrs {
				if err := o.instr(in); err != nil {
					return err
				}
			}
		case *ir.ExecLoop:
			o.prof.AddLoop(n.Loop.Global, n.Count)
			o.t.loopVals = append(o.t.loopVals, 0)
			for i := int64(0); i < n.Count; i++ {
				o.branch(n.Loop.Header)
				o.t.loopVals[len(o.t.loopVals)-1] = i
				if err := o.nodes(n.Body); err != nil {
					return err
				}
			}
			o.branch(n.Loop.Header) // the failing exit test
			o.t.loopVals = o.t.loopVals[:len(o.t.loopVals)-1]
		case *ir.ExecIf:
			o.branch(n.Cond)
			arm := n.Then
			if o.t.rng.Float64() >= n.Prob {
				arm = n.Else
			}
			if err := o.nodes(arm); err != nil {
				return err
			}
			o.branch(n.Join)
		default:
			return fmt.Errorf("treeWalk: unknown node %T", n)
		}
	}
	return nil
}

func (o *treeOracle) instr(in ir.Instr) error {
	r, t := o.r, o.t
	switch in.Op {
	case ir.OpCompute:
		t.time += in.Cycles
	case ir.OpCall:
		t.time += r.cfg.CallOverhead
		return o.nodes(r.prog.Proc(in.Callee).Tree)
	case ir.OpField, ir.OpLock, ir.OpUnlock:
		a := r.arenas[in.Struct.Name]
		idx, err := r.resolveInstance(t, a, in.Inst)
		if err != nil {
			return err
		}
		addr := a.base + int64(idx)*a.stride + int64(a.lay.Offsets[in.Field])
		res := r.coh.Access(t.cpu, addr, in.Struct.Fields[in.Field].Size, in.Op != ir.OpField || in.Acc == ir.Write)
		t.time += res.Latency
	case ir.OpMem:
		addr, err := r.memAddr(t, &decInstr{
			region:    r.regions[in.Region],
			regionIdx: int32(r.regionIdx[in.Region]),
			pattern:   in.Pattern,
			stride:    in.Stride,
			offset:    in.Offset,
		})
		if err != nil {
			return err
		}
		t.time += r.coh.Access(t.cpu, addr, 8, in.Acc == ir.Write).Latency
	}
	return nil
}

// checkCode verifies every compiled stream's control structure: it ends
// in a return, and every jump and call target is in range.
func checkCode(r *Runner) error {
	for p, code := range r.code {
		if n := len(code); n == 0 || code[n-1].op != opReturn {
			return fmt.Errorf("procedure %d: stream does not end in a return", p)
		}
		for pc, in := range code {
			switch in.op {
			case opJump, opLoopHead, opBranch:
				if in.target < 0 || int(in.target) >= len(code) {
					return fmt.Errorf("procedure %d pc %d: op %d jumps to %d of %d", p, pc, in.op, in.target, len(code))
				}
			case opCall:
				if in.target < 0 || int(in.target) >= len(r.code) {
					return fmt.Errorf("procedure %d pc %d: call to procedure %d of %d", p, pc, in.target, len(r.code))
				}
			}
		}
	}
	return nil
}

// checkTreeWalk runs one runner from build through the interpreter and a
// second, identical one through treeWalk, and requires the same profile,
// thread cycles and completed iterations.
func checkTreeWalk(t testing.TB, name string, build func() *Runner) {
	t.Helper()
	r := build()
	res, err := r.Run()
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	if err := checkCode(r); err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	o := build()
	prof, cycles, err := treeWalk(o)
	if err != nil {
		t.Fatalf("%s: tree walk: %v", name, err)
	}
	if !reflect.DeepEqual(res.Profile, prof) {
		t.Fatalf("%s: profile differs from the tree walk:\ninterpreter %+v\ntree walk   %+v", name, res.Profile, prof)
	}
	if res.ThreadCycles[0] != cycles || res.Completed != o.threads[0].iters {
		t.Fatalf("%s: %d cycles, %d iterations; tree walk %d cycles, %d iterations",
			name, res.ThreadCycles[0], res.Completed, cycles, o.threads[0].iters)
	}
}

// TestCompiledStreamsMatchTreeWalk checks the code-stream interpreter
// against the tree-walking oracle on the mixed workload and on programs
// built around the compiler's edge cases: nested loops, an if without an
// else, empty blocks and loop bodies, calls inside loops, an empty
// procedure, marker-only blocks, and loop-variable instances both below
// and beyond the arena's count.
func TestCompiledStreamsMatchTreeWalk(t *testing.T) {
	mp, ms, names := buildMixedWorkload(1)
	for _, slow := range []bool{false, true} {
		checkTreeWalk(t, fmt.Sprintf("mixed (slow=%v)", slow), func() *Runner {
			r, err := NewRunner(mp, Config{Topo: machine.Bus4(), Cache: coherence.SmallCache(), Seed: 7})
			if err != nil {
				t.Fatal(err)
			}
			r.slowPath = slow
			if err := r.DefineArena(origLayout(t, ms), 4); err != nil {
				t.Fatal(err)
			}
			if err := r.AddThread(2, names[0], nil, 3); err != nil {
				t.Fatal(err)
			}
			return r
		})
	}

	p := ir.NewProgram("shapes")
	s := ir.NewStruct("S", ir.I64("a"), ir.I64("b"), ir.I64("lock"))
	p.AddStruct(s)
	p.AddRegion("buf", 4<<10, false)
	p.NewProc("empty").Done()
	leaf := p.NewProc("leaf")
	leaf.Read(s, "a", ir.Shared(2)).Compute(3)
	leaf.Done()
	// inner resolves its loop-variable instance against the caller's loop.
	inner := p.NewProc("inner")
	inner.Read(s, "a", ir.LoopVar()).Compute(3)
	inner.Done()
	entries := []struct {
		name string
		body func(b *ir.Builder)
	}{
		{"nested", func(b *ir.Builder) {
			b.Loop(3, func(b *ir.Builder) {
				b.Read(s, "a", ir.LoopVar())
				b.Loop(7, func(b *ir.Builder) { // beyond the arena's count
					b.Write(s, "b", ir.LoopVar()).Compute(2)
					b.Loop(0, func(b *ir.Builder) { b.Compute(99) })
				})
			})
		}},
		{"if-without-else", func(b *ir.Builder) {
			b.Loop(20, func(b *ir.Builder) {
				b.If(0.5, func(b *ir.Builder) { b.Write(s, "a", ir.PerCPU()).MemRandom("buf", ir.Read) })
				b.If(0.5, func(b *ir.Builder) {})
				b.IfElse(0.3, func(b *ir.Builder) {}, func(b *ir.Builder) { b.Compute(4) })
			})
		}},
		{"calls-in-loops", func(b *ir.Builder) {
			b.Loop(4, func(b *ir.Builder) {
				b.Call("leaf").Call("empty")
				b.Loop(5, func(b *ir.Builder) { b.Call("inner").MemSweep("buf", ir.Write, 64) })
				b.Lock(s, "lock", ir.Shared(1)).Read(s, "b", ir.Param(0)).Unlock(s, "lock", ir.Shared(1))
			})
		}},
		{"markers", func(b *ir.Builder) {
			b.Compute(5).Spawn("h", 1, "leaf").Compute(6).Join("h").Call("empty")
		}},
	}
	run := []string{"empty", "leaf"}
	for _, e := range entries {
		b := p.NewProc(e.name)
		e.body(b)
		b.Done()
		run = append(run, e.name)
	}
	p.MustFinalize()
	for _, name := range run {
		for _, slow := range []bool{false, true} {
			checkTreeWalk(t, fmt.Sprintf("%s (slow=%v)", name, slow), func() *Runner {
				r, err := NewRunner(p, Config{Topo: machine.Bus4(), Cache: coherence.SmallCache(), Seed: 11})
				if err != nil {
					t.Fatal(err)
				}
				r.slowPath = slow
				if err := r.DefineArena(origLayout(t, s), 3); err != nil {
					t.Fatal(err)
				}
				if err := r.AddThread(1, name, []int{5}, 2); err != nil {
					t.Fatal(err)
				}
				return r
			})
		}
	}
}
