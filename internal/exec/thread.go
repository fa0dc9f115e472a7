package exec

import (
	"fmt"
	"math/rand"

	"structlayout/internal/coherence"
	"structlayout/internal/ir"
)

// thread is one simulated kernel thread pinned to a CPU.
type thread struct {
	id     int
	cpu    int
	entry  *ir.Procedure
	params []int
	iters  int64
	rng    *rand.Rand

	time int64
	// code is the stream of the procedure the thread is in and pc its next
	// op; rets holds the return addresses of the calls in progress. A
	// thread suspends between any two ops (the scheduler interleaves by
	// virtual time), so this is its whole control state.
	code     []decInstr
	pc       int
	rets     []retAddr
	loopVals []int64 // innermost loop induction values, last = innermost
	cursors  []int64 // per-region streaming cursors, indexed by region
	curBlock *ir.BasicBlock

	done   bool
	parked bool
	// runahead lets the thread's read-only cache hits skip the scheduler
	// (see Runner.initRunahead and engine.readAhead).
	runahead bool

	// Sampled-mode state (see sim.go): the access counter that clocks the
	// sampling windows, the cached decision for the current window, and
	// the count of off-window (warmed, unmeasured) accesses.
	ops     int64 // memory accesses issued, the sampling clock
	winEnd  int64
	winOn   bool
	simSeed uint64 // per-thread window-schedule seed
	offOps  uint64

	// Precomputed instance tables (buildInstTables): a thread's per-CPU
	// and parameter-indexed arena instances are fixed for the whole run,
	// so the access hot path replaces the per-access modulo with a load.
	instPerCPU []int32 // by arena.idx
	instParam  []int32 // by arena.idx*Runner.nparams + param index
}

// retAddr is where a call returns to.
type retAddr struct {
	code []decInstr
	pc   int
}

// buildInstTables fills every thread's instance tables. Called once at Run
// start, after arenas and threads are final.
func (r *Runner) buildInstTables() {
	for _, t := range r.threads {
		if len(t.params) > r.nparams {
			r.nparams = len(t.params)
		}
	}
	for _, t := range r.threads {
		t.instPerCPU = make([]int32, len(r.arenaList))
		t.instParam = make([]int32, len(r.arenaList)*r.nparams)
		for _, a := range r.arenaList {
			t.instPerCPU[a.idx] = int32(t.cpu % a.count)
			for p, v := range t.params {
				t.instParam[a.idx*r.nparams+p] = int32(v % a.count)
			}
		}
	}
}

// instIndex resolves a decoded instruction's instance: shared instances
// were resolved at decode, per-CPU and parameter instances come from the
// thread's tables, and a loop-variable instance is the innermost induction
// value itself while that is below the arena's count — true of every loop
// the SDET workload runs — so only longer loops pay resolveInstance's
// modulo.
func (r *Runner) instIndex(t *thread, a *arena, in *decInstr) (int, error) {
	switch in.inst.Kind {
	case ir.InstShared:
		return int(in.instIdx), nil
	case ir.InstPerCPU:
		return int(t.instPerCPU[a.idx]), nil
	case ir.InstParam:
		if in.inst.Index >= len(t.params) {
			return 0, fmt.Errorf("exec: thread %d has no param %d", t.id, in.inst.Index)
		}
		return int(t.instParam[a.idx*r.nparams+in.inst.Index]), nil
	case ir.InstLoopVar:
		if n := len(t.loopVals); n > 0 {
			if v := t.loopVals[n-1]; v < int64(a.count) {
				return int(v), nil
			}
		}
	}
	return r.resolveInstance(t, a, in.inst)
}

// runUntil is the interpreter: it executes the thread's code stream until
// the thread yields the CPU — it would execute a shared operation without
// holding the group's lexicographic-minimum (time, id), it parks on a
// lock, it wakes another thread, or it finishes.
//
// The yield condition is checked before every field, region, lock and
// unlock op (see engine.run for the invariant), so the global order of
// interacting operations is a pure function of thread time trajectories —
// bit-identical between the fast path, the slow path and any grouping.
// The fast path alone lets read-only cache hits run past the limit
// (engine.readAhead); they interact with nothing, so results stay
// identical while the slow path keeps its yield before every access.
func (g *engine) runUntil(t *thread, limit int64) error {
	r := g.r
	code, pc := t.code, t.pc
loop:
	for {
		in := &code[pc]
		switch in.op {
		case opField:
			// Resolve the address once, for both the runahead test and the
			// access. An unresolvable instance yields like any access and
			// fails only when it would execute.
			addr, err := r.fieldAddr(t, in)
			if g.key(t) > limit {
				if err == nil && g.readAhead(t, in, addr) {
					pc++
					continue
				}
				if g.accessYields(t, limit) {
					break loop
				}
			}
			if err != nil {
				return err
			}
			pc++
			g.accessField(t, in, addr)
		case opMem:
			if g.key(t) > limit && g.accessYields(t, limit) {
				break loop
			}
			pc++
			if err := g.accessMem(t, in); err != nil {
				return err
			}
		case opCompute:
			pc++
			t.time += in.cycles
			g.sample(t)
		case opLock:
			if g.key(t) > limit {
				break loop
			}
			pc++
			if err := g.execLock(t, in); err != nil {
				return err
			}
			if t.parked {
				break loop
			}
		case opUnlock:
			if g.key(t) > limit {
				break loop
			}
			pc++
			if err := g.execUnlock(t, in); err != nil {
				return err
			}
			if len(g.woken) > 0 {
				break loop
			}
		case opCall:
			t.time += r.cfg.CallOverhead
			t.rets = append(t.rets, retAddr{code, pc + 1})
			code, pc = r.code[in.target], 0
			g.sample(t)
		case opBlock:
			pc++
			g.prof.IncrBlock(in.block.Global)
			t.curBlock = in.block
		case opCtl:
			pc++
			g.ctl(t, in.block)
		case opLoopEnter:
			pc++
			g.prof.AddLoop(int(in.field), in.cycles)
			// The head's first test advances the induction value to 0.
			t.loopVals = append(t.loopVals, -1)
		case opLoopHead:
			// Each visit is one header test.
			g.ctl(t, in.block)
			top := len(t.loopVals) - 1
			if next := t.loopVals[top] + 1; next < in.cycles {
				t.loopVals[top] = next
				pc++
			} else {
				t.loopVals = t.loopVals[:top]
				pc = int(in.target)
			}
		case opBranch:
			g.ctl(t, in.block)
			pc++
			if t.rng.Float64() >= in.prob {
				pc = int(in.target)
			}
		case opJump:
			pc = int(in.target)
		case opReturn:
			if n := len(t.rets); n > 0 {
				code, pc = t.rets[n-1].code, t.rets[n-1].pc
				t.rets = t.rets[:n-1]
				continue
			}
			// One top-level iteration ("script") finished.
			pc = 0
			g.completed++
			t.iters--
			if t.iters <= 0 {
				t.done = true
				break loop
			}
		default:
			return fmt.Errorf("exec: unknown op %d", in.op)
		}
	}
	t.code, t.pc = code, pc
	return nil
}

// ctl executes a control block: counts it, makes it current and charges
// one branch.
func (g *engine) ctl(t *thread, b *ir.BasicBlock) {
	g.prof.IncrBlock(b.Global)
	t.curBlock = b
	t.time += g.r.cfg.BranchCost
	g.sample(t)
}

// sample lets the collector observe the thread's new time.
func (g *engine) sample(t *thread) {
	if g.r.collector != nil {
		g.r.collector.Tick(t.cpu, t.time, t.curBlock)
	}
}

// resolveInstance maps an instance expression to a concrete index.
func (r *Runner) resolveInstance(t *thread, a *arena, e ir.InstExpr) (int, error) {
	switch e.Kind {
	case ir.InstShared:
		return e.Index % a.count, nil
	case ir.InstPerCPU:
		return t.cpu % a.count, nil
	case ir.InstParam:
		if e.Index >= len(t.params) {
			return 0, fmt.Errorf("exec: thread %d has no param %d", t.id, e.Index)
		}
		return t.params[e.Index] % a.count, nil
	case ir.InstLoopVar:
		if len(t.loopVals) == 0 {
			return 0, fmt.Errorf("exec: loopvar instance outside any loop")
		}
		return int(t.loopVals[len(t.loopVals)-1] % int64(a.count)), nil
	default:
		return 0, fmt.Errorf("exec: unknown instance kind %d", e.Kind)
	}
}

// accessMem performs a region access.
func (g *engine) accessMem(t *thread, in *decInstr) error {
	r := g.r
	addr, err := r.memAddr(t, in)
	if err != nil {
		return err
	}
	if r.sim.enabled && !r.simNext(t) {
		res := r.coh.Warm(t.cpu, addr, 8, in.write)
		t.time += res.Latency
		t.offOps++
		return nil
	}
	var res coherence.AccessResult
	r.coh.AccessInto(t.cpu, addr, 8, in.write, &res)
	t.time += res.Latency
	g.sample(t)
	return nil
}

// fieldAddr resolves a field access address.
func (r *Runner) fieldAddr(t *thread, in *decInstr) (int64, error) {
	a := in.arena
	idx, err := r.instIndex(t, a, in)
	if err != nil {
		return 0, err
	}
	return a.base + int64(idx)*a.stride + in.fieldOff, nil
}

// accessField performs a field access at its resolved address.
func (g *engine) accessField(t *thread, in *decInstr, addr int64) {
	r := g.r
	if r.sim.enabled && !r.simNext(t) {
		// Off-window: functional warming. The MESI transition (and its
		// real latency) happens; only the statistics are discarded, so
		// the next measured window opens on exact-run cache state.
		res := r.coh.Warm(t.cpu, addr, in.size, in.write)
		t.time += res.Latency
		t.offOps++
		return
	}
	var res coherence.AccessResult
	r.coh.AccessInto(t.cpu, addr, in.size, in.write, &res)
	t.time += res.Latency
	g.record(in.arena, in.field, &res)
	g.sample(t)
}

// memAddr resolves a region access address.
func (r *Runner) memAddr(t *thread, in *decInstr) (int64, error) {
	reg := in.region
	base := reg.base
	if reg.perThread {
		base += int64(t.cpu) * reg.stride
	}
	span := reg.size - 8
	if span < 1 {
		span = 1
	}
	var off int64
	switch in.pattern {
	case ir.MemSeq:
		cur := t.cursors[in.regionIdx]
		stride := in.stride
		if stride == 0 {
			stride = 8
		}
		off = cur % span
		t.cursors[in.regionIdx] = cur + stride
	case ir.MemFixed:
		off = in.offset % span
	case ir.MemRand:
		off = t.rng.Int63n(span)
	default:
		return 0, fmt.Errorf("exec: unknown memory pattern %d", in.pattern)
	}
	return base + off, nil
}

// lockAccess performs a lock-word access. In sampled mode these are always
// measured whatever window is open, so they form their own stratum
// (coherence.AccessPinned): the extrapolation adds them at weight 1 instead
// of multiplying them by the window stratum's inverse sampling rate.
func (r *Runner) lockAccess(cpu int, addr int64, size int, write bool) coherence.AccessResult {
	if r.sim.enabled {
		return r.coh.AccessPinned(cpu, addr, size, write)
	}
	return r.coh.Access(cpu, addr, size, write)
}

// lockFor resolves the lock state and lock-word address for a lock/unlock
// instruction.
func (r *Runner) lockFor(t *thread, in *decInstr) (*lockState, int64, error) {
	a := in.arena
	idx, err := r.instIndex(t, a, in)
	if err != nil {
		return nil, 0, err
	}
	addr := a.base + int64(idx)*a.stride + in.fieldOff
	return &a.locks[idx*len(a.stats)+int(in.field)], addr, nil
}

// execLock acquires a field-resident spinlock: a read-modify-write of the
// lock word. Contended acquisition parks the thread FIFO; the release path
// hands the lock (and the cache line, at cache-to-cache cost) to the first
// waiter. Every acquisition dirties the lock's line, so co-locating a hot
// lock with read-mostly fields produces exactly the false-sharing traffic
// the paper's CycleLoss term is meant to catch.
func (g *engine) execLock(t *thread, in *decInstr) error {
	r := g.r
	ls, addr, err := r.lockFor(t, in)
	if err != nil {
		return err
	}
	if ls.holder == nil {
		ls.holder = t
		res := r.lockAccess(t.cpu, addr, in.size, true)
		t.time += res.Latency
		g.record(in.arena, in.field, &res)
		g.sample(t)
		return nil
	}
	if ls.holder == t {
		return fmt.Errorf("exec: thread %d re-acquires lock %s.%d it already holds", t.id, in.arena.name, in.field)
	}
	ls.waiters = append(ls.waiters, t)
	t.parked = true
	return nil
}

// execUnlock releases the lock and wakes the next waiter. Waking makes the
// caller's runUntil return immediately, so the scheduler recomputes its
// limit with the woken thread back in the queue.
func (g *engine) execUnlock(t *thread, in *decInstr) error {
	r := g.r
	ls, addr, err := r.lockFor(t, in)
	if err != nil {
		return err
	}
	if ls.holder != t {
		return fmt.Errorf("exec: thread %d releases lock %s.%d it does not hold", t.id, in.arena.name, in.field)
	}
	res := r.lockAccess(t.cpu, addr, in.size, true)
	t.time += res.Latency
	g.record(in.arena, in.field, &res)
	g.sample(t)

	if len(ls.waiters) == 0 {
		ls.holder = nil
		return nil
	}
	w := ls.waiters[0]
	ls.waiters = ls.waiters[1:]
	ls.holder = w
	// The waiter resumes after the release, paying the lock-word transfer.
	wake := t.time + r.cfg.LockHandoff
	if w.time > wake {
		wake = w.time
	}
	w.time = wake
	wres := r.lockAccess(w.cpu, addr, in.size, true)
	w.time += wres.Latency
	g.record(in.arena, in.field, &wres)
	if r.collector != nil {
		r.collector.Tick(w.cpu, w.time, w.curBlock)
	}
	g.woken = append(g.woken, w)
	return nil
}

// record attributes an access result to the field's statistics in the
// engine's group-local slices.
func (g *engine) record(a *arena, field int32, res *coherence.AccessResult) {
	fs := &g.stats[a.idx][field]
	fs.Accesses++
	fs.StallCycles += res.Latency
	switch res.Miss {
	case coherence.MissNone:
	case coherence.MissUpgrade:
		fs.Upgrades++
	case coherence.MissCoherence:
		fs.Misses++
		fs.CohMisses++
	default:
		fs.Misses++
	}
	if res.FalseSharing {
		fs.FalseSharing++
		// Attribute the causing write to its field too, when it lands in a
		// known arena. The writer's line is in this group's footprint, so
		// the group-local slice is the right accumulator.
		if ca, fi := g.r.fieldAtAddr(res.WriterAddr); ca != nil {
			g.stats[ca.idx][fi].CausedFalseSharing++
		}
	}
}

// fieldAtAddr reverse-maps an address to the arena and field occupying it.
// Arenas never overlap, so scanning the (short) definition-ordered list is
// deterministic.
func (r *Runner) fieldAtAddr(addr int64) (*arena, int) {
	for _, a := range r.arenaList {
		if addr < a.base || addr >= a.base+a.stride*int64(a.count) {
			continue
		}
		off := int((addr - a.base) % a.stride)
		if fi := a.lay.FieldAt(off); fi >= 0 {
			return a, fi
		}
		return nil, -1
	}
	return nil, -1
}
