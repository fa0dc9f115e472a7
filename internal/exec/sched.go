package exec

import (
	"fmt"
	"math"
	"math/bits"

	"structlayout/internal/coherence"
	"structlayout/internal/profile"
)

// engine is the execution state of one thread group: the scheduler queue
// plus every accumulator written on the hot path (profile counts, dense
// per-arena field stats, completion counter, wake list). Groups with
// disjoint static footprints (see threadGroups) share nothing but the
// coherence system — which they drive on disjoint lines and CPUs — so
// engines can run concurrently and merge commutatively, byte-identical to
// a serial run.
type engine struct {
	r       *Runner
	threads []*thread

	// idShift packs a thread's scheduling key (time, id) into one int64:
	// time<<idShift | id. A single integer compare is then the full
	// lexicographic order, removing the tie-break branch from every queue
	// compare and yield check. idShift is the bit width of the group's
	// largest thread id (and the depth of its slot tree); timeCap guards
	// the shift against overflow.
	idShift uint
	timeCap int64

	prof  *profile.Profile
	stats [][]FieldStat // per-arena (by arena.idx) field statistics
	woken []*thread     // threads released by the current step's unlock

	completed int64
	crossings int64 // scheduler turns: runUntil calls
}

func (r *Runner) newEngine(ts []*thread) *engine {
	g := &engine{r: r, threads: ts, prof: profile.New(r.prog)}
	maxID := 0
	for _, t := range ts {
		if t.id > maxID {
			maxID = t.id
		}
	}
	g.idShift = uint(bits.Len(uint(maxID)))
	g.timeCap = int64(1) << (62 - g.idShift)
	g.stats = make([][]FieldStat, len(r.arenaList))
	for i, a := range r.arenaList {
		g.stats[i] = make([]FieldStat, len(a.stats))
	}
	return g
}

// merge folds a finished engine's accumulators into the runner. Every
// accumulator is a commutative sum, so merge order cannot affect results.
func (r *Runner) merge(g *engine) error {
	r.completed += g.completed
	r.crossings += g.crossings
	for i, a := range r.arenaList {
		for fi := range g.stats[i] {
			s, d := &g.stats[i][fi], &a.stats[fi]
			d.Accesses += s.Accesses
			d.Misses += s.Misses
			d.CohMisses += s.CohMisses
			d.Upgrades += s.Upgrades
			d.FalseSharing += s.FalseSharing
			d.CausedFalseSharing += s.CausedFalseSharing
			d.StallCycles += s.StallCycles
		}
	}
	return r.prof.Merge(g.prof)
}

// key packs a thread's (time, id) into its single-compare scheduling key.
func (g *engine) key(t *thread) int64 {
	return t.time<<g.idShift | int64(t.id)
}

// run executes the group's threads to completion.
//
// Scheduling invariant: a shared operation — one that can interact with
// another thread's — executes only when its thread's pre-op (time, id) is
// the lexicographic minimum over the group's runnable threads. Locks and
// unlocks are always shared; field and region accesses are shared unless
// sampled off-window (bounded runahead, see accessYields) or a read that
// hits a line nothing writes (exempt, see readAhead). Everything else
// (compute, calls, control bookkeeping) never yields. Operations that
// cannot interact commute with every other thread's, so executing them
// past the limit changes nothing another thread observes. The order of
// shared operations is therefore a pure function of the threads'
// virtual-time trajectories, independent of yield granularity and of
// whatever other groups do — which is what makes group-parallel execution
// byte-identical to serial.
func (g *engine) run() error {
	q := newSlotTree(g.idShift)
	for _, t := range g.threads {
		q.set(t.id, g.key(t))
	}
	idMask := int64(1)<<g.idShift - 1
	parked := 0
	for root := q.n[1]; root.lo != idle; root = q.n[1] {
		// The root names the next thread and, as the runner-up key, the
		// limit it may run to.
		t := g.r.threads[root.lo&idMask]
		g.crossings++
		if err := g.runUntil(t, root.hi); err != nil {
			return err
		}
		if err := g.checkCap(t); err != nil {
			return err
		}
		switch {
		case t.done:
			q.set(t.id, idle)
		case t.parked:
			q.set(t.id, idle)
			parked++
		default:
			q.set(t.id, g.key(t))
		}
		// Re-queue anything the step released. runUntil returns the moment
		// a wake happens, so the next iteration's limit includes the woken
		// thread — without this, the running thread could race past it.
		for _, w := range g.woken {
			// A woken thread resumes after the lock handoff, later than its
			// waker: check it too before its key is packed.
			if err := g.checkCap(w); err != nil {
				return fmt.Errorf("%w (woken by thread %d)", err, t.id)
			}
			w.parked = false
			parked--
			q.set(w.id, g.key(w))
		}
		g.woken = g.woken[:0]
	}
	if parked > 0 {
		return fmt.Errorf("exec: deadlock: %d threads still parked", parked)
	}
	return nil
}

// checkCap fails the run when a thread's virtual time reaches the packed
// key's overflow guard. Unreachable in practice (2^55 cycles for a
// 128-thread group); failing loudly beats letting the key wrap.
func (g *engine) checkCap(t *thread) error {
	if t.time >= g.timeCap {
		return fmt.Errorf("exec: thread %d virtual time %d exceeds scheduler cap %d", t.id, t.time, g.timeCap)
	}
	return nil
}

// accessYields reports whether a field or region access must yield once
// its thread's pre-op key (time, id) is past the limit (locks and unlocks
// always do). Off-window accesses in sampled mode get a bounded
// dispensation instead of a full exemption: they may run up to simSlack
// cycles past the limit before yielding. The slack is what buys the
// speedup (the thread crosses the scheduler once per slack span instead of
// once per access), and its bound is what contains the model error — a
// warm write can commit at most simSlack cycles of virtual time earlier
// than exact order, so it cannot invalidate a line a far-future reader
// would have hit.
func (g *engine) accessYields(t *thread, limit int64) bool {
	if g.r.sim.enabled && !g.r.simOn(t) {
		return t.time > limit>>g.idShift+g.r.sim.slack
	}
	return true
}

// readAhead performs the field access in at addr past the scheduler limit
// and reports true when it may run there (read-only-hit runahead): a read
// by a runahead thread (see Runner.initRunahead) that touches one line no
// write, lock or unlock instruction of the program can touch, and that
// hits in the reader's cache. Such a read commutes with every other
// thread's operation:
//
//   - nothing can invalidate a never-written line, so it hits at its exact
//     turn too, and its latency — hence the thread's trajectory — is the
//     same;
//   - it changes only the LRU order of the reader's own set, and the only
//     things other threads do to that cache (removeLine on other lines,
//     downgradeOwner on any line) commute with the rotation;
//   - the counters it bumps are commutative sums.
//
// coherence.ReadHit probes and performs the hit in one scan; on a miss
// nothing has happened and the access must wait for its turn. Runahead is
// never enabled on the slow path, which stays the reference that yields
// before every shared access.
func (g *engine) readAhead(t *thread, in *decInstr, addr int64) bool {
	r := g.r
	if !t.runahead || in.write {
		return false
	}
	line := addr >> r.lineShift
	if (addr+int64(in.size)-1)>>r.lineShift != line || r.written[line>>6]&(1<<(line&63)) != 0 {
		return false
	}
	var res coherence.AccessResult
	if !r.coh.ReadHit(t.cpu, addr, &res) {
		return false
	}
	t.time += res.Latency
	g.record(in.arena, in.field, &res)
	return true
}

// idle is the key of a slot with no runnable thread.
const idle = math.MaxInt64

// slotTree is the scheduler queue: a tournament tree over thread-id slots.
// Leaf id holds thread id's packed key while it is runnable and idle
// otherwise; every node keeps the smallest and second-smallest key of its
// subtree. The root therefore names both the next thread (its smallest key
// carries the id) and that thread's limit (the runner-up key), and a key
// change is one fixed leaf-to-root walk of log₂(slots) branch-free
// min/max steps — no child choice, no early exit to mispredict, and the
// nodes of a 128-thread group fit in 4 KiB.
type slotTree struct {
	n []minPair // root at 1; leaf id at len(n)/2 + id
}

// minPair is a subtree's two smallest keys, lo <= hi.
type minPair struct{ lo, hi int64 }

// newSlotTree builds an all-idle tree with 1<<idBits leaf slots.
func newSlotTree(idBits uint) slotTree {
	q := slotTree{n: make([]minPair, 2<<idBits)}
	for i := range q.n {
		q.n[i] = minPair{idle, idle}
	}
	return q
}

// set gives slot id the key (idle removes it) and recomputes its path.
func (q slotTree) set(id int, key int64) {
	i := len(q.n)/2 + id
	q.n[i].lo = key
	for i > 1 {
		i >>= 1
		a, b := q.n[2*i], q.n[2*i+1]
		q.n[i] = minPair{min(a.lo, b.lo), min(max(a.lo, b.lo), a.hi, b.hi)}
	}
}
