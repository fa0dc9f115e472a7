package exec

import "structlayout/internal/ir"

// fpKey is one element of a thread's static memory footprint: a concrete
// arena instance (arena >= 0) or a shared region (arena == -1, inst is the
// region index). Arenas and regions are allocated line-aligned with guard
// lines, so footprint-disjoint threads are cache-line-disjoint.
type fpKey struct {
	arena int
	inst  int
}

// footprint is everything a thread can statically touch.
type footprint struct {
	keys   map[fpKey]struct{}
	arenas map[int]struct{} // arena.idx values touched at all
	wild   map[int]struct{} // arenas touched with a statically unresolvable instance
}

// threadGroups partitions the run's threads into groups whose static
// footprints are pairwise disjoint. Threads in distinct groups can never
// touch the same cache line or lock, so the groups can execute
// concurrently against the sharded coherence directory (each group drives
// its own lines and CPUs) with results byte-identical to a serial run.
//
// Grouping is enabled by shard mode (Cache.Shards > 1); PMU collection
// pins everything to one group, since the collector's trace is a single
// globally-ordered stream. The analysis is conservative: an instance
// expression it cannot resolve statically (loop-variable indexing, or a
// parameter index that would resolve negative) marks the whole arena as
// conflicting with every thread that touches it.
func (r *Runner) threadGroups() [][]*thread {
	if r.cfg.Cache.Shards <= 1 || r.collector != nil || len(r.threads) <= 1 {
		return [][]*thread{r.threads}
	}
	fps := make([]footprint, len(r.threads))
	for i, t := range r.threads {
		fps[i] = r.footprintOf(t)
	}

	parent := make([]int, len(r.threads))
	for i := range parent {
		parent[i] = i
	}
	var find func(int) int
	find = func(x int) int {
		for parent[x] != x {
			parent[x] = parent[parent[x]]
			x = parent[x]
		}
		return x
	}
	union := func(a, b int) {
		ra, rb := find(a), find(b)
		if ra != rb {
			parent[rb] = ra
		}
	}

	// Threads sharing a concrete instance or shared region conflict.
	owner := make(map[fpKey]int)
	for ti := range fps {
		for k := range fps[ti].keys {
			if o, ok := owner[k]; ok {
				union(o, ti)
			} else {
				owner[k] = ti
			}
		}
	}
	// A wildcard on an arena conflicts with every toucher of that arena.
	touchers := make(map[int][]int)
	wild := make(map[int]bool)
	for ti := range fps {
		for a := range fps[ti].arenas {
			touchers[a] = append(touchers[a], ti)
		}
		for a := range fps[ti].wild {
			wild[a] = true
		}
	}
	for a, ts := range touchers {
		if wild[a] {
			for _, ti := range ts[1:] {
				union(ts[0], ti)
			}
		}
	}

	// Assemble components. Iterating threads in id order makes both the
	// group order (by smallest member) and the order within each group
	// deterministic.
	byRoot := make(map[int]int)
	var groups [][]*thread
	for ti, t := range r.threads {
		root := find(ti)
		gi, ok := byRoot[root]
		if !ok {
			gi = len(groups)
			byRoot[root] = gi
			groups = append(groups, nil)
		}
		groups[gi] = append(groups[gi], t)
	}
	return groups
}

// footprintOf walks the thread's entry code stream and every stream it
// can call (cycle-safe) and collects the instances and regions their
// instructions can address.
func (r *Runner) footprintOf(t *thread) footprint {
	fp := footprint{
		keys:   make(map[fpKey]struct{}),
		arenas: make(map[int]struct{}),
		wild:   make(map[int]struct{}),
	}
	visited := make(map[int32]bool)
	var walk func(code []decInstr)
	walk = func(code []decInstr) {
		for i := range code {
			d := &code[i]
			switch d.op {
			case opCall:
				if !visited[d.target] {
					visited[d.target] = true
					walk(r.code[d.target])
				}
			case opField, opLock, opUnlock:
				a := d.arena
				fp.arenas[a.idx] = struct{}{}
				inst := -1
				switch d.inst.Kind {
				case ir.InstShared:
					inst = d.inst.Index % a.count
				case ir.InstPerCPU:
					inst = t.cpu % a.count
				case ir.InstParam:
					if d.inst.Index < len(t.params) {
						inst = t.params[d.inst.Index] % a.count
					}
				}
				if inst < 0 {
					fp.wild[a.idx] = struct{}{}
				} else {
					fp.keys[fpKey{a.idx, inst}] = struct{}{}
				}
			case opMem:
				// Per-thread regions are private (one thread per CPU);
				// shared regions conflict whole.
				if !d.region.perThread {
					fp.keys[fpKey{-1, int(d.regionIdx)}] = struct{}{}
				}
			}
		}
	}
	walk(t.code)
	return fp
}
