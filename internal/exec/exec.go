// Package exec is the multiprocessor execution engine: it interprets IR
// programs on N simulated CPUs over the coherence simulator, under a global
// virtual clock. It stands in for the paper's native runs on HP-UX
// hardware, producing everything the paper's pipeline collects from a run:
//
//   - precise block/loop execution counts (the PBO profile, §4),
//   - PMU-style samples with synchronized timestamps (Caliper, §4.2),
//   - total cycles, from which the SDET-style throughput metric derives,
//   - per-field coherence statistics (ground truth for evaluation only).
//
// Scheduling is deterministic: the runnable thread with the smallest local
// time executes next (CPU id breaks ties), so identical inputs and seeds
// replay identical interleavings. Field addresses are resolved through a
// layout per struct, with instances placed at cache-line-aligned bases the
// way the HP-UX arena allocator does (§2) — re-running the same workload
// under a different layout is exactly the paper's experiment.
package exec

import (
	"fmt"
	"math/bits"
	"math/rand"

	"structlayout/internal/coherence"
	"structlayout/internal/ir"
	"structlayout/internal/layout"
	"structlayout/internal/machine"
	"structlayout/internal/parallel"
	"structlayout/internal/profile"
	"structlayout/internal/sampling"
)

// Config parameterizes a run.
type Config struct {
	// Topo is the machine to simulate.
	Topo *machine.Topology
	// Cache is the per-CPU cache geometry.
	Cache coherence.Config
	// Seed drives branch draws, random memory patterns and sampling.
	Seed int64
	// Sampling enables PMU-style collection when non-nil.
	Sampling *sampling.Config
	// CallOverhead is charged per procedure call (default 8 cycles).
	CallOverhead int64
	// BranchCost is charged per synthetic control block (default 1 cycle).
	BranchCost int64
	// LockHandoff is the extra cost of waking a lock waiter beyond the
	// cache-to-cache transfer of the lock word (default 20 cycles).
	LockHandoff int64
	// Sim selects exact or interval-sampled simulation (zero value: exact).
	Sim SimConfig
}

func (c *Config) fillDefaults() {
	if c.CallOverhead == 0 {
		c.CallOverhead = 8
	}
	if c.BranchCost == 0 {
		c.BranchCost = 1
	}
	if c.LockHandoff == 0 {
		c.LockHandoff = 20
	}
}

// FieldRef names a field for statistics attribution.
type FieldRef struct {
	Struct string
	Field  int
}

// FieldStat aggregates what one field's accesses cost during a run.
type FieldStat struct {
	Accesses  uint64
	Misses    uint64
	CohMisses uint64
	Upgrades  uint64
	// FalseSharing counts events where this field's access was the victim.
	FalseSharing uint64
	// CausedFalseSharing counts events where a write to this field
	// invalidated a victim's disjoint bytes (the perf-c2c "HITM source"
	// view: the lock or counter responsible, not just its victims).
	CausedFalseSharing uint64
	StallCycles        int64
}

// Result is everything a run produces.
type Result struct {
	// Cycles is the virtual time at which the last thread finished.
	Cycles int64
	// Completed counts finished top-level procedure iterations ("scripts").
	Completed int64
	// Profile holds precise block and loop counts.
	Profile *profile.Profile
	// Trace holds PMU samples (nil when sampling was disabled).
	Trace *sampling.Trace
	// Coherence aggregates the cache simulator's global counters.
	Coherence coherence.Stats
	// Fields attributes coherence behaviour to struct fields.
	Fields map[FieldRef]*FieldStat
	// ThreadCycles is each thread's finish time.
	ThreadCycles []int64
	// Sampled reports the extrapolation of a SimSampled run (nil for
	// exact runs). When set, Coherence and Fields cover only the measured
	// accesses (the sampled windows plus the always-measured lock words);
	// Sampled.Extrapolated estimates the full population.
	Sampled *SampledInfo
}

// arena is the line-aligned backing store of one struct type's instances.
// It also carries the run's dense per-field statistics and lock table, so
// the per-access hot path indexes slices instead of probing maps.
type arena struct {
	idx    int // position in arenaList; indexes engine stat slices
	base   int64
	count  int
	stride int64
	lay    *layout.Layout
	name   string
	stats  []FieldStat // indexed by field
	locks  []lockState // indexed by instance*numFields + field
}

// regionAlloc places one ir.Region in the address space.
type regionAlloc struct {
	base      int64
	size      int64
	perThread bool
	stride    int64 // distance between per-thread copies
}

// lockState tracks a spinlock's holder and FIFO waiters. The zero value is
// an unheld lock.
type lockState struct {
	holder  *thread
	waiters []*thread
}

// Runner executes one configuration of one program. Build it, define
// arenas/layouts and threads, then call Run once.
type Runner struct {
	prog *ir.Program
	cfg  Config

	coh       *coherence.System
	collector *sampling.Collector
	prof      *profile.Profile

	arenas    map[string]*arena
	arenaList []*arena // definition order, for deterministic reverse mapping
	regions   map[string]*regionAlloc
	regionIdx map[string]int
	nextAdr   int64

	code [][]decInstr // per-procedure code streams, indexed like prog.Procs (see decode)

	threads []*thread
	cpuUsed map[int]bool
	nparams int // widest thread parameter list (sizes the instance tables)

	sim simState

	// Read-only-hit runahead (see engine.readAhead): lineShift turns an
	// address into its line, and written marks every arena line that some
	// write, lock or unlock instruction can touch.
	lineShift uint
	written   []uint64

	completed int64
	crossings int64 // scheduler turns, summed over engines
	ran       bool

	// slowPath disables compute merging and read-only-hit runahead, so the
	// interpreter times every compute separately and yields before every
	// shared access past the limit: the reference the equivalence tests
	// require identical Results against. Test-only.
	slowPath bool
}

// NewRunner builds a runner. Layouts must cover every struct the program
// accesses; arena sizes are set via DefineArena before AddThread.
func NewRunner(prog *ir.Program, cfg Config) (*Runner, error) {
	cfg.fillDefaults()
	if cfg.Topo == nil {
		return nil, fmt.Errorf("exec: nil topology")
	}
	coh, err := coherence.NewSystem(cfg.Topo, cfg.Cache)
	if err != nil {
		return nil, err
	}
	r := &Runner{
		prog:      prog,
		cfg:       cfg,
		coh:       coh,
		prof:      profile.New(prog),
		arenas:    make(map[string]*arena),
		regions:   make(map[string]*regionAlloc),
		regionIdx: make(map[string]int),
		cpuUsed:   make(map[int]bool),
		nextAdr:   cfg.Cache.LineSize, // keep address 0 unused
	}
	if cfg.Sampling != nil {
		sc := *cfg.Sampling
		if sc.Seed == 0 {
			sc.Seed = cfg.Seed + 1
		}
		r.collector, err = sampling.NewCollector(sc, cfg.Topo.NumCPUs())
		if err != nil {
			return nil, err
		}
	}
	// Regions are allocated eagerly; per-thread regions reserve one copy
	// per possible CPU.
	for i, reg := range prog.Regions {
		stride := alignUp(reg.Bytes, cfg.Cache.LineSize)
		ra := &regionAlloc{size: reg.Bytes, perThread: reg.PerThread, stride: stride}
		copies := int64(1)
		if reg.PerThread {
			copies = int64(cfg.Topo.NumCPUs())
		}
		ra.base = r.allocate(stride * copies)
		r.regions[reg.Name] = ra
		r.regionIdx[reg.Name] = i
	}
	return r, nil
}

// allocate reserves n bytes of line-aligned address space with one guard
// line of separation, so distinct allocations never falsely share.
func (r *Runner) allocate(n int64) int64 {
	base := r.nextAdr
	r.nextAdr = alignUp(base+n, r.cfg.Cache.LineSize) + r.cfg.Cache.LineSize
	return base
}

func alignUp(n, a int64) int64 { return (n + a - 1) / a * a }

// DefineArena creates count line-aligned instances of the struct laid out
// by lay. Must be called before threads run; one arena per struct.
func (r *Runner) DefineArena(lay *layout.Layout, count int) error {
	if count <= 0 {
		return fmt.Errorf("exec: arena for %s with count %d", lay.Struct.Name, count)
	}
	if int64(lay.LineSize) != r.cfg.Cache.LineSize {
		return fmt.Errorf("exec: layout %s uses line size %d, cache uses %d", lay.Name, lay.LineSize, r.cfg.Cache.LineSize)
	}
	name := lay.Struct.Name
	if _, dup := r.arenas[name]; dup {
		return fmt.Errorf("exec: arena for %s already defined", name)
	}
	if err := lay.Validate(); err != nil {
		return err
	}
	// Cache coloring: pad the instance stride to an odd number of lines so
	// that same-offset lines of successive instances spread over every
	// cache set (gcd(odd, 2^k) = 1). Without this, an even line count
	// aliases all instances onto a fraction of the sets and conflict
	// misses would punish or reward layouts for their *size parity*, an
	// artifact real arena allocators avoid the same way.
	lines := int64(lay.NumLines())
	if lines%2 == 0 {
		lines++
	}
	stride := lines * r.cfg.Cache.LineSize
	nf := len(lay.Struct.Fields)
	a := &arena{
		idx:    len(r.arenaList),
		count:  count,
		stride: stride,
		lay:    lay,
		name:   name,
		stats:  make([]FieldStat, nf),
		locks:  make([]lockState, count*nf),
	}
	a.base = r.allocate(stride * int64(count))
	r.arenas[name] = a
	r.arenaList = append(r.arenaList, a)
	return nil
}

// AddThread binds a thread to a CPU running the named procedure iterations
// times with the given parameter vector. One thread per CPU.
func (r *Runner) AddThread(cpu int, proc string, params []int, iterations int64) error {
	if cpu < 0 || cpu >= r.cfg.Topo.NumCPUs() {
		return fmt.Errorf("exec: cpu %d out of range", cpu)
	}
	if r.cpuUsed[cpu] {
		return fmt.Errorf("exec: cpu %d already has a thread", cpu)
	}
	pr := r.prog.Proc(proc)
	if pr == nil {
		return fmt.Errorf("exec: unknown procedure %q", proc)
	}
	if iterations <= 0 {
		return fmt.Errorf("exec: thread needs positive iterations")
	}
	t := &thread{
		id:      len(r.threads),
		cpu:     cpu,
		entry:   pr,
		params:  append([]int(nil), params...),
		iters:   iterations,
		rng:     rand.New(rand.NewSource(r.cfg.Seed*7919 + int64(cpu)*104729 + 13)),
		cursors: make([]int64, len(r.prog.Regions)),
	}
	r.cpuUsed[cpu] = true
	r.threads = append(r.threads, t)
	return nil
}

// Run executes to completion and returns the result. A runner runs once.
func (r *Runner) Run() (*Result, error) {
	if r.ran {
		return nil, fmt.Errorf("exec: runner already ran")
	}
	r.ran = true
	if len(r.threads) == 0 {
		return nil, fmt.Errorf("exec: no threads")
	}
	// Decode the program once: resolves every arena/region/callee name and
	// verifies up front that every accessed struct has an arena.
	if err := r.decode(); err != nil {
		return nil, err
	}
	if err := r.initSim(); err != nil {
		return nil, err
	}
	r.buildInstTables()
	r.initRunahead()
	r.coh.ReserveDirectory(r.nextAdr)

	// Partition threads into footprint-disjoint groups and run each group
	// on its own engine. With one group (the common case outside shard
	// mode) this is a plain serial run; with several, the groups execute
	// concurrently — they share only the coherence system, which they
	// drive on disjoint lines and CPUs — and their accumulators merge as
	// commutative sums, so the result is byte-identical either way.
	groups := r.threadGroups()
	engines := make([]*engine, len(groups))
	for i, ts := range groups {
		engines[i] = r.newEngine(ts)
	}
	if len(engines) == 1 {
		if err := engines[0].run(); err != nil {
			return nil, err
		}
	} else if err := parallel.ForEach(len(engines), func(i int) error {
		return engines[i].run()
	}); err != nil {
		return nil, err
	}
	for _, g := range engines {
		if err := r.merge(g); err != nil {
			return nil, err
		}
	}

	// Rebuild the sparse field map from the dense per-arena statistics;
	// only touched fields appear, matching the lazily-populated map the
	// hot path used to maintain.
	fields := make(map[FieldRef]*FieldStat)
	for _, a := range r.arenaList {
		for fi := range a.stats {
			if a.stats[fi] != (FieldStat{}) {
				fs := a.stats[fi]
				fields[FieldRef{Struct: a.name, Field: fi}] = &fs
			}
		}
	}
	res := &Result{
		Completed:    r.completed,
		Profile:      r.prof,
		Coherence:    r.coh.GlobalStats(),
		Fields:       fields,
		ThreadCycles: make([]int64, len(r.threads)),
	}
	for i, t := range r.threads {
		res.ThreadCycles[i] = t.time
		if t.time > res.Cycles {
			res.Cycles = t.time
		}
	}
	if r.sim.enabled {
		res.Sampled = r.sampledInfo(res.Coherence)
		// Fold the always-measured lock stratum into the reported raw
		// counters: Coherence then covers every measured access, while
		// Sampled keeps the strata apart for extrapolation.
		res.Coherence.Add(r.coh.PinnedStats())
	}
	if r.collector != nil {
		res.Trace = r.collector.Finish()
	}
	return res, nil
}

// initRunahead enables read-only-hit runahead (engine.readAhead) for the
// threads it is sound for, and builds the written-line bitmap it checks.
// The run must be exact with no collector: sampled mode's yield points are
// part of its interleaving (see accessYields), and the collector observes
// every access in global time order. The slow path never runs ahead. A thread must be alone on its CPU,
// since a co-located thread's fills could evict the line between the
// early read and its exact turn. The bitmap is built from the
// deduplicated written (arena, field) pairs, each marked on every instance
// an instruction could select; it covers arena lines only, since regions
// are allocated on lines of their own.
func (r *Runner) initRunahead() {
	if r.sim.enabled || r.collector != nil || r.slowPath {
		return
	}
	onCPU := make([]int, r.cfg.Topo.NumCPUs())
	for _, t := range r.threads {
		onCPU[t.cpu]++
	}
	for _, t := range r.threads {
		t.runahead = onCPU[t.cpu] == 1
	}

	writes := make([][]bool, len(r.arenaList))
	for i, a := range r.arenaList {
		writes[i] = make([]bool, len(a.stats))
	}
	for _, code := range r.code {
		for i := range code {
			d := &code[i]
			if d.op == opLock || d.op == opUnlock || d.op == opField && d.write {
				writes[d.arena.idx][d.field] = true
			}
		}
	}
	r.lineShift = uint(bits.TrailingZeros64(uint64(r.cfg.Cache.LineSize)))
	r.written = make([]uint64, r.nextAdr>>r.lineShift>>6+1)
	for i, a := range r.arenaList {
		for fi, w := range writes[i] {
			if !w {
				continue
			}
			off, size := int64(a.lay.Offsets[fi]), int64(a.lay.Struct.Fields[fi].Size)
			for idx := int64(0); idx < int64(a.count); idx++ {
				lo := a.base + idx*a.stride + off
				for l := lo >> r.lineShift; l <= (lo+size-1)>>r.lineShift; l++ {
					r.written[l>>6] |= 1 << (l & 63)
				}
			}
		}
	}
}
