package exec

import (
	"fmt"
	"math"

	"structlayout/internal/coherence"
)

// SimMode selects the simulation fidelity of a run.
type SimMode uint8

const (
	// SimExact simulates every access through the coherence model.
	SimExact SimMode = iota
	// SimSampled measures a seeded, statistically chosen subset of
	// per-thread access windows; the coherence counters are extrapolated
	// from the measured subset with a reported confidence interval.
	// Off-window accesses are functionally warmed (SMARTS-style): they
	// perform the full MESI transition and are charged its real latency,
	// but record no statistics and cross the interleaving gate only once
	// per bounded runahead span (accessYields) instead of per access — so
	// measured windows open on exact-run cache state, and the saving
	// comes from skipping per-access statistics, miss classification and
	// scheduler yields, not from skipping the accesses. Locks are always
	// measured exactly (their interleaving defines the run's structure),
	// so lock handoff chains and deadlocks behave identically to exact
	// mode.
	SimSampled
)

// String names the mode the way the -sim flag spells it.
func (m SimMode) String() string {
	if m == SimSampled {
		return "sampled"
	}
	return "exact"
}

// ParseSimMode parses a -sim flag value.
func ParseSimMode(s string) (SimMode, error) {
	switch s {
	case "", "exact":
		return SimExact, nil
	case "sampled":
		return SimSampled, nil
	}
	return SimExact, fmt.Errorf("exec: unknown sim mode %q (want exact or sampled)", s)
}

// SimConfig parameterizes the sampled mode. The zero value is exact
// simulation.
type SimConfig struct {
	Mode SimMode
	// WindowOps is the sampling window length in per-thread memory
	// accesses (a power of two; default 256). Windows are counted in
	// accesses, not cycles: a time-length window would over-represent slow
	// accesses (a coherence miss occupies hundreds of cycles, a hit one),
	// biasing every extrapolated per-access rate — the same reason SMARTS
	// samples by instruction count. Windows short against the run length
	// keep the measured subset representative.
	WindowOps int64
	// Period is the inverse sampling rate: on average one window in
	// Period is measured (default 4). Window 0 is always measured so
	// every run reports a non-empty sample.
	Period int64
	// Seed drives window selection (default: the run seed). Part of the
	// measurement's identity: memo keys hash it.
	Seed int64
}

func (c *SimConfig) fillDefaults(runSeed int64) {
	if c.WindowOps == 0 {
		c.WindowOps = 1 << 8
	}
	if c.Period == 0 {
		c.Period = 4
	}
	if c.Seed == 0 {
		c.Seed = runSeed
	}
}

// Validate checks the sampled-mode parameters.
func (c SimConfig) Validate() error {
	if c.WindowOps <= 0 || c.WindowOps&(c.WindowOps-1) != 0 {
		return fmt.Errorf("exec: sim window %d accesses not a positive power of two", c.WindowOps)
	}
	if c.Period < 1 {
		return fmt.Errorf("exec: sim period %d < 1", c.Period)
	}
	return nil
}

// simState is the runner's resolved sampling schedule.
type simState struct {
	enabled bool
	shift   uint
	period  uint64
	seed    uint64
	// slack bounds how far past the scheduler limit an off-window access
	// may run before yielding (see accessYields).
	slack int64
}

// initSim resolves the run's simulation mode.
func (r *Runner) initSim() error {
	if r.cfg.Sim.Mode != SimSampled {
		return nil
	}
	sc := r.cfg.Sim
	sc.fillDefaults(r.cfg.Seed)
	if err := sc.Validate(); err != nil {
		return err
	}
	if r.collector != nil {
		return fmt.Errorf("exec: sampled simulation cannot drive PMU collection; collect in exact mode")
	}
	r.cfg.Sim = sc
	r.sim.enabled = true
	for w := sc.WindowOps; w > 1; w >>= 1 {
		r.sim.shift++
	}
	r.sim.period = uint64(sc.Period)
	r.sim.seed = uint64(sc.Seed)
	// Off-window runahead bound: a handful of the machine's worst-case
	// transfers (16×, tuned on the figure-suite differential check —
	// larger slack buys speed, smaller buys interleaving fidelity).
	// Scaling it with the topology keeps the temporal fuzz proportional
	// to the latencies it can misorder — a fixed cycle count would be a
	// different fraction of a miss on a bus box than on a 128-way
	// Superdome.
	worst := r.cfg.Topo.MemBase + r.cfg.Topo.MemPerLevel*int64(len(r.cfg.Topo.Shape))
	for _, lat := range r.cfg.Topo.CacheToCache {
		if lat > worst {
			worst = lat
		}
	}
	r.sim.slack = 16 * worst
	for _, t := range r.threads {
		t.simSeed = r.sim.seed ^ mix64(uint64(t.id)+1)
	}
	return nil
}

// mix64 is the splitmix64 finalizer: a cheap, well-distributed hash for
// the per-window keep/skip draw.
func mix64(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}

// onWindow reports whether thread seed tseed's window w is measured: a
// deterministic draw at rate 1/period, window 0 always on. The draw keys on
// the thread's own seed, not just w: threads run the same procedures, so
// their nth windows cover the same program phases, and one shared schedule
// would skip the same phases (first touches, say) on every thread at once —
// a correlated gap no amount of extrapolation can see.
func (s *simState) onWindow(tseed uint64, w int64) bool {
	if w == 0 {
		return true
	}
	return mix64(tseed+uint64(w)*0x9e3779b97f4a7c15)%s.period == 0
}

// simOn reports whether the thread's next memory access falls in a
// measured window, caching the window boundary on the thread (the op
// counter is monotonic, so one shift+hash per window crossing). Windows
// are per thread and counted in that thread's accesses.
func (r *Runner) simOn(t *thread) bool {
	if t.ops >= t.winEnd {
		w := t.ops >> r.sim.shift
		t.winOn = r.sim.onWindow(t.simSeed, w)
		t.winEnd = (w + 1) << r.sim.shift
	}
	return t.winOn
}

// simNext is simOn plus the op-counter advance: the interpreter calls it
// exactly once per field/region access. The yield gate (accessYields)
// peeks with simOn — same decision, no advance.
func (r *Runner) simNext(t *thread) bool {
	on := r.simOn(t)
	t.ops++
	return on
}

// SampledInfo reports the sampling extrapolation of a SimSampled run.
type SampledInfo struct {
	// WindowOps and Period echo the effective sampling parameters.
	WindowOps int64
	Period    int64
	// SimulatedOps counts the accesses measured through the full model
	// (including lock words, which are always measured); SkippedOps counts
	// the off-window field/region accesses that were functionally warmed
	// — full MESI transition and real latency, no statistics.
	SimulatedOps uint64
	SkippedOps   uint64
	// Scale is the window stratum's extrapolation factor: total
	// field/region accesses over measured ones. Lock-word accesses form a
	// separate, fully measured stratum added at weight 1.
	Scale float64
	// Extrapolated estimates the exact run's counters: the pinned lock
	// stratum plus the windowed stratum scaled by Scale.
	Extrapolated coherence.Stats
	// MissCI95 is the ± half-width of the 95% confidence interval on
	// Extrapolated.Misses() under a binomial sampling model over the
	// windowed stratum (the pinned stratum contributes no variance).
	// Misses cluster in time, so the true interval is somewhat wider; the
	// differential tests against exact mode pin the realized error bound.
	MissCI95 float64
}

// sampledInfo assembles the stratified extrapolation after a sampled run:
// raw covers the windowed field/region accesses (measured at ~1/Period),
// the coherence system's pinned stratum covers lock words (measured in
// full). Because functional warming resolves every off-window access, the
// extrapolated access count is exact; only the miss/invalidation
// classification is estimated.
func (r *Runner) sampledInfo(raw coherence.Stats) *SampledInfo {
	var off uint64
	for _, t := range r.threads {
		off += t.offOps
	}
	pinned := r.coh.PinnedStats()
	info := &SampledInfo{
		WindowOps:    r.cfg.Sim.WindowOps,
		Period:       r.cfg.Sim.Period,
		SimulatedOps: raw.Accesses + pinned.Accesses,
		SkippedOps:   off,
		Scale:        1,
	}
	if raw.Accesses > 0 {
		info.Scale = float64(raw.Accesses+off) / float64(raw.Accesses)
	}
	info.Extrapolated = scaleStats(raw, info.Scale)
	info.Extrapolated.Add(pinned)
	if raw.Accesses > 0 {
		p := float64(raw.Misses()) / float64(raw.Accesses)
		info.MissCI95 = 1.96 * math.Sqrt(float64(raw.Accesses)*p*(1-p)) * info.Scale
	}
	return info
}

// scaleStats multiplies every counter by f, rounding to nearest.
func scaleStats(s coherence.Stats, f float64) coherence.Stats {
	sc := func(v uint64) uint64 { return uint64(math.Round(float64(v) * f)) }
	return coherence.Stats{
		Accesses:      sc(s.Accesses),
		Hits:          sc(s.Hits),
		ColdMisses:    sc(s.ColdMisses),
		ReplMisses:    sc(s.ReplMisses),
		CohMisses:     sc(s.CohMisses),
		Upgrades:      sc(s.Upgrades),
		FalseSharing:  sc(s.FalseSharing),
		TrueSharing:   sc(s.TrueSharing),
		Invalidations: sc(s.Invalidations),
		Writebacks:    sc(s.Writebacks),
		MemFetches:    sc(s.MemFetches),
	}
}
