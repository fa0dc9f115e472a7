package main

import (
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"strings"
	"time"

	"structlayout/internal/affinity"
	"structlayout/internal/cluster"
	"structlayout/internal/coherence"
	"structlayout/internal/concurrency"
	"structlayout/internal/core"
	"structlayout/internal/diag"
	"structlayout/internal/exec"
	"structlayout/internal/experiments"
	"structlayout/internal/flg"
	"structlayout/internal/ir"
	"structlayout/internal/machine"
	"structlayout/internal/memo"
	"structlayout/internal/parallel"
	"structlayout/internal/profile"
	"structlayout/internal/sampling"
	"structlayout/internal/workload"
)

// setupReps is how many times a workload with a set-up of a few
// milliseconds repeats it; setup_s is the median.
const setupReps = 21

// figuresConfig is the reduced pass users run: the calibrated defaults at
// two measured runs per configuration, with the base seed offset by the
// benchmark seed (seed 0 is the calibrated default the golden records).
func figuresConfig(seed int64) experiments.Config {
	cfg := experiments.DefaultConfig()
	cfg.Runs = 2
	cfg.BaseSeed += seed
	return cfg
}

// warmPerCold is how many warm passes follow each cold one: a warm pass
// takes tens of milliseconds, so its median needs many.
const warmPerCold = 10

// runFigures times cold reduced passes (NewPipeline, Fig8, Fig9, Fig10
// with exact simulation against a cleared in-memory memo), each followed by
// warm passes that replay the same pass from the in-memory memo.
func runFigures(b *bench) error {
	cfg := figuresConfig(b.seed)
	parallel.SetLimit(runtime.NumCPU())
	var golden string
	if b.seed == 0 {
		raw, err := os.ReadFile(filepath.Join(b.root, "internal", "experiments", "testdata", "golden_reduced.txt"))
		if err != nil {
			return err
		}
		// The golden's first three blocks are Figures 8, 9 and 10; the
		// robustness sweep after them is not part of this pass.
		g, _, ok := strings.Cut(string(raw), "robustness sweep")
		if !ok {
			return fmt.Errorf("golden_reduced.txt has no robustness block to cut at")
		}
		golden = g
	}

	// Set-up is the suite build a pass starts from, repeated.
	var setups []float64
	for i := 0; i < setupReps; i++ {
		t0 := time.Now()
		memo.Shared().Clear()
		if _, err := workload.NewSuite(cfg.Params); err != nil {
			return err
		}
		setups = append(setups, time.Since(t0).Seconds())
	}
	b.e2e["setup_s"] = b.timing("setup_s (suite build)", "s", setups)

	var cold, warm, rss []float64
	var first string
	var firstMemo memo.Stats
	var last *experiments.Pipeline
	start := time.Now()
	var pair time.Duration
	for len(cold) == 0 || time.Since(start)+pair <= b.dur {
		p0 := time.Now()
		memo.Shared().Clear()
		// Return the previous pass's heap to the OS, so the pass's peak
		// RSS starts from the same footprint every time.
		debug.FreeOSMemory()
		if err := resetPeakRSS(); err != nil {
			return err
		}
		t0 := time.Now()
		p, text, err := figuresPass(b, cfg, "")
		cold = append(cold, time.Since(t0).Seconds())
		peak, rerr := peakRSSMB()
		if rerr != nil {
			return rerr
		}
		rss = append(rss, peak)
		if err == nil {
			switch {
			case golden != "" && text != golden:
				err = fmt.Errorf("tables differ from golden_reduced.txt:\n%s", text)
			case first == "":
				first = text
			case text != first:
				err = fmt.Errorf("tables differ from this run's first pass:\n%s", text)
			}
		}
		st := memo.Shared().Stats()
		if err == nil && last != nil && st != firstMemo {
			err = fmt.Errorf("memo traffic %+v differs from the first cold pass's %+v", st, firstMemo)
		}
		b.check("cold reduced pass", err)
		if err != nil {
			continue
		}
		if last == nil {
			firstMemo = st
		}
		last = p

		for i := 0; i < warmPerCold; i++ {
			t0 = time.Now()
			_, wtext, err := figuresPass(b, cfg, "warm.")
			warm = append(warm, time.Since(t0).Seconds())
			if err == nil && wtext != text {
				err = fmt.Errorf("warm tables differ from the cold pass's:\n%s", wtext)
			}
			b.check("warm reduced pass", err)
		}
		pair = time.Since(p0)
	}
	elapsed := time.Since(start).Seconds()
	b.e2e["cold_ms"] = b.timing("figures_s (cold reduced pass)", "s", cold) * 1000
	b.e2e["warm_ms"] = b.timing("warm pass (replayed from the in-memory memo)", "ms", warm)
	b.e2e["ops_per_s"] = float64(len(cold)+len(warm)) / elapsed
	b.logf("ops_per_s: %.4f reduced passes/s (%d cold + %d warm in %.2f s)", b.e2e["ops_per_s"], len(cold), len(warm), elapsed)
	b.e2e["peak_rss_mb"] = median(rss)
	b.logf("peak_rss_mb: median %.1f MB over cold passes of the benchmark process's peak RSS during the pass; samples %.1f", median(rss), rss)

	if b.tr == nil {
		return nil
	}
	if last == nil {
		return fmt.Errorf("no cold pass succeeded; nothing to probe")
	}
	for _, fig := range []string{"new_pipeline", "fig8", "fig9", "fig10"} {
		b.layerTime("experiments."+fig+"_s", "experiments."+fig)
	}
	b.count("memo.mem_hits", float64(firstMemo.MemHits))
	b.count("memo.misses", float64(firstMemo.Misses))
	b.check("exec probe", probeExec(b, last))
	b.check("coherence probe", probeCoherence(b, cfg))
	b.check("analysis probe", probeAnalysis(b, cfg))
	return nil
}

// figuresPass runs one reduced pass and renders its three tables. Span
// names carry prefix, so cold and warm passes time separately.
func figuresPass(b *bench, cfg experiments.Config, prefix string) (*experiments.Pipeline, string, error) {
	pass := b.tr.begin(prefix+"pass", 0)
	defer b.tr.end(pass)
	var p *experiments.Pipeline
	err := b.tr.do(prefix+"experiments.new_pipeline", pass, func() (err error) {
		p, err = experiments.NewPipeline(cfg)
		return err
	})
	if err != nil {
		return nil, "", err
	}
	var sb strings.Builder
	figs := []struct {
		name string
		fn   func() (*experiments.Figure, error)
	}{{"fig8", p.Fig8}, {"fig9", p.Fig9}, {"fig10", p.Fig10}}
	for _, fig := range figs {
		var f *experiments.Figure
		err := b.tr.do(prefix+"experiments."+fig.name, pass, func() (err error) {
			f, err = fig.fn()
			return err
		})
		if err != nil {
			return nil, "", fmt.Errorf("%s: %w", fig.name, err)
		}
		sb.WriteString(f.String())
	}
	return p, sb.String(), nil
}

// probeExec replays Figure 8's baseline cell run by run — Superdome128,
// baseline layouts, the seeds Suite.Measure uses — and records the
// engine's host time and its simulated counts.
func probeExec(b *bench, p *experiments.Pipeline) error {
	probe := b.tr.begin("probe.exec", 0)
	defer b.tr.end(probe)
	var total coherence.Stats
	var cycles int64
	for i := 0; i < p.Cfg.Runs; i++ {
		var res *exec.Result
		err := b.tr.do("exec.run", probe, func() (err error) {
			res, err = p.Suite.RunOnce(machine.Superdome128(), p.Baselines, p.Cfg.BaseSeed+int64(i)*1009+1, nil)
			return err
		})
		if err != nil {
			return err
		}
		total.Add(res.Coherence)
		cycles += res.Cycles
	}
	runs := b.tr.durations("exec.run")
	b.layerTime("exec.run_s", "exec.run")
	b.layers["exec.ns_per_access"] = sum(runs) * 1e9 / float64(total.Accesses)
	b.count("exec.sim_accesses", float64(total.Accesses))
	b.count("exec.sim_cycles", float64(cycles))
	b.count("coherence.coh_misses", float64(total.CohMisses))
	b.count("coherence.false_sharing", float64(total.FalseSharing))
	b.count("coherence.invalidations", float64(total.Invalidations))
	b.count("coherence.upgrades", float64(total.Upgrades))
	return nil
}

// probeCoherence times coherence.System.Access alone, replaying a fixed
// SDET-like stream (mostly-read scans plus contended hot-line writes) on
// Superdome128 under the workload's cache geometry.
func probeCoherence(b *bench, cfg experiments.Config) error {
	const (
		streamLen = 1 << 16
		iters     = 1 << 21
		maxAddr   = 1 << 22
	)
	topo := machine.Superdome128()
	sys, err := coherence.NewSystem(topo, cfg.Params.Cache)
	if err != nil {
		return err
	}
	sys.ReserveDirectory(maxAddr)
	rng := rand.New(rand.NewSource(b.seed))
	cpu := make([]int, streamLen)
	addr := make([]int64, streamLen)
	write := make([]bool, streamLen)
	for i := range cpu {
		cpu[i] = rng.Intn(topo.NumCPUs())
		if rng.Intn(10) == 0 {
			addr[i] = 128 + int64(rng.Intn(16))*8
			write[i] = true
		} else {
			addr[i] = 128 + rng.Int63n(maxAddr-256)
			write[i] = rng.Intn(4) == 0
		}
	}
	for i := 0; i < streamLen; i++ {
		sys.Access(cpu[i], addr[i], 8, write[i])
	}
	id := b.tr.begin("coherence.access_stream", 0)
	for i := 0; i < iters; i++ {
		j := i % streamLen
		sys.Access(cpu[j], addr[j], 8, write[j])
	}
	b.tr.end(id)
	b.layers["coherence.ns_per_access"] = sum(b.tr.durations("coherence.access_stream")) * 1e9 / iters
	return nil
}

// analysisReps is how many times the analysis probe repeats; its layer
// times are per-repetition means.
const analysisReps = 3

// probeAnalysis collects the SDET trace on the collection machine and
// times each analysis layer on it, as NewPipeline configures them, for
// all five structs.
func probeAnalysis(b *bench, cfg experiments.Config) error {
	probe := b.tr.begin("probe.analysis", 0)
	defer b.tr.end(probe)
	memo.Shared().Clear()
	params := cfg.Params
	params.ScriptsPerThread = cfg.CollectScripts
	suite, err := workload.NewSuite(params)
	if err != nil {
		return err
	}
	lineSize := int(cfg.Params.Cache.LineSize)
	baselines := suite.BaselineLayouts(lineSize)
	var pf *profile.Profile
	var trace *sampling.Trace
	err = b.tr.do("workload.collect", probe, func() (err error) {
		pf, trace, err = suite.Collect(cfg.CollectTopo, baselines, cfg.BaseSeed)
		return err
	})
	if err != nil {
		return err
	}
	b.layerTime("workload.collect_s", "workload.collect")
	b.count("sampling.samples", float64(len(trace.Samples)))

	opts := cfg.Tool
	opts.LineSize = lineSize
	opts.FLG.AliasOracle = workload.PrivateAliasOracle(suite.Prog)
	edges, pairs := 0, 0
	for rep := 0; rep < analysisReps; rep++ {
		var a *core.Analysis
		err := b.tr.do("core.new_analysis", probe, func() (err error) {
			a, err = core.NewAnalysis(suite.Prog, pf, trace, opts)
			return err
		})
		if err != nil {
			return err
		}
		for _, label := range workload.Labels() {
			name := suite.Struct(label).Type.Name
			if err := b.tr.do("core.suggest", probe, func() error {
				_, err := a.Suggest(name, baselines[label])
				return err
			}); err != nil {
				return err
			}
			if err := b.tr.do("core.best", probe, func() error {
				_, _, err := a.Best(name, baselines[label])
				return err
			}); err != nil {
				return err
			}
		}

		// The layers under core, called as NewAnalysis and Suggest call
		// them.
		clean := sampling.Sanitize(trace, suite.Prog.NumBlocks(), diag.NewLog())
		var cm *concurrency.Map
		err = b.tr.do("concurrency.compute", probe, func() (err error) {
			cm, err = concurrency.Compute(clean, concurrency.Options{
				SliceCycles: a.Opts.SliceCycles,
				Relevant:    func(id ir.BlockID) bool { return len(a.FMF.AtBlock(id)) > 0 },
			})
			return err
		})
		if err != nil {
			return err
		}
		if a.Concurrency == nil || len(cm.CC) != len(a.Concurrency.CC) {
			return fmt.Errorf("concurrency.Compute found %d pairs, the analysis %v", len(cm.CC), a.Concurrency)
		}
		pairs = len(cm.CC)
		edges = 0
		for _, label := range workload.Labels() {
			st := suite.Struct(label).Type
			id := b.tr.begin("affinity.build", probe)
			ag := affinity.Build(suite.Prog, a.Profile, st, a.Opts.Affinity)
			b.tr.end(id)
			id = b.tr.begin("flg.build", probe)
			g := flg.Build(ag, a.Concurrency, a.FMF, a.Opts.FLG)
			b.tr.end(id)
			edges += len(g.Edges())
			id = b.tr.begin("cluster.greedy", probe)
			cluster.Greedy(g, lineSize)
			b.tr.end(id)
		}
	}
	b.layerPerRep(analysisReps, "core.new_analysis", "core.suggest", "core.best", "concurrency.compute", "affinity.build", "flg.build", "cluster.greedy")
	b.count("concurrency.pairs", float64(pairs))
	b.count("flg.edges", float64(edges))
	return nil
}
