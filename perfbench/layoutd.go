package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"io"
	"io/fs"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"runtime/debug"
	"sort"
	"strconv"
	"sync"
	"time"

	"structlayout/internal/driver"
	"structlayout/internal/ir"
	"structlayout/internal/irtext"
	"structlayout/internal/layout"
	"structlayout/internal/machine"
	"structlayout/internal/memo"
	"structlayout/internal/server"
	"structlayout/internal/staticshare"
)

const (
	// mixClients is the closed-loop client count: one per core of the
	// two-core host the benchmark is calibrated on.
	mixClients = 2
	// mixPrefix is how many requests each client sends before the
	// server's counters are read. The prefix is a pure function of the
	// seed, so the counters repeat exactly; traffic after it runs until
	// the measuring time is up.
	mixPrefix = 150
	// mixDeadlineMS is every analyze request's deadline: far above any
	// request's cost, so the rung never depends on timing.
	mixDeadlineMS = 60_000
)

// mixProgram is one DSL program of the mix.
type mixProgram struct {
	name string
	src  string
	file *irtext.File
}

// loadMixPrograms reads the mix's programs from the checkout: loadgen's
// webserver and counters, the DSL example webserver, the driver's
// memcached and the lint examples.
func loadMixPrograms(root string) ([]mixProgram, error) {
	consts, err := stringConsts(filepath.Join(root, "cmd", "loadgen", "main.go"))
	if err != nil {
		return nil, err
	}
	var progs []mixProgram
	for _, name := range []string{"progWebserver", "progCounters"} {
		src, ok := consts[name]
		if !ok {
			return nil, fmt.Errorf("cmd/loadgen/main.go has no constant %s", name)
		}
		progs = append(progs, mixProgram{name: "loadgen." + name, src: src})
	}
	lint, err := filepath.Glob(filepath.Join(root, "examples", "lint", "*.slp"))
	if err != nil {
		return nil, err
	}
	sort.Strings(lint)
	paths := append([]string{
		filepath.Join(root, "examples", "dslprogram", "webserver.slp"),
		filepath.Join(root, "internal", "driver", "testdata", "memcached.slp"),
	}, lint...)
	for _, p := range paths {
		src, err := os.ReadFile(p)
		if err != nil {
			return nil, err
		}
		rel, _ := filepath.Rel(root, p)
		progs = append(progs, mixProgram{name: rel, src: string(src)})
	}
	for i := range progs {
		f, err := irtext.Parse(progs[i].src)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", progs[i].name, err)
		}
		progs[i].file = f
	}
	return progs, nil
}

// stringConsts returns the string constants a Go source file declares.
func stringConsts(path string) (map[string]string, error) {
	f, err := parser.ParseFile(token.NewFileSet(), path, nil, 0)
	if err != nil {
		return nil, err
	}
	out := make(map[string]string)
	for _, d := range f.Decls {
		gd, ok := d.(*ast.GenDecl)
		if !ok || gd.Tok != token.CONST {
			continue
		}
		for _, spec := range gd.Specs {
			vs := spec.(*ast.ValueSpec)
			for i, n := range vs.Names {
				if i >= len(vs.Values) {
					continue
				}
				if lit, ok := vs.Values[i].(*ast.BasicLit); ok && lit.Kind == token.STRING {
					s, err := strconv.Unquote(lit.Value)
					if err != nil {
						return nil, fmt.Errorf("%s: constant %s: %w", path, n.Name, err)
					}
					out[n.Name] = s
				}
			}
		}
	}
	return out, nil
}

// layoutd is an in-process server.Server on a loopback listener, set up
// as docs/SERVICE.md documents — default workers, queue and deadlines —
// but without a disk tier: fsyncs to a disk shared with other machines
// made a third of a full request's time and most of its run-to-run
// spread, so the mix keeps the memo in memory and probeMemoDisk times the
// disk tier on its own.
type layoutd struct {
	srv   *server.Server
	hs    *http.Server
	url   string
	serve chan error
}

// startLayoutd starts a server with a cleared memo and returns once
// /readyz answers 200.
func startLayoutd() (*layoutd, error) {
	memo.Shared().Clear()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	l := &layoutd{
		srv:   server.New(server.Config{}),
		url:   "http://" + ln.Addr().String(),
		serve: make(chan error, 1),
	}
	l.hs = &http.Server{Handler: l.srv.Handler()}
	go func() { l.serve <- l.hs.Serve(ln) }()
	client := &http.Client{Timeout: 5 * time.Second}
	defer client.CloseIdleConnections()
	for start := time.Now(); ; {
		resp, err := client.Get(l.url + "/readyz")
		if err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return l, nil
			}
		}
		if time.Since(start) > 10*time.Second {
			l.stop()
			return nil, fmt.Errorf("layoutd not ready after 10s (last error %v)", err)
		}
		time.Sleep(time.Millisecond)
	}
}

// stop drains the server and waits for its serving goroutine.
func (l *layoutd) stop() error {
	l.srv.Drain()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	err := l.hs.Shutdown(ctx)
	if serr := <-l.serve; !errors.Is(serr, http.ErrServerClosed) && err == nil {
		err = serr
	}
	return err
}

// outcome is one completed request as its client saw it.
type outcome struct {
	kind reqKind
	// class is the latency class: the rung the response reports for
	// analyze ("full", "replay", or "measure" for measured analyze),
	// "lint", or "reject" for a 400.
	class string
	// group is the analyze request's program, machine and whether it was
	// faulted: latency figures weigh every group the same.
	group   string
	seconds float64
	err     error
}

// mixClient is one closed-loop client with its own keep-alive connection.
type mixClient struct {
	id     int
	s      *stream
	progs  []mixProgram
	url    string
	http   *http.Client
	tr     *tracer
	span   int
	out    []outcome
	seen   map[analysisKey]string // layouts first served for each key
	linted map[int]string         // findings first served for each program
}

func newMixClient(id int, seed int64, progs []mixProgram, url string, tr *tracer) *mixClient {
	return &mixClient{
		id:     id,
		s:      newStream(seed, id, mixClients, len(progs)),
		progs:  progs,
		url:    url,
		http:   &http.Client{Timeout: 2 * mixDeadlineMS * time.Millisecond, Transport: &http.Transport{MaxIdleConnsPerHost: 1}},
		tr:     tr,
		seen:   make(map[analysisKey]string),
		linted: make(map[int]string),
	}
}

// run sends requests until n are sent (n > 0) or until the deadline.
func (c *mixClient) run(n int, deadline time.Time) {
	for i := 0; n > 0 && i < n || n == 0 && time.Now().Before(deadline); i++ {
		req := c.s.next()
		id := c.tr.begin("layoutd.request."+req.Kind.String(), c.span)
		t0 := time.Now()
		class, err := c.send(req)
		secs := time.Since(t0).Seconds()
		c.tr.end(id)
		group := fmt.Sprintf("%s/%s/faulted=%v", c.progs[req.Key.Prog].name, req.Key.Machine, req.Key.Inject != "")
		c.out = append(c.out, outcome{kind: req.Kind, class: class, group: group, seconds: secs, err: err})
	}
}

// send issues one request and checks its response against loadgen's
// contract and against earlier responses for the same key.
func (c *mixClient) send(req mixRequest) (string, error) {
	path := "/v1/analyze"
	var body []byte
	var err error
	switch req.Kind {
	case kindLint:
		path = "/v1/lint"
		body, err = json.Marshal(server.LintRequest{Program: c.progs[req.Prog].src})
	case kindMalformed:
		if req.Truncate {
			body, err = json.Marshal(server.AnalyzeRequest{Program: c.progs[req.Prog].src, DeadlineMS: mixDeadlineMS})
			body = body[:len(body)/2]
		} else {
			body, err = json.Marshal(server.AnalyzeRequest{Program: "program broken\nstruct {"})
		}
	default:
		ar := server.AnalyzeRequest{
			Program:    c.progs[req.Key.Prog].src,
			Machine:    req.Key.Machine,
			Mode:       "auto",
			Seed:       req.Key.Seed,
			Inject:     req.Key.Inject,
			DeadlineMS: mixDeadlineMS,
		}
		if req.Kind == kindMeasure {
			ar.MeasureRuns = 2
		}
		body, err = json.Marshal(ar)
	}
	if err != nil {
		return "", err
	}
	resp, err := c.http.Post(c.url+path, "application/json", bytes.NewReader(body))
	if err != nil {
		return "", err
	}
	raw, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		return "", err
	}

	switch req.Kind {
	case kindMalformed:
		var eb struct{ Code string }
		if resp.StatusCode != http.StatusBadRequest || json.Unmarshal(raw, &eb) != nil || eb.Code == "" {
			return "reject", fmt.Errorf("malformed request: status %d body %.200s, want 400 with a code", resp.StatusCode, raw)
		}
		return "reject", nil
	case kindLint:
		var lr server.LintResponse
		if resp.StatusCode != http.StatusOK || json.Unmarshal(raw, &lr) != nil || lr.Count != len(lr.Findings) || lr.MaxSeverity == "" {
			return "lint", fmt.Errorf("lint %s: status %d body %.200s", c.progs[req.Prog].name, resp.StatusCode, raw)
		}
		return "lint", sameAs(c.linted, req.Prog, string(raw), "lint findings for "+c.progs[req.Prog].name)
	}
	var ar server.AnalyzeResponse
	if resp.StatusCode != http.StatusOK {
		return "", fmt.Errorf("%s analyze: status %d body %.200s", req.Kind, resp.StatusCode, raw)
	}
	if err := json.Unmarshal(raw, &ar); err != nil {
		return "", fmt.Errorf("%s analyze: %w", req.Kind, err)
	}
	want := server.LadderFull
	if req.Kind == kindReplay {
		want = server.LadderReplay
	}
	class := ar.Ladder
	if req.Kind == kindMeasure {
		class = "measure"
	}
	switch {
	case ar.Ladder != want:
		return class, fmt.Errorf("%s analyze of %+v served on rung %q, want %q", req.Kind, req.Key, ar.Ladder, want)
	case ar.Quality.Verdict != "OK" && ar.Quality.Verdict != "SUSPECT" && ar.Quality.Verdict != "DEGRADED":
		return class, fmt.Errorf("%s analyze: verdict %q", req.Kind, ar.Quality.Verdict)
	case len(ar.Structs) == 0:
		return class, fmt.Errorf("%s analyze of %+v: no layouts", req.Kind, req.Key)
	case req.Kind == kindMeasure && ar.Measure == nil:
		return class, fmt.Errorf("measure analyze of %+v: no measurement table", req.Key)
	}
	layouts, err := json.Marshal(ar.Structs)
	if err != nil {
		return class, err
	}
	return class, sameAs(c.seen, req.Key, string(layouts), fmt.Sprintf("layouts for %+v", req.Key))
}

// sameAs records v as the first answer for k, or checks that it equals it.
func sameAs[K comparable](seen map[K]string, k K, v, what string) error {
	first, ok := seen[k]
	if !ok {
		seen[k] = v
		return nil
	}
	if v != first {
		return fmt.Errorf("%s changed between responses:\nfirst %s\nnow   %s", what, first, v)
	}
	return nil
}

// runClients runs every client's run(n, deadline) concurrently.
func runClients(clients []*mixClient, n int, deadline time.Time) {
	var wg sync.WaitGroup
	for _, c := range clients {
		wg.Add(1)
		go func(c *mixClient) {
			defer wg.Done()
			c.run(n, deadline)
		}(c)
	}
	wg.Wait()
}

// runLayoutd drives an in-process layoutd with two closed-loop clients.
func runLayoutd(b *bench) error {
	// Set-up is everything before the first request: loading the mix's
	// programs, then server start to /readyz green.
	var setups []float64
	var progs []mixProgram
	var l *layoutd
	for i := 0; i < setupReps; i++ {
		if l != nil {
			if err := l.stop(); err != nil {
				return err
			}
		}
		t0 := time.Now()
		var err error
		if progs, err = loadMixPrograms(b.root); err != nil {
			return err
		}
		if l, err = startLayoutd(); err != nil {
			return err
		}
		setups = append(setups, time.Since(t0).Seconds())
	}
	b.e2e["setup_s"] = b.timing("setup_s (program loading, server start to /readyz green)", "s", setups)

	clients := make([]*mixClient, mixClients)
	for i := range clients {
		clients[i] = newMixClient(i, b.seed, progs, l.url, b.tr)
		clients[i].span = b.tr.begin(fmt.Sprintf("layoutd.client%d", i), 0)
	}
	// The in-memory memo grows with every fresh key, so the peak RSS is
	// taken over the fixed prefix, whose work does not depend on speed,
	// starting from the set-up's heap returned to the OS.
	debug.FreeOSMemory()
	if err := resetPeakRSS(); err != nil {
		return err
	}
	start := time.Now()
	runClients(clients, mixPrefix, time.Time{})
	stats, ms := l.srv.Stats(), memo.Shared().Stats()
	rss, err := peakRSSMB()
	if err != nil {
		return err
	}
	runClients(clients, 0, start.Add(b.dur))
	elapsed := time.Since(start).Seconds()
	for _, c := range clients {
		b.tr.end(c.span)
		c.http.CloseIdleConnections()
	}
	final := l.srv.Stats()
	if err := l.stop(); err != nil {
		return err
	}

	byClass := make(map[string][]float64)
	byGroup := map[string]map[string][]float64{server.LadderFull: {}, server.LadderReplay: {}}
	var all []float64
	for _, c := range clients {
		for _, o := range c.out {
			b.check(fmt.Sprintf("client %d %s request", c.id, o.kind), o.err)
			byClass[o.class] = append(byClass[o.class], o.seconds)
			if g := byGroup[o.class]; g != nil {
				g[o.group] = append(g[o.group], o.seconds)
			}
			all = append(all, o.seconds)
		}
	}
	b.check("server counters", serverCountersErr(final))
	b.timing("full-rung analyze", "ms", byClass[server.LadderFull])
	b.timing("replay-rung analyze", "ms", byClass[server.LadderReplay])
	b.e2e["cold_ms"] = b.groupTiming("full-rung analyze by program, machine and fault", byGroup[server.LadderFull])
	b.e2e["warm_ms"] = b.groupTiming("replay-rung analyze by program, machine and fault", byGroup[server.LadderReplay])
	b.logf("req_p50_ms: %.4f ms, req_p99_ms: %.4f ms, n=%d (all requests)", percentile(all, 50)*1000, percentile(all, 99)*1000, len(all))
	b.e2e["ops_per_s"] = float64(len(all)) / elapsed
	b.logf("layoutd_rps: %.2f requests/s (%d requests in %.2f s, %d closed-loop clients)", b.e2e["ops_per_s"], len(all), elapsed, mixClients)
	b.e2e["peak_rss_mb"] = rss
	b.logf("peak_rss_mb: %.1f MB (benchmark process, server and clients, over the %d-request prefix)", rss, mixClients*mixPrefix)
	b.logf("server counters after the %d-request prefix: %+v; memo %+v", mixClients*mixPrefix, stats, ms)

	if b.tr == nil {
		return nil
	}
	for _, class := range []string{"full", "replay", "measure", "lint", "reject"} {
		b.layers["server."+class+"_p50_ms"] = median(byClass[class]) * 1000
	}
	b.count("server.ladder_full", float64(stats.LadderFull))
	b.count("server.ladder_replay", float64(stats.LadderReplay))
	b.count("server.ladder_static", float64(stats.LadderStatic))
	b.count("server.shed", float64(stats.Shed))
	b.count("server.deadline_hit", float64(stats.DeadlineHit))
	b.count("server.degraded", float64(stats.Degraded))
	lookups := ms.Hits() + ms.Misses
	b.count("memo.lookups", float64(lookups))
	b.count("memo.hit_ratio", float64(ms.Hits())/float64(lookups))
	b.check("driver, irtext and staticshare probe", probeMix(b, progs))
	b.check("memo disk tier probe", probeMemoDisk(b, progs))
	return nil
}

// serverCountersErr flags counters that must stay 0 when no request's
// outcome depends on timing: static-rung answers, sheds, deadline hits,
// panics and internal errors.
func serverCountersErr(st server.Stats) error {
	if st.LadderStatic != 0 || st.Shed != 0 || st.DeadlineHit != 0 || st.Panics != 0 || st.Errors != 0 {
		return fmt.Errorf("load-dependent behaviour: %+v", st)
	}
	return nil
}

// mixProbeReps is how many times the mix probe repeats; its layer times
// are per-repetition means.
const mixProbeReps = 3

// probeMix times the layers under layoutd on the mix's programs and
// machines: irtext.Parse, staticshare.LintFile, driver.Collect, and
// driver.Evaluate at two runs of the automatic layouts a server serves
// for the same program, machine and seed.
func probeMix(b *bench, progs []mixProgram) error {
	probe := b.tr.begin("probe.mix", 0)
	defer b.tr.end(probe)
	served, err := servedLayouts(progs)
	if err != nil {
		return err
	}
	for rep := 0; rep < mixProbeReps; rep++ {
		memo.Shared().Clear()
		for i, p := range progs {
			var f *irtext.File
			err := b.tr.do("irtext.parse", probe, func() (err error) {
				f, err = irtext.Parse(p.src)
				return err
			})
			if err != nil {
				return err
			}
			err = b.tr.do("staticshare.lint", probe, func() error {
				_, _, err := staticshare.LintFile(f, 128)
				return err
			})
			if err != nil {
				return fmt.Errorf("%s: %w", p.name, err)
			}
			for j, m := range mixMachines {
				if err := probeDriver(b, probe, p, m, served[i][j]); err != nil {
					return fmt.Errorf("%s on %s: %w", p.name, m, err)
				}
			}
		}
	}
	b.layerPerRep(mixProbeReps, "irtext.parse", "staticshare.lint", "driver.collect", "driver.evaluate")
	return nil
}

// probeSeed is the collection seed of the probe's driver calls.
const probeSeed = 1

// servedLayouts asks a fresh server for each program's automatic layouts
// on each machine at probeSeed, indexed by program, then machine.
func servedLayouts(progs []mixProgram) ([][]map[string]*layout.Layout, error) {
	l, err := startLayoutd()
	if err != nil {
		return nil, err
	}
	client := &http.Client{Timeout: 2 * mixDeadlineMS * time.Millisecond}
	defer client.CloseIdleConnections()
	out := make([][]map[string]*layout.Layout, len(progs))
	for i, p := range progs {
		for _, m := range mixMachines {
			autos, err := serveAutos(client, l.url, p, m)
			if err != nil {
				l.stop()
				return nil, fmt.Errorf("%s on %s: %w", p.name, m, err)
			}
			out[i] = append(out[i], autos)
		}
	}
	return out, l.stop()
}

// serveAutos sends one analyze request and rebuilds the automatic layouts
// of its response.
func serveAutos(client *http.Client, url string, p mixProgram, machineName string) (map[string]*layout.Layout, error) {
	body, err := json.Marshal(server.AnalyzeRequest{
		Program: p.src, Machine: machineName, Mode: "auto", Seed: probeSeed, DeadlineMS: mixDeadlineMS,
	})
	if err != nil {
		return nil, err
	}
	resp, err := client.Post(url+"/v1/analyze", "application/json", bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	var ar server.AnalyzeResponse
	if err := json.NewDecoder(resp.Body).Decode(&ar); err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK || ar.Ladder != server.LadderFull {
		return nil, fmt.Errorf("analyze: status %d, rung %q", resp.StatusCode, ar.Ladder)
	}
	autos := make(map[string]*layout.Layout)
	for _, sw := range ar.Structs {
		if sw.Auto == nil {
			return nil, fmt.Errorf("struct %s has no automatic layout", sw.Struct)
		}
		l, err := fromWire(p.file, sw.Struct, sw.Auto)
		if err != nil {
			return nil, err
		}
		autos[sw.Struct] = l
	}
	return autos, nil
}

// fromWire rebuilds a layout of f's struct name from its wire form.
func fromWire(f *irtext.File, name string, w *server.LayoutWire) (*layout.Layout, error) {
	var st *ir.StructType
	for _, s := range f.Prog.Structs {
		if s.Name == name {
			st = s
		}
	}
	if st == nil {
		return nil, fmt.Errorf("layout of unknown struct %s", name)
	}
	l := &layout.Layout{Struct: st, Name: w.Name, Offsets: make([]int, len(st.Fields)), Size: w.Size, LineSize: w.LineSize}
	for _, fw := range w.Fields {
		fi := st.FieldIndex(fw.Name)
		if fi < 0 {
			return nil, fmt.Errorf("struct %s has no field %s", name, fw.Name)
		}
		l.Order = append(l.Order, fi)
		l.Offsets[fi] = fw.Offset
	}
	return l, l.Validate()
}

// probeDriver collects one program on one machine and evaluates autos,
// the automatic layouts layoutd serves for that collection.
func probeDriver(b *bench, parent int, p mixProgram, machineName string, autos map[string]*layout.Layout) error {
	topo, err := machine.ByName(machineName)
	if err != nil {
		return err
	}
	cfg := driver.Config{Topo: topo, Seed: probeSeed}
	err = b.tr.do("driver.collect", parent, func() error {
		_, err := driver.Collect(p.file, cfg, nil)
		return err
	})
	if err != nil {
		return err
	}
	return b.tr.do("driver.evaluate", parent, func() error {
		_, err := driver.Evaluate(p.file, cfg, nil, autos, 2, nil)
		return err
	})
}

// probeMemoDisk times memo's disk tier on the mix's real entries: each
// program's collection on each machine, written through a fresh cache's
// disk tier (temp file, fsync, rename, directory fsync) and read back
// after its memory tier is dropped.
func probeMemoDisk(b *bench, progs []mixProgram) error {
	probe := b.tr.begin("probe.memo_disk", 0)
	defer b.tr.end(probe)
	src, err := os.MkdirTemp(b.tmp, "memo-entries-")
	if err != nil {
		return err
	}
	memo.Shared().Clear()
	if err := memo.Shared().SetDir(src); err != nil {
		return err
	}
	for _, p := range progs {
		for _, m := range mixMachines {
			topo, err := machine.ByName(m)
			if err != nil {
				return err
			}
			if _, _, _, err := driver.CollectCached(p.file, driver.Config{Topo: topo, Seed: probeSeed}); err != nil {
				return fmt.Errorf("%s on %s: %w", p.name, m, err)
			}
		}
	}
	if err := memo.Shared().SetDir(""); err != nil {
		return err
	}
	var entries [][]byte
	err = filepath.WalkDir(src, func(path string, d fs.DirEntry, err error) error {
		if err != nil || !d.Type().IsRegular() {
			return err
		}
		data, err := os.ReadFile(path)
		entries = append(entries, data)
		return err
	})
	if err != nil {
		return err
	}
	if len(entries) != len(progs)*len(mixMachines) {
		return fmt.Errorf("%d memo entries on disk, want one per program and machine (%d)", len(entries), len(progs)*len(mixMachines))
	}

	var total, errs uint64
	for _, e := range entries {
		total += uint64(len(e))
	}
	for rep := 0; rep < mixProbeReps; rep++ {
		dir, err := os.MkdirTemp(b.tmp, "memo-disk-")
		if err != nil {
			return err
		}
		c := memo.New()
		if err := c.SetDir(dir); err != nil {
			return err
		}
		keys := make([]memo.Key, len(entries))
		for i, e := range entries {
			h := memo.NewHasher()
			h.Int("entry", int64(i))
			keys[i] = h.Sum()
			id := b.tr.begin("memo.disk_write", probe)
			_, err := c.Do(keys[i], func() ([]byte, error) { return e, nil })
			b.tr.end(id)
			if err != nil {
				return err
			}
		}
		errs += c.Stats().Errors
		c.Clear() // drops the memory tier and the counters
		for i, e := range entries {
			id := b.tr.begin("memo.disk_read", probe)
			v, err := c.Do(keys[i], func() ([]byte, error) { return nil, fmt.Errorf("entry %d is not on disk", i) })
			b.tr.end(id)
			if err != nil {
				return err
			}
			if !bytes.Equal(v, e) {
				return fmt.Errorf("entry %d read back differs from the one written", i)
			}
		}
		st := c.Stats()
		errs += st.Errors
		if st.DiskHits != uint64(len(entries)) {
			return fmt.Errorf("%d disk hits reading back %d entries", st.DiskHits, len(entries))
		}
		if err := os.RemoveAll(dir); err != nil {
			return err
		}
	}
	b.layerPerRep(mixProbeReps, "memo.disk_write", "memo.disk_read")
	b.count("memo.disk_bytes", float64(total))
	b.count("memo.errors", float64(errs))
	return nil
}
