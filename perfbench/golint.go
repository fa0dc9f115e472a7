package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"os"
	osexec "os/exec"
	"path/filepath"
	"regexp"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"

	"structlayout/internal/gofront"
	"structlayout/internal/staticshare"
)

const (
	// golintSetupReps is how many times the set-up, whose cache priming
	// takes a cold lint, is repeated; setup_s is the median.
	golintSetupReps = 5
	// golintProbes is how many fresh processes the traced layer probe runs.
	golintProbes = 3
)

// golintPatterns are the CLI's package patterns, relative to the copied
// tree: examples/corpus and examples/gofront, 17 packages.
var golintPatterns = []string{"corpus/...", "gofront/..."}

// golintFlagged is how many packages of the tree the known answer flags.
const golintFlagged = 10

// golintClean is the known answer: the packages that lint clean. Every
// other package of the tree must be flagged.
var golintClean = map[string]bool{
	"corpus/readmostly": true,
	"corpus/spscpad":    true,
	"corpus/workqueue":  true,
	"corpus/wgfanout":   true,
	"corpus/chanstage":  true,
	"corpus/handoff":    true,
	"gofront/clean":     true,
}

// golintTree is a temporary copy of the linted packages plus a primed
// report cache.
type golintTree struct {
	dir   string
	cache string
	// files holds one source file per package, in the seed's edit order.
	files []string
	orig  map[string][]byte
	edits int
}

// newGolintTree copies the packages into a fresh directory under tmp and
// primes a report cache with one run of the CLI.
func newGolintTree(b *bench, tool string) (*golintTree, error) {
	dir, err := os.MkdirTemp(b.tmp, "golint-")
	if err != nil {
		return nil, err
	}
	t := &golintTree{dir: dir, cache: filepath.Join(dir, "cache"), orig: make(map[string][]byte)}
	for _, sub := range []string{"corpus", "gofront"} {
		if err := copyTree(filepath.Join(b.root, "examples", sub), filepath.Join(dir, sub)); err != nil {
			return nil, err
		}
	}
	for _, pat := range golintPatterns {
		pkgs, err := filepath.Glob(filepath.Join(dir, strings.TrimSuffix(pat, "/..."), "*"))
		if err != nil {
			return nil, err
		}
		for _, pkg := range pkgs {
			srcs, err := filepath.Glob(filepath.Join(pkg, "*.go"))
			if err != nil {
				return nil, err
			}
			if len(srcs) == 0 {
				continue
			}
			sort.Strings(srcs)
			data, err := os.ReadFile(srcs[0])
			if err != nil {
				return nil, err
			}
			t.files = append(t.files, srcs[0])
			t.orig[srcs[0]] = data
		}
	}
	sort.Strings(t.files)
	rng := rand.New(rand.NewSource(b.seed))
	rng.Shuffle(len(t.files), func(i, j int) { t.files[i], t.files[j] = t.files[j], t.files[i] })
	run := t.lint(tool, true, "")
	if err := run.expect(3, 0, len(t.files)); err != nil {
		return nil, fmt.Errorf("priming the report cache: %w", err)
	}
	return t, nil
}

// copyTree copies the regular files under src to dst.
func copyTree(src, dst string) error {
	return filepath.Walk(src, func(path string, info os.FileInfo, err error) error {
		if err != nil {
			return err
		}
		rel, err := filepath.Rel(src, path)
		if err != nil {
			return err
		}
		target := filepath.Join(dst, rel)
		if info.IsDir() {
			return os.MkdirAll(target, 0o755)
		}
		data, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		return os.WriteFile(target, data, 0o644)
	})
}

// editNext changes one package's source file, round robin, and returns
// the package's directory: each edit appends a comment no earlier content
// had, so exactly that package misses the report cache.
func (t *golintTree) editNext() (string, error) {
	path := t.files[t.edits%len(t.files)]
	t.edits++
	data := append(append([]byte(nil), t.orig[path]...), fmt.Sprintf("\n// edit %d\n", t.edits)...)
	return filepath.Dir(path), os.WriteFile(path, data, 0o644)
}

// lintRun is one finished layouttool process.
type lintRun struct {
	seconds float64
	rssMB   float64
	exit    int
	stdout  string
	stderr  string
	json    []byte
	err     error
}

var cacheSummary = regexp.MustCompile(`go-lint: cache (\d+) hit\(s\) / (\d+) miss\(es\)`)

// lint runs `layouttool -go-lint` on the tree, with the report cache when
// cached, writing -lint-json to jsonName when it is not empty.
func (t *golintTree) lint(tool string, cached bool, jsonName string) lintRun {
	args := []string{"-go-lint", strings.Join(golintPatterns, ",")}
	if cached {
		args = append(args, "-cache-dir", t.cache)
	}
	if jsonName != "" {
		args = append(args, "-lint-json", filepath.Join(t.dir, jsonName))
	}
	cmd := osexec.Command(tool, args...)
	cmd.Dir = t.dir
	var stdout, stderr bytes.Buffer
	cmd.Stdout, cmd.Stderr = &stdout, &stderr
	t0 := time.Now()
	err := cmd.Run()
	r := lintRun{seconds: time.Since(t0).Seconds(), stdout: stdout.String(), stderr: stderr.String()}
	if ee, ok := err.(*osexec.ExitError); ok {
		r.exit = ee.ExitCode()
	} else if err != nil {
		r.err = err
		return r
	}
	if ru, ok := cmd.ProcessState.SysUsage().(*syscall.Rusage); ok {
		r.rssMB = float64(ru.Maxrss) / 1024
	}
	if jsonName != "" {
		r.json, r.err = os.ReadFile(filepath.Join(t.dir, jsonName))
	}
	return r
}

// expect checks the exit code and, for a cached run, the hit and miss
// counts of the CLI's stderr summary.
func (r lintRun) expect(exit, hits, misses int) error {
	if r.err != nil {
		return r.err
	}
	if r.exit != exit {
		return fmt.Errorf("exit %d, want %d; stderr: %s", r.exit, exit, r.stderr)
	}
	if want := fmt.Sprintf("go-lint: %d package(s), %d clean\n", len(golintClean)+golintFlagged, len(golintClean)); !strings.HasPrefix(r.stdout, want) {
		return fmt.Errorf("stdout starts %.80q, want %q", r.stdout, want)
	}
	if hits+misses == 0 {
		return nil
	}
	h, m, err := r.cacheCounts()
	if err != nil {
		return err
	}
	if h != hits || m != misses {
		return fmt.Errorf("cache %d hit(s) / %d miss(es), want %d / %d", h, m, hits, misses)
	}
	return nil
}

// cacheCounts parses the CLI's cache summary from stderr.
func (r lintRun) cacheCounts() (hits, misses int, err error) {
	m := cacheSummary.FindStringSubmatch(r.stderr)
	if m == nil {
		return 0, 0, fmt.Errorf("no cache summary on stderr: %q", r.stderr)
	}
	hits, _ = strconv.Atoi(m[1])
	misses, _ = strconv.Atoi(m[2])
	return hits, misses, nil
}

// sameFindings checks a -lint-json envelope against the oracle's findings.
func sameFindings(envelope, oracle []byte) error {
	var env struct {
		SchemaVersion int             `json:"schemaVersion"`
		Findings      json.RawMessage `json:"findings"`
	}
	if err := json.Unmarshal(envelope, &env); err != nil {
		return fmt.Errorf("-lint-json: %w", err)
	}
	var got bytes.Buffer
	if err := json.Compact(&got, env.Findings); err != nil {
		return err
	}
	if !bytes.Equal(got.Bytes(), oracle) {
		return fmt.Errorf("-lint-json findings differ from the exact classifier's:\n%s", got.Bytes())
	}
	return nil
}

// runGolint times fresh layouttool processes on a copy of the corpus:
// cold runs without a cache, and incremental runs against a primed cache
// with one package changed before each.
func runGolint(b *bench) error {
	tool := filepath.Join(b.work, "bin", "layouttool")
	if _, err := os.Stat(tool); err != nil {
		return fmt.Errorf("layouttool under test not built (run.sh builds it): %w", err)
	}
	var setups []float64
	var tree *golintTree
	for i := 0; i < golintSetupReps; i++ {
		if tree != nil {
			if err := os.RemoveAll(tree.dir); err != nil {
				return err
			}
		}
		t0 := time.Now()
		var err error
		if tree, err = newGolintTree(b, tool); err != nil {
			return err
		}
		setups = append(setups, time.Since(t0).Seconds())
	}
	b.e2e["setup_s"] = b.timing("setup_s (corpus copy and cache priming)", "s", setups)

	oracle, err := golintOracle(tree.dir)
	if err != nil {
		return err
	}

	var cold, incr, rss []float64
	byPkg := make(map[string][]float64)
	var hits, misses int
	start := time.Now()
	for len(cold) == 0 || time.Since(start) < b.dur {
		id := b.tr.begin("golint.cold", 0)
		r := tree.lint(tool, false, "cold.json")
		b.tr.end(id)
		err := r.expect(3, 0, 0)
		if err == nil {
			err = sameFindings(r.json, oracle)
		}
		b.check("cold -go-lint", err)
		cold = append(cold, r.seconds)
		rss = append(rss, r.rssMB)
		// One incremental run per package, so every package's re-check is
		// sampled equally.
		for range tree.files {
			pkg, err := tree.editNext()
			if err != nil {
				return err
			}
			id := b.tr.begin("golint.incremental", 0)
			r := tree.lint(tool, true, "incr.json")
			b.tr.end(id)
			err = r.expect(3, len(tree.files)-1, 1)
			if err == nil {
				err = sameFindings(r.json, oracle)
			}
			if err == nil {
				hits, misses, err = r.cacheCounts()
			}
			b.check("incremental -go-lint", err)
			incr = append(incr, r.seconds)
			byPkg[pkg] = append(byPkg[pkg], r.seconds)
		}
	}
	elapsed := time.Since(start).Seconds()
	b.e2e["cold_ms"] = b.timing("golint_cold_s (cold -go-lint process)", "s", cold) * 1000
	b.timing("golint_incr_s (incremental process, 1 miss / 16 hits)", "s", incr)
	b.e2e["warm_ms"] = b.groupTiming("incremental process by edited package", byPkg)
	b.e2e["ops_per_s"] = float64(len(cold)+len(incr)) / elapsed
	b.logf("ops_per_s: %.3f layouttool processes/s (%d cold + %d incremental in %.2f s)", b.e2e["ops_per_s"], len(cold), len(incr), elapsed)
	b.e2e["peak_rss_mb"] = median(rss)
	b.logf("peak_rss_mb: median %.1f MB over cold layouttool processes of their peak RSS", median(rss))

	if b.tr == nil {
		return nil
	}
	b.count("memo.hits", float64(hits))
	b.count("memo.misses", float64(misses))
	b.check("gofront layer probe", probeGolint(b, tree.dir))
	return nil
}

// golintOracle runs the exact classifier over the tree in a child process
// and checks its findings against the known answer.
func golintOracle(dir string) ([]byte, error) {
	out, err := runChild(dir, "golint-oracle")
	if err != nil {
		return nil, err
	}
	var fs []staticshare.Finding
	if err := json.Unmarshal(out, &fs); err != nil {
		return nil, fmt.Errorf("oracle output: %w", err)
	}
	flagged := make(map[string]bool)
	for _, f := range fs {
		pkg, _, _ := strings.Cut(f.Message, ": ")
		flagged[pkg] = true
	}
	for pkg := range flagged {
		if golintClean[pkg] {
			return nil, fmt.Errorf("oracle flags %s, whose known answer is clean", pkg)
		}
	}
	if len(flagged) != golintFlagged {
		return nil, fmt.Errorf("oracle flags %d packages %v, want the %d the known answer flags", len(flagged), flagged, golintFlagged)
	}
	var compact bytes.Buffer
	if err := json.Compact(&compact, out); err != nil {
		return nil, err
	}
	return compact.Bytes(), nil
}

// runChild runs this benchmark binary as a child probe in dir and returns
// its standard output.
func runChild(dir, probe string) ([]byte, error) {
	self, err := os.Executable()
	if err != nil {
		return nil, err
	}
	cmd := osexec.Command(self, "-probe", probe)
	cmd.Dir = dir
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("probe %s: %v: %s", probe, err, stderr.String())
	}
	return out, nil
}

// probeResult is what the golint-layers child reports.
type probeResult struct {
	Packages int    `json:"packages"`
	Findings int    `json:"findings"`
	Spans    []span `json:"spans"`
}

// probeGolint runs the gofront layer probe in fresh child processes, so
// the typechecker's importer state matches the CLI's, and folds the
// children's spans into this run's trace.
func probeGolint(b *bench, dir string) error {
	var res probeResult
	for i := 0; i < golintProbes; i++ {
		parent := b.tr.begin("golint.probe", 0)
		out, err := runChild(dir, "golint-layers")
		b.tr.end(parent)
		if err != nil {
			return err
		}
		if err := json.Unmarshal(out, &res); err != nil {
			return fmt.Errorf("golint-layers output: %w", err)
		}
		b.tr.adopt(res.Spans, parent)
	}
	b.layerPerRep(golintProbes, "gofront.load", "gofront.extract", "staticshare.lint", "gofront.suggest")
	b.count("gofront.packages", float64(res.Packages))
	b.count("staticshare.findings", float64(res.Findings))
	return nil
}

// runProbe runs a child-process probe over golintPatterns in the current
// directory and writes its result as JSON.
func runProbe(name string, w io.Writer) error {
	switch name {
	case "golint-oracle":
		reports, err := gofront.Run(golintPatterns, gofront.Options{ExactClassify: true})
		if err != nil {
			return err
		}
		raw, err := staticshare.MarshalFindings(gofront.AllFindings(reports))
		if err != nil {
			return err
		}
		_, err = w.Write(raw)
		return err
	case "golint-layers":
		r, err := probeLayers()
		if err != nil {
			return err
		}
		return json.NewEncoder(w).Encode(r)
	default:
		return fmt.Errorf("unknown probe %q", name)
	}
}

// probeLayers times the calls gofront.LintPackage makes, layer by layer,
// after loading every package the way the CLI does.
func probeLayers() (*probeResult, error) {
	tr := newTracer()
	opts := gofront.Options{}
	var pkgs []*gofront.Package
	err := tr.do("gofront.load", 0, func() error {
		var loadErrs []error
		var err error
		pkgs, loadErrs, err = gofront.Load(golintPatterns, opts)
		if err == nil && len(loadErrs) > 0 {
			err = fmt.Errorf("load: %v", loadErrs)
		}
		return err
	})
	if err != nil {
		return nil, err
	}
	res := &probeResult{Packages: len(pkgs)}
	for _, pkg := range pkgs {
		var model *gofront.Model
		err := tr.do("gofront.extract", 0, func() (err error) {
			model, err = gofront.Extract(pkg, opts)
			return err
		})
		if err != nil {
			return nil, fmt.Errorf("%s: %w", pkg.Dir, err)
		}
		var findings []staticshare.Finding
		var sres *staticshare.Result
		err = tr.do("staticshare.lint", 0, func() (err error) {
			findings, sres, err = staticshare.LintFile(model.File, 128)
			return err
		})
		if err != nil {
			return nil, fmt.Errorf("%s: %w", pkg.Dir, err)
		}
		res.Findings += len(findings)
		id := tr.begin("gofront.suggest", 0)
		gofront.Suggest(model, sres, 128)
		tr.end(id)
	}
	res.Spans = tr.spans
	return res, nil
}
