package staticshare

import (
	"strings"
	"testing"

	"structlayout/internal/affinity"
	"structlayout/internal/concurrency"
	"structlayout/internal/flg"
	"structlayout/internal/ir"
	"structlayout/internal/irtext"
)

// analyzeSrc parses and analyzes a DSL source under its declared
// configuration, optionally through the exact oracle.
func analyzeSrc(t *testing.T, src string, exact bool) *Result {
	t.Helper()
	f, err := irtext.Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	cfg := FileConfig(f)
	cfg.ExactClassify = exact
	res, err := Analyze(f.Prog, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

const hbForkJoinSrc = `program forkjoin

struct S {
    a i64
    b i64
}

proc parent {
    write S.a shared 0
    spawn h 1 child
    join h
    write S.a shared 0
}

proc child {
    write S.b shared 0
}

arena S 1
thread 0 parent iters 1
`

// TestForkJoinOrdersOutConflict pins the tentpole refinement: the
// parent writes S.a strictly before the spawn and after the join, the
// child writes S.b in between — every segment combination is ordered,
// so the flat verdict (write-shared, both tasks touch shared instance
// 0) refines to never-shared.
func TestForkJoinOrdersOutConflict(t *testing.T) {
	res := analyzeSrc(t, hbForkJoinSrc, false)
	if len(res.Threads) != 2 {
		t.Fatalf("task discovery: got %d threads, want 2 (root + spawned)", len(res.Threads))
	}
	if res.Threads[1].Proc != "child" || res.Threads[1].CPU != 1 {
		t.Errorf("spawned task = %+v, want proc child on CPU 1", res.Threads[1])
	}
	if info := res.Pair("S", 0, 1); info.Class != NeverShared {
		t.Errorf("fork/join program: Pair(S,a,b) = %v, want never-shared", info.Class)
	}
	if !res.HBAcyclic() {
		t.Error("HB graph has a cycle")
	}
	if res.HBDegraded() {
		t.Error("HB degraded on a fully joined program")
	}
}

// TestUnjoinedSpawnStaysShared: without the join edge the child's write
// overlaps the parent's tail write, so the conflict must survive.
func TestUnjoinedSpawnStaysShared(t *testing.T) {
	src := strings.Replace(hbForkJoinSrc, "    join h\n", "", 1)
	res := analyzeSrc(t, src, false)
	if info := res.Pair("S", 0, 1); info.Class != WriteShared || !info.Certain {
		t.Errorf("unjoined spawn: Pair(S,a,b) = %v (certain %v), want certain write-shared",
			info.Class, info.Certain)
	}
}

// TestSpawnOnlyPrefixOrdered: with no join, the parent's writes BEFORE
// the spawn are still ordered before the child — a program whose only
// parent write precedes the spawn stays clean.
func TestSpawnOnlyPrefixOrdered(t *testing.T) {
	src := strings.Replace(hbForkJoinSrc, "    join h\n    write S.a shared 0\n", "", 1)
	res := analyzeSrc(t, src, false)
	if info := res.Pair("S", 0, 1); info.Class != NeverShared {
		t.Errorf("prefix-only parent write: Pair(S,a,b) = %v, want never-shared", info.Class)
	}
}

const hbPipelineSrc = `program pipeline

struct S {
    a i64
    b i64
}

proc stage1 {
    write S.a shared 0
    send c
}

proc stage2 {
    recv c
    write S.b shared 0
}

arena S 1
thread 0 stage1 iters 1
thread 1 stage2 iters 1
`

// TestChannelHandoffOrdersStages: the rendezvous orders stage1's write
// before stage2's, refining the flat write-shared verdict away.
func TestChannelHandoffOrdersStages(t *testing.T) {
	res := analyzeSrc(t, hbPipelineSrc, false)
	if info := res.Pair("S", 0, 1); info.Class != NeverShared {
		t.Errorf("pipeline: Pair(S,a,b) = %v, want never-shared", info.Class)
	}
	if !res.HBAcyclic() {
		t.Error("HB graph has a cycle")
	}
}

// TestChannelReverseStillShared: a write AFTER the send is unordered
// with the receiver's write, so swapping the sender's statement order
// must keep the conflict.
func TestChannelReverseStillShared(t *testing.T) {
	src := strings.Replace(hbPipelineSrc,
		"    write S.a shared 0\n    send c\n",
		"    send c\n    write S.a shared 0\n", 1)
	res := analyzeSrc(t, src, false)
	if info := res.Pair("S", 0, 1); info.Class != WriteShared {
		t.Errorf("post-send write: Pair(S,a,b) = %v, want write-shared", info.Class)
	}
}

// TestChannelCycleDropsEdges: a crossed rendezvous (each side receives
// before it sends) would put a cycle in the HB graph; the analysis must
// drop the channel edges and stay acyclic rather than claim orderings
// from a deadlock.
func TestChannelCycleDropsEdges(t *testing.T) {
	src := `program crossed

struct S {
    a i64
    b i64
}

proc p1 {
    write S.a shared 0
    recv x
    send y
}

proc p2 {
    write S.b shared 0
    recv y
    send x
}

arena S 1
thread 0 p1 iters 1
thread 1 p2 iters 1
`
	res := analyzeSrc(t, src, false)
	if !res.HBAcyclic() {
		t.Fatal("crossed channels left a cycle in the HB graph")
	}
	if info := res.Pair("S", 0, 1); info.Class != WriteShared {
		t.Errorf("crossed channels: Pair(S,a,b) = %v, want write-shared (edges dropped)", info.Class)
	}
}

// TestIteratedParentDegrades: an unjoined spawn under an iterated
// parent has overlapping child instances the one-task model cannot
// represent; every ordering fact must be dropped (degraded), with the
// spawned task still discovered for reachability.
func TestIteratedParentDegrades(t *testing.T) {
	src := strings.Replace(hbForkJoinSrc, "    join h\n", "", 1)
	src = strings.Replace(src, "thread 0 parent iters 1", "thread 0 parent iters 3", 1)
	res := analyzeSrc(t, src, false)
	if !res.HBDegraded() {
		t.Fatal("iterated parent with unjoined spawn did not degrade")
	}
	if len(res.Threads) != 2 {
		t.Fatalf("degraded analysis lost the spawned task: %d threads", len(res.Threads))
	}
	if info := res.Pair("S", 0, 1); info.Class != WriteShared {
		t.Errorf("degraded: Pair(S,a,b) = %v, want write-shared", info.Class)
	}
}

// TestIteratedParentJoinedStaysRefined: joined spawns serialize the
// child instances across parent iterations, so iteration alone must not
// cost the refinement.
func TestIteratedParentJoinedStaysRefined(t *testing.T) {
	src := strings.Replace(hbForkJoinSrc, "thread 0 parent iters 1", "thread 0 parent iters 3", 1)
	res := analyzeSrc(t, src, false)
	if res.HBDegraded() {
		t.Fatal("joined spawn under iteration degraded")
	}
	if info := res.Pair("S", 0, 1); info.Class != NeverShared {
		t.Errorf("iterated joined: Pair(S,a,b) = %v, want never-shared", info.Class)
	}
}

// TestCalleeInheritsSegments: accesses in a procedure *called* from a
// segment inherit the call site's segment, so moving the parent's
// post-join write into a helper keeps the refinement.
func TestCalleeInheritsSegments(t *testing.T) {
	src := `program calleeseg

struct S {
    a i64
    b i64
}

proc parent {
    spawn h 1 child
    join h
    call tail
}

proc tail {
    write S.a shared 0
}

proc child {
    write S.b shared 0
}

arena S 1
thread 0 parent iters 1
`
	res := analyzeSrc(t, src, false)
	if info := res.Pair("S", 0, 1); info.Class != NeverShared {
		t.Errorf("callee after join: Pair(S,a,b) = %v, want never-shared", info.Class)
	}
}

// TestCalleeSpanningSegmentsStaysShared: the same helper called both
// before the spawn and after it (while the child runs) must keep the
// conflict — its segment set spans the boundary.
func TestCalleeSpanningSegmentsStaysShared(t *testing.T) {
	src := `program calleespan

struct S {
    a i64
    b i64
}

proc parent {
    call tail
    spawn h 1 child
    call tail
    join h
}

proc tail {
    write S.a shared 0
}

proc child {
    write S.b shared 0
}

arena S 1
thread 0 parent iters 1
`
	res := analyzeSrc(t, src, false)
	if info := res.Pair("S", 0, 1); info.Class != WriteShared {
		t.Errorf("callee spanning spawn: Pair(S,a,b) = %v, want write-shared", info.Class)
	}
}

// TestSiblingsJoinBetweenOrdered: spawn h1 / join h1 / spawn h2 means
// the two children are serialized through the parent; spawning both
// before either join leaves them concurrent.
func TestSiblingsJoinBetweenOrdered(t *testing.T) {
	serial := `program serialsibs

struct S {
    a i64
    b i64
}

proc parent {
    spawn h1 1 w1
    join h1
    spawn h2 2 w2
    join h2
}

proc w1 {
    write S.a shared 0
}

proc w2 {
    write S.b shared 0
}

arena S 1
thread 0 parent iters 1
`
	res := analyzeSrc(t, serial, false)
	if info := res.Pair("S", 0, 1); info.Class != NeverShared {
		t.Errorf("serialized siblings: Pair(S,a,b) = %v, want never-shared", info.Class)
	}

	parallelSibs := strings.Replace(serial,
		"    spawn h1 1 w1\n    join h1\n    spawn h2 2 w2\n    join h2\n",
		"    spawn h1 1 w1\n    spawn h2 2 w2\n    join h1\n    join h2\n", 1)
	res = analyzeSrc(t, parallelSibs, false)
	if info := res.Pair("S", 0, 1); info.Class != WriteShared {
		t.Errorf("concurrent siblings: Pair(S,a,b) = %v, want write-shared", info.Class)
	}
}

// TestHBExclusiveFeedsMHP: the static-mhp cross-check must consume the
// refined relation — blocks of the parent's pre-spawn segment and the
// child are Exclusive even with no locks anywhere.
func TestHBExclusiveFeedsMHP(t *testing.T) {
	res := analyzeSrc(t, hbForkJoinSrc, false)
	// Find a parent-proc access block and the child's write block.
	var parentBlocks, childBlocks []int
	for i, a := range res.Accesses {
		pr := res.Prog.Block(a.Block).Proc.Name
		switch pr {
		case "parent":
			parentBlocks = append(parentBlocks, i)
		case "child":
			childBlocks = append(childBlocks, i)
		}
	}
	if len(parentBlocks) != 2 || len(childBlocks) != 1 {
		t.Fatalf("unexpected access layout: %d parent, %d child", len(parentBlocks), len(childBlocks))
	}
	for _, pi := range parentBlocks {
		pb := res.Accesses[pi].Block
		cb := res.Accesses[childBlocks[0]].Block
		if !res.Exclusive(pb, cb) {
			t.Errorf("Exclusive(%v, %v) = false, want true (fork/join ordering)", pb, cb)
		}
		if res.MayHappenInParallel(pb, cb) {
			t.Errorf("MayHappenInParallel(%v, %v) = true, want false", pb, cb)
		}
	}
}

// TestSummaryEqualsExactOnHBPrograms extends the differential gate to
// join-aware classification: on every HB-bearing source in this file
// the summary path must be bit-identical to the exact oracle.
func TestSummaryEqualsExactOnHBPrograms(t *testing.T) {
	srcs := map[string]string{
		"forkjoin": hbForkJoinSrc,
		"pipeline": hbPipelineSrc,
		"unjoined": strings.Replace(hbForkJoinSrc, "    join h\n", "", 1),
		"iterated": strings.Replace(hbForkJoinSrc, "thread 0 parent iters 1", "thread 0 parent iters 3", 1),
		"postsend": strings.Replace(hbPipelineSrc, "    write S.a shared 0\n    send c\n", "    send c\n    write S.a shared 0\n", 1),
	}
	for name, src := range srcs {
		sum := analyzeSrc(t, src, false)
		exact := analyzeSrc(t, src, true)
		assertPairsEqual(t, name, sum, exact)
	}
}

// assertPairsEqual compares classifications field by field.
func assertPairsEqual(t *testing.T, name string, sum, exact *Result) {
	t.Helper()
	if len(sum.Pairs) != len(exact.Pairs) {
		t.Errorf("%s: summary has %d structs, exact %d", name, len(sum.Pairs), len(exact.Pairs))
		return
	}
	for st, ep := range exact.Pairs {
		sp := sum.Pairs[st]
		if len(sp) != len(ep) {
			t.Errorf("%s/%s: summary has %d pairs, exact %d", name, st, len(sp), len(ep))
			continue
		}
		for k, ev := range ep {
			if sv, ok := sp[k]; !ok || sv != ev {
				t.Errorf("%s/%s %v: summary %+v, exact %+v", name, st, k, sp[k], ev)
			}
		}
	}
}

// hbPairBlocks returns one parent access block and the child's access
// block of the fork/join exemplar.
func hbPairBlocks(t *testing.T, res *Result) (parent, child ir.BlockID) {
	t.Helper()
	found := false
	for _, a := range res.Accesses {
		switch res.Prog.Block(a.Block).Proc.Name {
		case "parent":
			parent = a.Block
			found = true
		case "child":
			child = a.Block
		}
	}
	if !found {
		t.Fatal("no parent access found")
	}
	return parent, child
}

// TestHBSharpensPrior pins that the zero-profile CycleLoss prior
// consumes the happens-before refinement: the joined fork/join program
// floors nothing (the pair is never-shared), while the unjoined variant
// still drives the certain write-shared pair's loss above its gain.
func TestHBSharpensPrior(t *testing.T) {
	mkGraph := func(res *Result) *flg.Graph {
		st := res.Prog.Struct("S")
		return &flg.Graph{
			Struct:  st,
			Gain:    map[[2]int]float64{affinity.PairKey(0, 1): 100},
			Loss:    map[[2]int]float64{},
			Hotness: map[int]float64{},
		}
	}
	joined := analyzeSrc(t, hbForkJoinSrc, false)
	g := mkGraph(joined)
	if pr := joined.ApplyPrior(g, PriorOptions{}); pr.Certain != 0 || pr.Possible != 0 {
		t.Fatalf("joined fork/join floored %d certain / %d possible pairs, want none", pr.Certain, pr.Possible)
	}
	if g.Loss[affinity.PairKey(0, 1)] != 0 {
		t.Fatalf("joined fork/join moved the graph: loss %v", g.Loss[affinity.PairKey(0, 1)])
	}

	unjoined := analyzeSrc(t, strings.Replace(hbForkJoinSrc, "    join h\n", "", 1), false)
	g = mkGraph(unjoined)
	if pr := unjoined.ApplyPrior(g, PriorOptions{}); pr.Certain == 0 {
		t.Fatal("unjoined variant should floor the certain write-shared pair")
	}
	if g.Loss[affinity.PairKey(0, 1)] <= g.Gain[affinity.PairKey(0, 1)] {
		t.Fatalf("unjoined pair: loss %v must exceed gain %v",
			g.Loss[affinity.PairKey(0, 1)], g.Gain[affinity.PairKey(0, 1)])
	}
}

// TestHBSharpensCCCheck pins that the static-mhp cross-check consumes
// the refinement: sampled concurrency mass on a pair the join proves
// exclusive is a contradiction, while the unjoined variant accepts the
// same mass.
func TestHBSharpensCCCheck(t *testing.T) {
	joined := analyzeSrc(t, hbForkJoinSrc, false)
	pb, cb := hbPairBlocks(t, joined)
	cm := &concurrency.Map{CC: map[concurrency.Pair]float64{concurrency.MakePair(pb, cb): 5}}
	chk := joined.CheckCC(cm)
	if chk.ContradictedPairs != 1 || chk.Agreement >= 1 {
		t.Fatalf("joined fork/join: mass on an ordered pair must contradict, got %+v", chk)
	}

	unjoined := analyzeSrc(t, strings.Replace(hbForkJoinSrc, "    join h\n", "", 1), false)
	pb, cb = hbPairBlocks(t, unjoined)
	cm = &concurrency.Map{CC: map[concurrency.Pair]float64{concurrency.MakePair(pb, cb): 5}}
	if chk := unjoined.CheckCC(cm); chk.Agreement != 1 {
		t.Fatalf("unjoined variant: same mass must agree, got %+v", chk)
	}
}
