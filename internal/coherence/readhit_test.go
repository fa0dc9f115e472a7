package coherence

import (
	"math/rand"
	"reflect"
	"testing"

	"structlayout/internal/machine"
)

// cacheSnapshot is every CPU's per-set tags and states, in LRU order.
type cacheSnapshot [][][]lineState

type lineState struct {
	line  int64
	state State
}

func snapshotCaches(s *System) cacheSnapshot {
	out := make(cacheSnapshot, len(s.caches))
	for cpu := range s.caches {
		c := &s.caches[cpu]
		out[cpu] = make([][]lineState, s.cfg.Sets)
		if c.n == nil {
			continue
		}
		for set := range c.n {
			base := set * s.cfg.Ways
			for i := base; i < base+int(c.n[set]); i++ {
				out[cpu][set] = append(out[cpu][set], lineState{c.lines[i], c.state[i]})
			}
		}
	}
	return out
}

func allCPUStats(s *System) []Stats {
	return append([]Stats(nil), s.perCPU...)
}

// TestReadHitMatchesAccess drives two identical systems with the same
// random access sequence. Before each one-line read, system a tries
// ReadHit and falls back to AccessInto on a miss; system b always uses
// AccessInto. A successful ReadHit must leave a exactly where AccessInto
// leaves b — same result, per-CPU counters, tags and states in LRU order —
// and a failed one must change nothing at all.
func TestReadHitMatchesAccess(t *testing.T) {
	topo := machine.Bus4()
	// Four ways over few sets: lines keep moving between LRU positions and
	// get evicted, so hits land on every slot, not just the MRU one.
	cfg := Config{LineSize: 128, Sets: 4, Ways: 4}
	a, b := mustSystem(t, topo, cfg), mustSystem(t, topo, cfg)

	rng := rand.New(rand.NewSource(41))
	hits, misses := 0, 0
	for i := 0; i < 20000; i++ {
		cpu := rng.Intn(topo.NumCPUs())
		line := int64(rng.Intn(40))
		write := rng.Intn(4) == 0
		size := 1 << rng.Intn(4)
		addr := line*cfg.LineSize + int64(rng.Intn(int(cfg.LineSize)-size+1))

		var want AccessResult
		b.AccessInto(cpu, addr, size, write, &want)

		var got AccessResult
		if !write {
			beforeCaches, beforeStats := snapshotCaches(a), allCPUStats(a)
			sentinel := AccessResult{Latency: -7, Supplier: 99}
			got = sentinel
			if a.ReadHit(cpu, addr, &got) {
				hits++
				if want.Miss != MissNone {
					t.Fatalf("step %d: ReadHit hit where Access classified %v", i, want.Miss)
				}
				checkSame(t, i, a, b, got, want)
				continue
			}
			misses++
			if got != sentinel {
				t.Fatalf("step %d: failed ReadHit wrote its result: %+v", i, got)
			}
			if !reflect.DeepEqual(snapshotCaches(a), beforeCaches) || !reflect.DeepEqual(allCPUStats(a), beforeStats) {
				t.Fatalf("step %d: failed ReadHit changed the system", i)
			}
			if want.Miss == MissNone {
				t.Fatalf("step %d: ReadHit missed a read Access hit", i)
			}
		}
		a.AccessInto(cpu, addr, size, write, &got)
		checkSame(t, i, a, b, got, want)
	}
	if hits < 1000 || misses < 1000 {
		t.Fatalf("sequence exercised %d hits and %d misses; want both paths", hits, misses)
	}
}

func checkSame(t *testing.T, step int, a, b *System, got, want AccessResult) {
	t.Helper()
	if got != want {
		t.Fatalf("step %d: result %+v, want %+v", step, got, want)
	}
	if !reflect.DeepEqual(allCPUStats(a), allCPUStats(b)) {
		t.Fatalf("step %d: per-CPU counters diverge:\n%+v\n%+v", step, allCPUStats(a), allCPUStats(b))
	}
	if !reflect.DeepEqual(snapshotCaches(a), snapshotCaches(b)) {
		t.Fatalf("step %d: cache tags or states diverge", step)
	}
	if err := a.CheckInvariants(); err != nil {
		t.Fatalf("step %d: %v", step, err)
	}
}
