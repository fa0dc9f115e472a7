package main

import (
	"math/rand"
)

// reqKind is one class of layoutd-mix traffic.
type reqKind int

const (
	kindFresh     reqKind = iota // analyze on a key never sent before: the full rung
	kindReplay                   // analyze on a key this client completed: the replay rung
	kindMeasure                  // fresh-key analyze with measure_runs=2: driver.EvaluateCtx
	kindFaulted                  // fresh-key analyze with a measurement-fault spec
	kindLint                     // /v1/lint
	kindMalformed                // a body that must get a 400
)

var kindNames = [...]string{"fresh", "replay", "measure", "faulted", "lint", "malformed"}

func (k reqKind) String() string { return kindNames[k] }

// mixPercent is the share of each kind in the stream, in kind order. The
// stream deals kinds from a shuffled deck of 100 holding exactly these
// counts, so every run's mix is the same up to a partial deck. A replay
// dealt before the client has sent any key is sent fresh.
//
// Malformed and faulted shares follow loadgen's defaults: 10 malformed
// (-bad-pct 0.1), and 14 of the 35 unmeasured fresh-key analyze requests
// faulted (-fault-pct 0.4). The others are choices, as no traffic record
// exists: as many replay-rung as full-rung requests (39 each), so both
// memo paths are sampled alike; measured requests, which cost about three
// full ones, at a tenth of the full rung; lint at 12.
var mixPercent = [...]int{21, 39, 4, 14, 12, 10}

// mixMachines are the collection machines analyze requests name.
var mixMachines = []string{"bus4", "way16"}

// mixInject is the fault spec of faulted requests, as loadgen sends it.
const mixInject = "loss=0.3,dup=0.05"

// analysisKey is what the memo keys a collection by: the same key always
// yields the same layouts, whichever rung serves it.
type analysisKey struct {
	Prog    int
	Machine string
	Seed    int64
	Inject  string
}

// mixRequest is one request of the stream.
type mixRequest struct {
	Kind reqKind
	Key  analysisKey // analyze kinds
	Prog int         // lint: the program linted
	// Truncate selects the malformed shape: a truncated analyze body when
	// true, else a well-formed body whose program does not parse.
	Truncate bool
}

// stream is one client's request sequence: a pure function of the seed,
// the client index and the program count. Clients draw fresh-key seeds
// from disjoint residues, so no two clients ever send the same key, and a
// client replays only keys it issued earlier — which, in a closed loop,
// have completed. Kinds, fresh keys' program × machine pairs, and linted
// programs are each dealt from shuffled decks, so their proportions do
// not drift with the seed.
type stream struct {
	rng     *rand.Rand
	client  int
	clients int
	progs   int
	base    int64
	fresh   int64
	keys    []analysisKey
	kinds   deck
	targets deck // fresh keys' program × machine, as prog*len(mixMachines)+machine
	linted  deck
}

func newStream(seed int64, client, clients, progs int) *stream {
	s := &stream{
		rng:     rand.New(rand.NewSource(seed*1_000_003 + int64(client))),
		client:  client,
		clients: clients,
		progs:   progs,
		// Seeds of different benchmark seeds fall in different ranges, so
		// another seed sends other keys.
		base: int64(uint64(seed)%(1<<30)) << 24,
	}
	for k, n := range mixPercent {
		for i := 0; i < n; i++ {
			s.kinds.cards = append(s.kinds.cards, k)
		}
	}
	for i := 0; i < progs*len(mixMachines); i++ {
		s.targets.cards = append(s.targets.cards, i)
	}
	for i := 0; i < progs; i++ {
		s.linted.cards = append(s.linted.cards, i)
	}
	return s
}

// deck deals its cards in an order reshuffled at every pass.
type deck struct {
	cards []int
	next  int
}

func (d *deck) deal(rng *rand.Rand) int {
	if d.next == 0 {
		rng.Shuffle(len(d.cards), func(i, j int) { d.cards[i], d.cards[j] = d.cards[j], d.cards[i] })
	}
	c := d.cards[d.next]
	d.next = (d.next + 1) % len(d.cards)
	return c
}

func (s *stream) next() mixRequest {
	kind := reqKind(s.kinds.deal(s.rng))
	switch kind {
	case kindReplay:
		if len(s.keys) == 0 {
			return mixRequest{Kind: kindFresh, Key: s.freshKey("")}
		}
		return mixRequest{Kind: kindReplay, Key: s.keys[s.rng.Intn(len(s.keys))]}
	case kindFaulted:
		return mixRequest{Kind: kind, Key: s.freshKey(mixInject)}
	case kindLint:
		return mixRequest{Kind: kind, Prog: s.linted.deal(s.rng)}
	case kindMalformed:
		return mixRequest{Kind: kind, Prog: s.linted.deal(s.rng), Truncate: s.rng.Intn(2) == 0}
	default:
		return mixRequest{Kind: kind, Key: s.freshKey("")}
	}
}

// freshKey issues a key no client has sent: its seed is this client's
// next residue modulo the client count.
func (s *stream) freshKey(inject string) analysisKey {
	t := s.targets.deal(s.rng)
	k := analysisKey{
		Prog:    t / len(mixMachines),
		Machine: mixMachines[t%len(mixMachines)],
		Seed:    s.base + s.fresh*int64(s.clients) + int64(s.client) + 1,
		Inject:  inject,
	}
	s.fresh++
	s.keys = append(s.keys, k)
	return k
}
