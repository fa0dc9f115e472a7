package main

import (
	"reflect"
	"testing"
)

func take(s *stream, n int) []mixRequest {
	out := make([]mixRequest, n)
	for i := range out {
		out[i] = s.next()
	}
	return out
}

func TestStreamIsPureFunctionOfSeed(t *testing.T) {
	for _, seed := range []int64{0, 1, 7, -3} {
		for client := 0; client < mixClients; client++ {
			a := take(newStream(seed, client, mixClients, 8), 2000)
			b := take(newStream(seed, client, mixClients, 8), 2000)
			if !reflect.DeepEqual(a, b) {
				t.Fatalf("seed %d client %d: two streams differ", seed, client)
			}
		}
	}
	if reflect.DeepEqual(take(newStream(1, 0, mixClients, 8), 200), take(newStream(2, 0, mixClients, 8), 200)) {
		t.Fatal("seeds 1 and 2 give the same stream")
	}
}

func TestClientKeysAreDisjoint(t *testing.T) {
	for _, seed := range []int64{0, 1, 99} {
		owner := make(map[analysisKey]int)
		for client := 0; client < mixClients; client++ {
			for _, r := range take(newStream(seed, client, mixClients, 8), 5000) {
				if r.Kind == kindLint || r.Kind == kindMalformed {
					continue
				}
				if o, ok := owner[r.Key]; ok && o != client {
					t.Fatalf("seed %d: key %+v sent by clients %d and %d", seed, r.Key, o, client)
				}
				owner[r.Key] = client
			}
		}
	}
}

// TestReplaysFollowTheirKey checks that a client replays only keys it
// sent earlier, that every other analyze kind sends a new key, and that
// the mix holds every kind.
func TestReplaysFollowTheirKey(t *testing.T) {
	sent := make(map[analysisKey]bool)
	kinds := make(map[reqKind]int)
	for _, r := range take(newStream(3, 1, mixClients, 8), 5000) {
		kinds[r.Kind]++
		switch r.Kind {
		case kindReplay:
			if !sent[r.Key] {
				t.Fatalf("replay of %+v before it was sent", r.Key)
			}
		case kindFresh, kindMeasure, kindFaulted:
			if sent[r.Key] {
				t.Fatalf("%s request reuses key %+v", r.Kind, r.Key)
			}
			if (r.Kind == kindFaulted) != (r.Key.Inject != "") {
				t.Fatalf("%s request with inject %q", r.Kind, r.Key.Inject)
			}
			sent[r.Key] = true
		}
	}
	for k := range kindNames {
		if kinds[reqKind(k)] == 0 {
			t.Errorf("no %s requests in 5000", reqKind(k))
		}
	}
}
