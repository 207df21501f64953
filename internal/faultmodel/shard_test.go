package faultmodel

import (
	"sync"
	"testing"
	"testing/quick"

	"rowhammer/internal/dram"
	"rowhammer/internal/rng"
)

// mkCells builds a candidate set of the given length (contents are
// irrelevant to the cache; only the byte cost matters).
func mkCells(n int) candSet {
	return candSet{cells: make([]candidate, n)}
}

// TestPropertyShardedEvictionRespectsBudget drives random put/get
// sequences through the sharded LRU and checks the byte-budget
// invariant after every operation: each shard stays within its budget
// unless it holds exactly one (oversized) entry — the documented
// newest-entry-survives rule — so entries no larger than a shard
// budget can never push the cache past the global budget.
func TestPropertyShardedEvictionRespectsBudget(t *testing.T) {
	const budget = 64 * candidateBytes * candShardCount
	if err := quick.Check(func(seed uint64, ops uint8) bool {
		l := newCandLRU(budget)
		n := int(ops)%200 + 50
		for i := 0; i < n; i++ {
			h := rng.Hash64x2(seed, uint64(i))
			key := h % 97
			if h&1 == 0 {
				l.get(key, 0)
				continue
			}
			// Sizes up to the full shard budget (64 candidates).
			l.put(key, mkCells(int(h>>8)%64+1), buildWork{})
			for si := range l.shards {
				s := &l.shards[si]
				if s.bytes > s.budgetBytes && len(s.entries) != 1 {
					return false
				}
			}
			if l.totalBytes() > budget {
				return false
			}
		}
		return true
	}, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

// TestShardedLRUConcurrentGetPut hammers the cache from 16 goroutines
// with overlapping key ranges — the access pattern of parallel
// measurement cores sharing one kernel cache — and is run under the
// race detector by `make race`. Afterwards the budget invariant must
// still hold and hot keys must be retrievable. A second phase runs 16
// forks of one model over a few shared rows, interleaving full walks
// (Disturb) with existence walks (DisturbAny), which build and extend
// the same rows' sets from both sides; every answer must match a
// reference model's.
func TestShardedLRUConcurrentGetPut(t *testing.T) {
	const (
		workers = 16
		keys    = 64
		rounds  = 2000
	)
	budget := keys / 2 * 32 * candidateBytes
	l := newCandLRU(budget)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < rounds; i++ {
				h := rng.Hash64x2(uint64(w), uint64(i))
				key := h % keys
				if set, ok := l.get(key, 0); ok {
					_ = len(set.cells)
					continue
				}
				l.put(key, mkCells(int(h>>8)%32+1), buildWork{})
			}
		}(w)
	}
	wg.Wait()
	for si := range l.shards {
		s := &l.shards[si]
		if s.bytes > s.budgetBytes && len(s.entries) != 1 {
			t.Fatalf("shard %d over budget with %d entries (%d > %d bytes)",
				si, len(s.entries), s.bytes, s.budgetBytes)
		}
	}
	if got := l.lenEntries(); got == 0 {
		t.Fatal("cache empty after concurrent workload")
	}
	concurrentAnyAndDisturb(t, workers)
}

// concurrentAnyAndDisturb runs workers forks of one model on
// goroutines over 4 shared rows, 6 hammer counts and salts 0 and 1,
// alternating Disturb and DisturbAny, and checks every answer against
// flip counts a separate model computed up front.
func concurrentAnyAndDisturb(t *testing.T, workers int) {
	const rounds = 60
	p := MfrD()
	parent := newTinyModel(t, p, 59)
	ref := newTinyModel(t, p, 59)
	geo := parent.geo
	victim := make([]uint64, geo.RowWords())
	agg := make([]uint64, geo.RowWords())
	fillPattern(victim, "random", 7)
	fillPattern(agg, "random", 8)
	type probe struct {
		row  int
		h    int64
		salt uint64
	}
	var probes []probe
	want := map[probe]int{}
	for _, row := range []int{30, 31, 32, 33} {
		for _, f := range []float64{0.5, 0.8, 1, 1.2, 1.6, 3} {
			for _, salt := range []uint64{0, 1} {
				pr := probe{row, int64(f * ref.RowBaseHC(0, row)), salt}
				ref.SetSalt(salt)
				want[pr], _ = ref.Disturb(dram.DisturbContext{
					Bank: 0, Row: row, Ledger: mkLedger(pr.h, 34.5, 16.5, 50), Data: victim, Geometry: geo, Up: agg, Down: agg,
				})
				probes = append(probes, pr)
			}
		}
	}
	var wg sync.WaitGroup
	errs := make(chan string, workers)
	for w := 0; w < workers; w++ {
		m := parent.Fork()
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < rounds; i++ {
				pr := probes[rng.Hash64x2(uint64(w), uint64(i))%uint64(len(probes))]
				m.SetSalt(pr.salt)
				ctx := dram.DisturbContext{
					Bank: 0, Row: pr.row, Ledger: mkLedger(pr.h, 34.5, 16.5, 50), Data: victim, Geometry: geo, Up: agg, Down: agg,
				}
				if (w+i)%2 == 0 {
					if n, _ := m.Disturb(ctx); n != want[pr] {
						errs <- "fork Disturb disagrees with the reference"
						return
					}
				} else if m.DisturbAny(ctx) != (want[pr] > 0) {
					errs <- "fork DisturbAny disagrees with the reference"
					return
				}
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for e := range errs {
		t.Fatal(e)
	}
	flipped := 0
	for _, n := range want {
		if n > 0 {
			flipped++
		}
	}
	if flipped == 0 || flipped == len(want) {
		t.Fatalf("%d of %d reference probes flip; the phase must see both answers", flipped, len(want))
	}
}
