package faultmodel

import (
	"sync"
	"testing"
	"testing/quick"

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
// still hold and hot keys must be retrievable.
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
}
