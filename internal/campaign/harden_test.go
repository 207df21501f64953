package campaign

import (
	"bytes"
	"context"
	"testing"
	"time"
)

func TestBackoffDelayDeterministicAndBounded(t *testing.T) {
	spec := Spec{Seed: 7, RetryBackoff: time.Millisecond}
	job := Job{Kind: KindHCFirst, Mfr: "A", Module: 3}
	for attempt := 1; attempt <= 10; attempt++ {
		d := backoffDelay(spec, job, attempt)
		if d != backoffDelay(spec, job, attempt) {
			t.Fatalf("attempt %d: backoff not deterministic", attempt)
		}
		shift := attempt - 1
		if shift > 5 {
			shift = 5 // exponential growth caps at 32×
		}
		lo := spec.RetryBackoff << shift
		hi := lo + spec.RetryBackoff
		if d < lo || d >= hi {
			t.Fatalf("attempt %d: delay %v outside [%v, %v)", attempt, d, lo, hi)
		}
	}
	// Jitter decorrelates jobs: two jobs should not share a delay.
	other := Job{Kind: KindHCFirst, Mfr: "B", Module: 3}
	if backoffDelay(spec, job, 1) == backoffDelay(spec, other, 1) {
		t.Fatal("distinct jobs drew identical jitter")
	}
	if backoffDelay(Spec{Seed: 7}, job, 1) != 0 {
		t.Fatal("zero base must mean zero delay")
	}
}

func TestAttemptDefaultsToOne(t *testing.T) {
	if got := Attempt(context.Background()); got != 1 {
		t.Fatalf("Attempt on a bare context = %d, want 1", got)
	}
	if got := Attempt(withAttempt(context.Background(), 4)); got != 4 {
		t.Fatalf("Attempt = %d, want 4", got)
	}
}

// syncCounter is an io.Writer with a Sync method, standing in for *os.File.
type syncCounter struct {
	bytes.Buffer
	syncs int
}

func (s *syncCounter) Sync() error { s.syncs++; return nil }

func TestWriteRecordSyncsDurableWriters(t *testing.T) {
	w := &syncCounter{}
	spec := v2Spec()
	cw := NewCheckpointWriter(w, spec)
	recs := []Record{
		{Key: "hcfirst/A/0", Seed: 1},
		{Key: "hcfirst/A/1", Seed: 2},
	}
	for i, rec := range recs {
		if err := cw.WriteRecord(rec); err != nil {
			t.Fatal(err)
		}
		// One sync for the header plus one per record, each before
		// WriteRecord returns.
		if want := 1 + i + 1; w.syncs != want {
			t.Fatalf("after record %d: syncs = %d, want %d", i, w.syncs, want)
		}
	}
	// The stream itself stays a valid v2 checkpoint.
	if got := checkpointRecords(t, w.Bytes(), spec); len(got) != len(recs) {
		t.Fatalf("read back %d records, want %d", len(got), len(recs))
	}
}

func TestBreakerOpensAtThresholdAndResets(t *testing.T) {
	br := newBreaker(3)
	if br.tripped("A/0") {
		t.Fatal("fresh breaker should be closed")
	}
	br.observe("A/0", true)
	br.observe("A/0", true)
	if br.observe("A/0", true) != true {
		t.Fatal("third consecutive failure should open the breaker")
	}
	if !br.tripped("A/0") {
		t.Fatal("breaker should stay open")
	}
	if br.tripped("A/1") {
		t.Fatal("breakers are per-module")
	}
	// A success in between resets the consecutive count.
	br.observe("B/0", true)
	br.observe("B/0", false)
	br.observe("B/0", true)
	br.observe("B/0", true)
	if br.tripped("B/0") {
		t.Fatal("non-consecutive failures must not trip the breaker")
	}
	// Threshold 0 disables the breaker entirely.
	off := newBreaker(0)
	for i := 0; i < 10; i++ {
		off.observe("C/0", true)
	}
	if off.tripped("C/0") {
		t.Fatal("disabled breaker must never trip")
	}
}
