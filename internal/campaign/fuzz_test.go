package campaign

import (
	"bytes"
	"testing"
)

// fuzzSeedStream builds a small valid v2 stream for the fuzz corpora.
func fuzzSeedStream() []byte {
	var buf bytes.Buffer
	cw := NewCheckpointWriter(&buf, testSpec([]string{"A"}, 2))
	cw.WriteRecord(Record{Key: "hcfirst/A/0", Kind: KindHCFirst, Mfr: "A", Metrics: map[string]float64{"x": 1}})
	cw.WriteRecord(Record{Key: "hcfirst/A/1", Kind: KindHCFirst, Mfr: "A", Module: 1, Err: "boom"})
	return buf.Bytes()
}

// FuzzReadCheckpoint feeds arbitrary bytes to both checkpoint readers.
// Invariants: no input panics; quarantine retention stays bounded; and
// when the strict reader accepts an input, the report reader agrees
// with it record-for-record (they share one parser and one precedence
// rule, and must never drift apart).
func FuzzReadCheckpoint(f *testing.F) {
	valid := fuzzSeedStream()
	f.Add(valid)
	f.Add(valid[:len(valid)-9])                                              // torn final record
	f.Add([]byte(`{"key":"hcfirst/A/0","kind":"hcfirst","mfr":"A"}` + "\n")) // v1
	f.Add([]byte("#rhckpt{\"v\":2,\"spec\":\"0123456789abcdef\"}\tdeadbeef\n"))
	f.Add([]byte("not json\tnothex99\n\n\tcafe1234\n"))
	f.Add([]byte{0x00, 0xff, '\t', '\n', '\t'})
	f.Fuzz(func(t *testing.T, data []byte) {
		opts := ResumeOptions{MaxQuarantinedLines: 8}
		rep, err := ReadCheckpointReport(bytes.NewReader(data), opts)
		if err == nil {
			if rep == nil {
				t.Fatal("nil report without error")
			}
			if len(rep.Corrupt) > opts.MaxQuarantinedLines {
				t.Fatalf("retained %d corrupt lines, cap is %d", len(rep.Corrupt), opts.MaxQuarantinedLines)
			}
		}
		recs, serr := ReadCheckpoint(bytes.NewReader(data))
		if serr == nil {
			if err != nil {
				t.Fatalf("strict reader accepted what the report reader rejected: %v", err)
			}
			if len(recs) != len(rep.Records) {
				t.Fatalf("strict adopted %d records, report %d", len(recs), len(rep.Records))
			}
			for k, r := range recs {
				if rr, ok := rep.Records[k]; !ok || rr.Err != r.Err || rr.Attempts != r.Attempts {
					t.Fatalf("readers disagree on record %q", k)
				}
			}
		}
	})
}

// FuzzRecordCRCTrailer round-trips arbitrary payloads through the
// CRC32C trailer codec and requires any single-bit corruption of the
// encoded line to be detected (CRC32 catches all 1-bit errors).
func FuzzRecordCRCTrailer(f *testing.F) {
	f.Add([]byte(`{"key":"hcfirst/A/0"}`))
	f.Add([]byte{})
	f.Add([]byte("payload with \t embedded tab and trailer-alike\tdeadbeef"))
	f.Fuzz(func(t *testing.T, payload []byte) {
		line := appendCRCLine(nil, payload)
		got, ok := splitCRCLine(bytes.TrimSuffix(line, []byte{'\n'}))
		if !ok {
			t.Fatalf("round-trip failed for %q", payload)
		}
		if !bytes.Equal(got, payload) {
			t.Fatalf("payload mangled: %q -> %q", payload, got)
		}
		// Flip every bit of the payload and separator. Trailer bytes are
		// exempt: a case-flipped hex digit ('f'→'F') decodes to the same
		// checksum over an intact payload, which is acceptance, not
		// corruption. A flipped payload must never be handed back as the
		// original.
		for i := 0; i < len(line)-9; i++ {
			for bit := 0; bit < 8; bit++ {
				mut := append([]byte(nil), line...)
				mut[i] ^= 1 << uint(bit)
				if p, ok := splitCRCLine(bytes.TrimSuffix(mut, []byte{'\n'})); ok && bytes.Equal(p, payload) {
					t.Fatalf("flip of byte %d bit %d went undetected", i, bit)
				}
			}
		}
	})
}
