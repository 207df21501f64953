package campaign

import (
	"bytes"
	"errors"
	"fmt"
	"maps"
	"os"
	"path/filepath"
	"reflect"
	"testing"
)

// fuzzSpec is the campaign the fuzz seed streams belong to.
func fuzzSpec() Spec { return testSpec([]string{"A"}, 2) }

// fuzzSeedStream builds a small valid v2 stream for the fuzz corpora.
func fuzzSeedStream() []byte {
	var buf bytes.Buffer
	cw := NewCheckpointWriter(&buf, fuzzSpec())
	cw.WriteRecord(Record{Key: "hcfirst/A/0", Kind: KindHCFirst, Mfr: "A", Metrics: map[string]float64{"x": 1}})
	cw.WriteRecord(Record{Key: "hcfirst/A/1", Kind: KindHCFirst, Mfr: "A", Module: 1, Err: "boom"})
	return buf.Bytes()
}

// FuzzReadCheckpoint feeds arbitrary bytes to the checkpoint reader,
// then resumes them as a checkpoint file. Invariants: no input panics;
// quarantine retention stays bounded; and resuming never costs a
// record — OpenCheckpoint the input (unless it belongs to another
// campaign or shard), append one record under a fresh key, close and
// reload: the reload adopts exactly the records the open adopted, plus
// the new one. That is what makes a torn tail, a missing trailer or a
// v1 file safe to resume into.
func FuzzReadCheckpoint(f *testing.F) {
	valid := fuzzSeedStream()
	f.Add(valid)
	f.Add(valid[:len(valid)-9])                                              // torn final record
	f.Add([]byte(`{"key":"hcfirst/A/0","kind":"hcfirst","mfr":"A"}` + "\n")) // v1
	f.Add([]byte("#rhckpt{\"v\":2,\"spec\":\"0123456789abcdef\"}\tdeadbeef\n"))
	f.Add([]byte("not json\tnothex99\n\n\tcafe1234\n"))
	f.Add([]byte{0x00, 0xff, '\t', '\n', '\t'})
	f.Add(valid[:len(valid)-1])                       // valid record, no trailing newline
	f.Add(valid[:bytes.LastIndexByte(valid, '\t')+1]) // torn at the tab
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

		spec := fuzzSpec()
		path := filepath.Join(t.TempDir(), "ck.jsonl")
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		cw, before, err := OpenCheckpoint(path, spec, 0, 0)
		if errors.Is(err, ErrSpecMismatch) || errors.Is(err, ErrShardMismatch) {
			return
		}
		if err != nil {
			t.Fatal(err)
		}
		fresh := Record{Key: "hcfirst/fresh", Metrics: map[string]float64{"x": 1}}
		for i := 0; before.Records[fresh.Key].Key != ""; i++ {
			fresh.Key = fmt.Sprintf("hcfirst/fresh/%d", i)
		}
		if err := cw.WriteRecord(fresh); err != nil {
			t.Fatal(err)
		}
		if err := cw.Close(); err != nil {
			t.Fatal(err)
		}
		after, err := LoadCheckpointReport(path, ResumeOptions{ExpectSpec: &spec})
		if err != nil {
			t.Fatalf("reload after resume: %v", err)
		}
		want := maps.Clone(before.Records)
		want[fresh.Key] = fresh
		if !reflect.DeepEqual(after.Records, want) {
			t.Fatalf("resume changed the adopted records:\nbefore + new: %+v\nafter:        %+v", want, after.Records)
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
