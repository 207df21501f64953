package campaign

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func v2Spec() Spec {
	s, err := testSpec([]string{"A", "B"}, 2).Normalize()
	if err != nil {
		panic(err)
	}
	return s
}

func v2Record(key string, x float64) Record {
	return Record{Key: key, Kind: KindHCFirst, Mfr: "A", Metrics: map[string]float64{"x": x}}
}

// writeV1Line appends rec as one v1 checkpoint line: plain JSONL, no
// header, no CRC trailer. Nothing in the module writes v1 any more;
// tests use this to keep the reader's upgrade path covered.
func writeV1Line(t testing.TB, w io.Writer, rec Record) {
	t.Helper()
	b, err := json.Marshal(rec)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := w.Write(append(b, '\n')); err != nil {
		t.Fatal(err)
	}
}

// checkpointRecords parses a checkpoint stream for spec with the
// report reader and requires it to be clean: no quarantined line.
func checkpointRecords(t testing.TB, data []byte, spec Spec) map[string]Record {
	t.Helper()
	rep, err := ReadCheckpointReport(bytes.NewReader(data), ResumeOptions{ExpectSpec: &spec})
	if err != nil {
		t.Fatal(err)
	}
	if rep.CorruptRecords != 0 {
		t.Fatalf("checkpoint has %d corrupt line(s): %+v", rep.CorruptRecords, rep.Corrupt)
	}
	return rep.Records
}

func TestCheckpointV2RoundTrip(t *testing.T) {
	spec := v2Spec()
	var buf bytes.Buffer
	cw := NewCheckpointWriter(&buf, spec)
	recs := []Record{v2Record("hcfirst/A/0", 1), v2Record("hcfirst/A/1", 2)}
	for _, r := range recs {
		if err := cw.WriteRecord(r); err != nil {
			t.Fatal(err)
		}
	}
	rep, err := ReadCheckpointReport(bytes.NewReader(buf.Bytes()), ResumeOptions{ExpectSpec: &spec})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Version != 2 || rep.Header == nil {
		t.Fatalf("version = %d, header = %v; want v2 header", rep.Version, rep.Header)
	}
	if rep.Header.Spec != spec.IdentityHash() || rep.Header.Kind != spec.Kind {
		t.Fatalf("header = %+v does not describe the spec", rep.Header)
	}
	if len(rep.Records) != 2 || rep.DuplicateRecords != 0 || rep.CorruptRecords != 0 || rep.TornFinal {
		t.Fatalf("report = %+v, want 2 clean records", rep)
	}
	if rep.Records["hcfirst/A/1"].Metrics["x"] != 2 {
		t.Fatalf("record content lost: %+v", rep.Records["hcfirst/A/1"])
	}
}

func TestCheckpointV2EveryLineHasCRCTrailer(t *testing.T) {
	var buf bytes.Buffer
	cw := NewCheckpointWriter(&buf, v2Spec())
	if err := cw.WriteRecord(v2Record("hcfirst/A/0", 1)); err != nil {
		t.Fatal(err)
	}
	lines := bytes.Split(bytes.TrimSuffix(buf.Bytes(), []byte{'\n'}), []byte{'\n'})
	if len(lines) != 2 {
		t.Fatalf("got %d lines, want header + record", len(lines))
	}
	if !bytes.HasPrefix(lines[0], []byte("#rhckpt")) {
		t.Fatalf("first line is not a header: %q", lines[0])
	}
	for i, ln := range lines {
		if _, ok := splitCRCLine(ln); !ok {
			t.Fatalf("line %d lacks a valid CRC trailer: %q", i, ln)
		}
	}
}

func TestCheckpointV2CorruptInteriorQuarantined(t *testing.T) {
	spec := v2Spec()
	var buf bytes.Buffer
	cw := NewCheckpointWriter(&buf, spec)
	for i, k := range []string{"hcfirst/A/0", "hcfirst/A/1", "hcfirst/B/0"} {
		if err := cw.WriteRecord(v2Record(k, float64(i))); err != nil {
			t.Fatal(err)
		}
	}
	// Flip one payload byte in the middle record: its CRC no longer
	// matches, simulating bit-rot.
	lines := bytes.SplitAfter(buf.Bytes(), []byte{'\n'})
	mid := lines[2] // header, rec0, rec1, rec2
	mid[bytes.IndexByte(mid, ':')+1] ^= 0x20
	damaged := bytes.Join(lines, nil)

	rep, err := ReadCheckpointReport(bytes.NewReader(damaged), ResumeOptions{ExpectSpec: &spec})
	if err != nil {
		t.Fatalf("interior corruption must quarantine, not abort: %v", err)
	}
	if rep.CorruptRecords != 1 || len(rep.Corrupt) != 1 {
		t.Fatalf("corrupt = %d (%d retained), want 1", rep.CorruptRecords, len(rep.Corrupt))
	}
	if rep.Corrupt[0].Line != 3 || !strings.Contains(rep.Corrupt[0].Reason, "CRC") {
		t.Fatalf("quarantined line = %+v, want line 3 with CRC reason", rep.Corrupt[0])
	}
	if len(rep.Records) != 2 {
		t.Fatalf("surviving records = %d, want 2", len(rep.Records))
	}

	// A line torn mid-write and followed by a valid record is interior
	// damage, not a torn tail: quarantined, and the record after it
	// is adopted.
	var torn bytes.Buffer
	torn.WriteString(`{"key":"a","metrics":{` + "\n")
	writeV1Line(t, &torn, Record{Key: "hcfirst/A/0"})
	rep, err = ReadCheckpointReport(bytes.NewReader(torn.Bytes()), ResumeOptions{})
	if err != nil {
		t.Fatalf("torn interior line must quarantine, not abort: %v", err)
	}
	if rep.CorruptRecords != 1 || rep.Corrupt[0].Line != 1 || rep.TornFinal {
		t.Fatalf("torn interior line: corrupt %d (%+v), torn final %v; want line 1 quarantined",
			rep.CorruptRecords, rep.Corrupt, rep.TornFinal)
	}
	if _, ok := rep.Records["hcfirst/A/0"]; !ok || len(rep.Records) != 1 {
		t.Fatalf("record after the torn line not adopted: %+v", rep.Records)
	}
}

func TestCheckpointV2TornFinalTolerated(t *testing.T) {
	spec := v2Spec()
	var buf bytes.Buffer
	cw := NewCheckpointWriter(&buf, spec)
	if err := cw.WriteRecord(v2Record("hcfirst/A/0", 1)); err != nil {
		t.Fatal(err)
	}
	full := buf.Len()
	if err := cw.WriteRecord(v2Record("hcfirst/A/1", 2)); err != nil {
		t.Fatal(err)
	}
	// Cut the final record anywhere inside it, including inside the
	// CRC trailer. Every cut must be survivable: either the tail is
	// recognized as torn and skipped, or — when the cut lands exactly
	// after the intact JSON payload — the record is adopted with its
	// original content (a mid-write crash cannot corrupt bytes, only
	// truncate them). Nothing is ever quarantined as interior
	// corruption, and the first record always survives.
	want := v2Record("hcfirst/A/1", 2)
	for cut := full + 1; cut < buf.Len(); cut++ {
		rep, err := ReadCheckpointReport(bytes.NewReader(buf.Bytes()[:cut]), ResumeOptions{ExpectSpec: &spec})
		if err != nil {
			t.Fatalf("cut %d: %v", cut, err)
		}
		if rep.CorruptRecords != 0 {
			t.Fatalf("cut %d: torn final must not count as corrupt", cut)
		}
		if rep.Records["hcfirst/A/0"].Metrics["x"] != 1 {
			t.Fatalf("cut %d: first record lost", cut)
		}
		switch len(rep.Records) {
		case 1:
			if !rep.TornFinal {
				t.Fatalf("cut %d: dropped tail not reported as torn", cut)
			}
		case 2:
			got := rep.Records["hcfirst/A/1"]
			if got.Metrics["x"] != want.Metrics["x"] || got.Kind != want.Kind {
				t.Fatalf("cut %d: adopted tail record differs: %+v", cut, got)
			}
		default:
			t.Fatalf("cut %d: %d records", cut, len(rep.Records))
		}
	}
}

func TestCheckpointV2SpecMismatchRejected(t *testing.T) {
	specA := v2Spec()
	var buf bytes.Buffer
	cw := NewCheckpointWriter(&buf, specA)
	if err := cw.WriteRecord(v2Record("hcfirst/A/0", 1)); err != nil {
		t.Fatal(err)
	}
	specB := specA
	specB.Seed = specA.Seed + 1
	_, err := ReadCheckpointReport(bytes.NewReader(buf.Bytes()), ResumeOptions{ExpectSpec: &specB})
	if !errors.Is(err, ErrSpecMismatch) {
		t.Fatalf("want ErrSpecMismatch, got %v", err)
	}
	// Fingerprint (scale/geometry identity) differences are stale too.
	specC := specA
	specC.Fingerprint = "other-scale"
	if _, err := ReadCheckpointReport(bytes.NewReader(buf.Bytes()), ResumeOptions{ExpectSpec: &specC}); !errors.Is(err, ErrSpecMismatch) {
		t.Fatalf("fingerprint change: want ErrSpecMismatch, got %v", err)
	}
	// Scheduling knobs are not identity: a different worker count or
	// retry budget still resumes.
	specD := specA
	specD.Workers = specA.Workers + 7
	specD.MaxRetries = 9
	if _, err := ReadCheckpointReport(bytes.NewReader(buf.Bytes()), ResumeOptions{ExpectSpec: &specD}); err != nil {
		t.Fatalf("scheduling knobs must not invalidate a checkpoint: %v", err)
	}
}

func TestCheckpointV1StillLoads(t *testing.T) {
	spec := v2Spec()
	var buf bytes.Buffer
	for i, k := range []string{"hcfirst/A/0", "hcfirst/A/1"} {
		writeV1Line(t, &buf, v2Record(k, float64(i)))
	}
	rep, err := ReadCheckpointReport(bytes.NewReader(buf.Bytes()), ResumeOptions{ExpectSpec: &spec})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Version != 1 || rep.Header != nil {
		t.Fatalf("v1 stream reported as version %d", rep.Version)
	}
	if len(rep.Records) != 2 {
		t.Fatalf("records = %d, want 2", len(rep.Records))
	}
}

func TestCheckpointDuplicatePrecedenceRule(t *testing.T) {
	// The documented rule: later wins, except success is never
	// replaced by failure.
	ok1 := Record{Key: "k", Metrics: map[string]float64{"x": 1}}
	ok2 := Record{Key: "k", Metrics: map[string]float64{"x": 2}}
	bad := Record{Key: "k", Err: "boom"}

	cases := []struct {
		name    string
		seq     []Record
		wantX   float64
		wantErr bool
		dups    int
	}{
		{"failure then success: success wins", []Record{bad, ok1}, 1, false, 1},
		{"success then failure: success survives", []Record{ok1, bad}, 1, false, 1},
		{"later success replaces earlier success", []Record{ok1, ok2}, 2, false, 1},
		{"later failure replaces earlier failure", []Record{bad, bad}, 0, true, 1},
		{"fail, ok, fail: ok survives both", []Record{bad, ok1, bad}, 1, false, 2},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var buf bytes.Buffer
			for _, r := range tc.seq {
				writeV1Line(t, &buf, r)
			}
			rep, err := ReadCheckpointReport(bytes.NewReader(buf.Bytes()), ResumeOptions{})
			if err != nil {
				t.Fatal(err)
			}
			got := rep.Records["k"]
			if got.Failed() != tc.wantErr {
				t.Fatalf("failed = %v, want %v", got.Failed(), tc.wantErr)
			}
			if !tc.wantErr && got.Metrics["x"] != tc.wantX {
				t.Fatalf("x = %v, want %v", got.Metrics["x"], tc.wantX)
			}
			if rep.DuplicateRecords != tc.dups {
				t.Fatalf("DuplicateRecords = %d, want %d", rep.DuplicateRecords, tc.dups)
			}
		})
	}
}

func TestOpenCheckpointVerifiesHeaderAndAccumulates(t *testing.T) {
	spec := v2Spec()
	path := filepath.Join(t.TempDir(), "ck.jsonl")
	cw, err := CreateCheckpoint(path, spec)
	if err != nil {
		t.Fatal(err)
	}
	if err := cw.WriteRecord(v2Record("hcfirst/A/0", 1)); err != nil {
		t.Fatal(err)
	}
	if err := cw.Close(); err != nil {
		t.Fatal(err)
	}

	// Resuming under a different campaign identity is refused.
	other := spec
	other.Seed++
	if _, _, err := OpenCheckpoint(path, other, 0, 0); !errors.Is(err, ErrSpecMismatch) {
		t.Fatalf("open with wrong spec: want ErrSpecMismatch, got %v", err)
	}

	// Resuming under the same identity reports what the file holds and
	// accumulates records without a second header.
	cw2, rep, err := OpenCheckpoint(path, spec, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Version != 2 || len(rep.Records) != 1 || rep.Records["hcfirst/A/0"].Metrics["x"] != 1 {
		t.Fatalf("resume report = %+v, want the one v2 record", rep)
	}
	if err := cw2.WriteRecord(v2Record("hcfirst/A/1", 2)); err != nil {
		t.Fatal(err)
	}
	if err := cw2.Close(); err != nil {
		t.Fatal(err)
	}
	rep, err = LoadCheckpointReport(path, ResumeOptions{ExpectSpec: &spec})
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Records) != 2 || rep.CorruptRecords != 0 {
		t.Fatalf("after append: %d records, %d corrupt; want 2, 0", len(rep.Records), rep.CorruptRecords)
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if n := bytes.Count(raw, []byte("#rhckpt")); n != 1 {
		t.Fatalf("file has %d headers, want exactly 1", n)
	}
}

func TestOpenCheckpointIsolatesTornTail(t *testing.T) {
	spec := v2Spec()
	path := filepath.Join(t.TempDir(), "ck.jsonl")
	cw, err := CreateCheckpoint(path, spec)
	if err != nil {
		t.Fatal(err)
	}
	if err := cw.WriteRecord(v2Record("hcfirst/A/0", 1)); err != nil {
		t.Fatal(err)
	}
	if err := cw.Close(); err != nil {
		t.Fatal(err)
	}
	// Simulate a crash mid-write: append half a record, no newline.
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	f.WriteString(`{"key":"hcfirst/A/1","metr`)
	f.Close()

	cw2, opened, err := OpenCheckpoint(path, spec, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	if !opened.TornFinal || len(opened.Records) != 1 {
		t.Fatalf("resume report = %+v, want 1 record and a torn final line", opened)
	}
	if err := cw2.WriteRecord(v2Record("hcfirst/A/1", 2)); err != nil {
		t.Fatal(err)
	}
	if err := cw2.Close(); err != nil {
		t.Fatal(err)
	}
	// The torn tail must not bleed into the appended record: the new
	// record survives, the torn fragment is quarantined as one line.
	rep, err := LoadCheckpointReport(path, ResumeOptions{ExpectSpec: &spec})
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Records) != 2 {
		t.Fatalf("records = %d, want 2 (torn tail must not eat the appended record)", len(rep.Records))
	}
	if rep.CorruptRecords != 1 {
		t.Fatalf("corrupt = %d, want 1 (the isolated torn fragment)", rep.CorruptRecords)
	}
	if rep.QuarantinePath == "" {
		t.Fatal("quarantine sidecar not written")
	}
	side, err := os.ReadFile(rep.QuarantinePath)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Contains(side, []byte(`{"key":"hcfirst/A/1","metr`)) {
		t.Fatalf("sidecar should carry the quarantined line verbatim:\n%s", side)
	}
	if !bytes.HasPrefix(side, []byte("#rhckpt-quarantine")) {
		t.Fatalf("sidecar should start with a summary report:\n%s", side)
	}
}

func TestOpenCheckpointRejectsOtherShard(t *testing.T) {
	spec := v2Spec()
	path := filepath.Join(t.TempDir(), "shard.jsonl")
	cw, _, err := OpenCheckpoint(path, spec, 1, 4)
	if err != nil {
		t.Fatal(err)
	}
	if err := cw.WriteRecord(v2Record("hcfirst/A/1", 1)); err != nil {
		t.Fatal(err)
	}
	if err := cw.Close(); err != nil {
		t.Fatal(err)
	}
	for _, other := range []struct{ shard, of int }{{2, 4}, {1, 2}, {0, 0}} {
		if _, _, err := OpenCheckpoint(path, spec, other.shard, other.of); !errors.Is(err, ErrShardMismatch) {
			t.Fatalf("open shard %d/%d of a shard 1/4 file: want ErrShardMismatch, got %v", other.shard, other.of, err)
		}
	}
	cw, rep, err := OpenCheckpoint(path, spec, 1, 4)
	if err != nil {
		t.Fatalf("the owning shard must resume: %v", err)
	}
	cw.Close()
	if h := rep.Header; h == nil || h.Shard != 1 || h.Of != 4 || len(rep.Records) != 1 {
		t.Fatalf("resume report = %+v, want shard 1/4 header and 1 record", rep)
	}
}

func TestOpenCheckpointTornAtTab(t *testing.T) {
	spec := v2Spec()
	path := filepath.Join(t.TempDir(), "ck.jsonl")
	var buf bytes.Buffer
	cw := NewCheckpointWriter(&buf, spec)
	if err := cw.WriteRecord(v2Record("hcfirst/A/0", 1)); err != nil {
		t.Fatal(err)
	}
	if err := cw.WriteRecord(v2Record("hcfirst/A/1", 2)); err != nil {
		t.Fatal(err)
	}
	// Cut the last record right after its separator tab: the JSON is
	// complete, the CRC trailer and newline are missing.
	data := buf.Bytes()
	cut := bytes.LastIndexByte(data, '\t') + 1
	if err := os.WriteFile(path, data[:cut], 0o644); err != nil {
		t.Fatal(err)
	}

	cw2, opened, err := OpenCheckpoint(path, spec, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	if err := cw2.WriteRecord(v2Record("hcfirst/B/0", 3)); err != nil {
		t.Fatal(err)
	}
	if err := cw2.Close(); err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.HasPrefix(raw[cut:], []byte("\n{")) {
		t.Fatalf("appended record does not start on its own line: %q", raw[cut:])
	}
	// Nothing the open adopted is lost, the appended record lands
	// clean, and nothing is quarantined.
	rep, err := LoadCheckpointReport(path, ResumeOptions{ExpectSpec: &spec})
	if err != nil {
		t.Fatal(err)
	}
	if rep.CorruptRecords != 0 || len(rep.Records) != len(opened.Records)+1 {
		t.Fatalf("after append: %d records (%d before), %d corrupt", len(rep.Records), len(opened.Records), rep.CorruptRecords)
	}
	for k := range opened.Records {
		if _, ok := rep.Records[k]; !ok {
			t.Fatalf("record %s adopted before the append is gone after it", k)
		}
	}
	if rep.Records["hcfirst/B/0"].Metrics["x"] != 3 {
		t.Fatalf("appended record lost: %+v", rep.Records)
	}
}

func TestOpenCheckpointMissingFileMatchesCreate(t *testing.T) {
	spec := v2Spec()
	dir := t.TempDir()
	recs := []Record{v2Record("hcfirst/A/0", 1), v2Record("hcfirst/A/1", 2)}
	write := func(cw *CheckpointWriter) {
		t.Helper()
		for _, r := range recs {
			if err := cw.WriteRecord(r); err != nil {
				t.Fatal(err)
			}
		}
		if err := cw.Close(); err != nil {
			t.Fatal(err)
		}
	}
	created, err := CreateCheckpoint(filepath.Join(dir, "created.jsonl"), spec)
	if err != nil {
		t.Fatal(err)
	}
	write(created)
	opened, rep, err := OpenCheckpoint(filepath.Join(dir, "opened.jsonl"), spec, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Lines != 0 || len(rep.Records) != 0 || rep.Header != nil {
		t.Fatalf("missing file should resume fresh, got %+v", rep)
	}
	write(opened)
	want, _ := os.ReadFile(filepath.Join(dir, "created.jsonl"))
	got, _ := os.ReadFile(filepath.Join(dir, "opened.jsonl"))
	if len(want) == 0 || !bytes.Equal(want, got) {
		t.Fatalf("OpenCheckpoint on a missing file wrote\n%s\nCreateCheckpoint wrote\n%s", got, want)
	}
}

func TestCompactCheckpointFile(t *testing.T) {
	spec := v2Spec()
	path := filepath.Join(t.TempDir(), "ck.jsonl")
	cw, err := CreateCheckpoint(path, spec)
	if err != nil {
		t.Fatal(err)
	}
	// Duplicates (a re-run job) and a failure-then-success pair.
	for _, r := range []Record{
		v2Record("hcfirst/A/0", 1),
		{Key: "hcfirst/A/1", Err: "transient"},
		v2Record("hcfirst/A/0", 10),
		v2Record("hcfirst/A/1", 2),
	} {
		if err := cw.WriteRecord(r); err != nil {
			t.Fatal(err)
		}
	}
	if err := cw.Close(); err != nil {
		t.Fatal(err)
	}
	// And a torn tail.
	f, _ := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0o644)
	f.WriteString(`{"key":"hcfirst/B/0"`)
	f.Close()

	rep, err := CompactCheckpointFile(path, &spec)
	if err != nil {
		t.Fatal(err)
	}
	if rep.DuplicateRecords != 2 || !rep.TornFinal {
		t.Fatalf("compact report = %+v, want 2 duplicates and a torn tail", rep)
	}

	// The compacted file is clean: one header, one line per key, no
	// duplicates, no corrupt line, no torn tail.
	rep2, err := LoadCheckpointReport(path, ResumeOptions{ExpectSpec: &spec})
	if err != nil {
		t.Fatal(err)
	}
	if rep2.Version != 2 || rep2.DuplicateRecords != 0 || rep2.CorruptRecords != 0 || rep2.TornFinal {
		t.Fatalf("compacted file not clean: %+v", rep2)
	}
	if len(rep2.Records) != 2 {
		t.Fatalf("compacted records = %d, want 2", len(rep2.Records))
	}
	if rep2.Records["hcfirst/A/0"].Metrics["x"] != 10 || rep2.Records["hcfirst/A/1"].Metrics["x"] != 2 {
		t.Fatalf("compaction lost precedence: %+v", rep2.Records)
	}
}

func TestCompactUpgradesV1File(t *testing.T) {
	spec := v2Spec()
	path := filepath.Join(t.TempDir(), "v1.jsonl")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	writeV1Line(t, f, v2Record("hcfirst/A/0", 1))
	f.Close()
	if _, err := CompactCheckpointFile(path, nil); err == nil {
		t.Fatal("v1 compaction without a spec must fail (no header to preserve)")
	}
	if _, err := CompactCheckpointFile(path, &spec); err != nil {
		t.Fatal(err)
	}
	rep, err := LoadCheckpointReport(path, ResumeOptions{ExpectSpec: &spec})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Version != 2 || len(rep.Records) != 1 {
		t.Fatalf("v1 upgrade produced version %d with %d records", rep.Version, len(rep.Records))
	}
}

func TestCompactMissingFile(t *testing.T) {
	spec := v2Spec()
	if _, err := CompactCheckpointFile(filepath.Join(t.TempDir(), "nope.jsonl"), &spec); err == nil {
		t.Fatal("want error for missing checkpoint")
	}
}

func TestLoadCheckpointReportMissingFile(t *testing.T) {
	rep, err := LoadCheckpointReport(filepath.Join(t.TempDir(), "nope.jsonl"), ResumeOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Records) != 0 {
		t.Fatalf("missing file should resume fresh, got %d records", len(rep.Records))
	}
}

func TestQuarantineRetentionIsBounded(t *testing.T) {
	var buf bytes.Buffer
	for i := 0; i < 200; i++ {
		buf.WriteString("not json at all\n")
	}
	buf.WriteString(`{"key":"k","metrics":{"x":1}}` + "\n")
	rep, err := ReadCheckpointReport(bytes.NewReader(buf.Bytes()), ResumeOptions{MaxQuarantinedLines: 10})
	if err != nil {
		t.Fatal(err)
	}
	if rep.CorruptRecords != 200 {
		t.Fatalf("CorruptRecords = %d, want exact count 200", rep.CorruptRecords)
	}
	if len(rep.Corrupt) != 10 {
		t.Fatalf("retained %d lines, want capped at 10", len(rep.Corrupt))
	}
	if len(rep.Records) != 1 {
		t.Fatalf("the valid record should survive, got %d", len(rep.Records))
	}
}

// TestCheckpointLongRecordLines: the reader's line buffer starts small
// and grows on demand, so a record line longer than 1 MiB (and below
// the maxCheckpointLine cap) loads intact wherever it sits in the
// stream, while a line over the cap fails the read with
// bufio.ErrTooLong.
func TestCheckpointLongRecordLines(t *testing.T) {
	spec := v2Spec()
	big := v2Record("hcfirst/A/0", 1)
	big.Series = map[string][]float64{"hc": make([]float64, 200_000)}
	for i := range big.Series["hc"] {
		big.Series["hc"][i] = float64(i) + 0.125
	}
	var buf bytes.Buffer
	cw := NewCheckpointWriter(&buf, spec)
	for _, r := range []Record{v2Record("hcfirst/A/1", 2), big, v2Record("hcfirst/B/0", 3)} {
		if err := cw.WriteRecord(r); err != nil {
			t.Fatal(err)
		}
	}
	longest := 0
	for _, line := range bytes.Split(buf.Bytes(), []byte("\n")) {
		longest = max(longest, len(line))
	}
	if longest <= 1<<20 || longest >= maxCheckpointLine {
		t.Fatalf("longest line is %d bytes, want between 1 MiB and the %d-byte cap", longest, maxCheckpointLine)
	}
	recs := checkpointRecords(t, buf.Bytes(), spec)
	if len(recs) != 3 {
		t.Fatalf("loaded %d records, want 3", len(recs))
	}
	got := recs[big.Key].Series["hc"]
	if len(got) != len(big.Series["hc"]) || got[len(got)-1] != big.Series["hc"][len(got)-1] {
		t.Fatalf("long record came back with %d series points, want %d", len(got), len(big.Series["hc"]))
	}

	over := append(bytes.Clone(buf.Bytes()), bytes.Repeat([]byte("x"), maxCheckpointLine+1)...)
	over = append(over, '\n')
	if _, err := ReadCheckpointReport(bytes.NewReader(over), ResumeOptions{ExpectSpec: &spec}); !errors.Is(err, bufio.ErrTooLong) {
		t.Fatalf("line over the cap: err = %v, want bufio.ErrTooLong", err)
	}
}
