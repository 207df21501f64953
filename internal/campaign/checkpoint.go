package campaign

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"sync"

	"rowhammer/internal/durable"
)

// Checkpoint format. Version 2 is self-describing and self-verifying:
//
//	#rhckpt{"v":2,"spec":"<hash>","kind":...}\t<crc32c>\n   header
//	{"key":...,"metrics":...}\t<crc32c>\n                   record
//	...
//
// Every line carries a CRC32C (Castagnoli) trailer over its payload,
// separated by a tab — raw tabs are illegal inside JSON, so the
// separator is unambiguous. The header pins the campaign identity
// (spec hash, kind, module set, seed) so a checkpoint can never be
// resumed into a different campaign, and the per-record CRCs turn
// silent bit-rot into explicit quarantine instead of corrupt resumes.
// Version 1 files (plain JSONL, no header, no trailers) still load as
// the upgrade path — nothing writes them any more. The two line formats
// can coexist in one file, which is what resuming a v1 checkpoint
// through OpenCheckpoint produces; CompactCheckpointFile rewrites such
// a file as pure v2.
const checkpointHeaderPrefix = "#rhckpt"

// ErrSpecMismatch is returned when a checkpoint's header identifies a
// different campaign than the one resuming from it — the
// stale-resume protection that keeps records measured under one
// (kind, module set, seed, scale) from silently polluting another.
var ErrSpecMismatch = errors.New("campaign: checkpoint belongs to a different campaign spec")

// ErrShardMismatch is returned when a checkpoint's header carries a
// shard assignment that disagrees with the resuming process — a shard
// worker must not adopt another shard's slice of the grid, and a
// whole-campaign resume must not silently absorb one shard's partial
// records as if they were the full campaign.
var ErrShardMismatch = errors.New("campaign: checkpoint belongs to a different shard assignment")

// CheckpointHeader is the self-describing first line of a v2
// checkpoint. Of > 0 marks a shard checkpoint: the file holds shard
// Shard of Of's disjoint slice of the job grid, not the whole
// campaign. Spec stays the campaign identity hash — identical across
// all shards of one campaign — which is what lets a merge verify that
// every shard file measured the same thing.
type CheckpointHeader struct {
	Version       int      `json:"v"`
	Spec          string   `json:"spec"`
	Kind          string   `json:"kind"`
	Mfrs          []string `json:"mfrs"`
	ModulesPerMfr int      `json:"modules_per_mfr"`
	Seed          uint64   `json:"seed"`
	Shard         int      `json:"shard,omitempty"`
	Of            int      `json:"of,omitempty"`
}

// Sharded reports whether the header describes one shard's slice of
// the campaign rather than the whole grid.
func (h CheckpointHeader) Sharded() bool { return h.Of > 0 }

// HeaderForSpec builds the v2 header describing spec.
func HeaderForSpec(spec Spec) CheckpointHeader {
	if n, err := spec.Normalize(); err == nil {
		spec = n
	}
	return CheckpointHeader{
		Version:       2,
		Spec:          spec.IdentityHash(),
		Kind:          spec.Kind,
		Mfrs:          spec.Mfrs,
		ModulesPerMfr: spec.ModulesPerMfr,
		Seed:          spec.Seed,
	}
}

// appendCRCLine and splitCRCLine are the shared CRC-trailed line
// codec from internal/durable; the store's index log uses the same
// one, so there is exactly one on-disk line format to fuzz and trust.
func appendCRCLine(dst, payload []byte) []byte { return durable.AppendCRCLine(dst, payload) }

func splitCRCLine(line []byte) (payload []byte, ok bool) { return durable.SplitCRCLine(line) }

// parseHeaderLine decodes a CRC-verified v2 header line.
func parseHeaderLine(line []byte) (*CheckpointHeader, bool) {
	payload, ok := splitCRCLine(line)
	if !ok || !bytes.HasPrefix(payload, []byte(checkpointHeaderPrefix)) {
		return nil, false
	}
	var h CheckpointHeader
	if json.Unmarshal(payload[len(checkpointHeaderPrefix):], &h) != nil || h.Version != 2 {
		return nil, false
	}
	return &h, true
}

// parseRecordLine decodes one checkpoint record line of either
// version. A line containing a tab must carry a valid CRC trailer
// (JSON never contains raw tabs); a line without one is a v1 record.
func parseRecordLine(raw []byte) (Record, error) {
	payload := raw
	if p, ok := splitCRCLine(raw); ok {
		payload = p
	} else if bytes.IndexByte(raw, '\t') >= 0 {
		return Record{}, fmt.Errorf("CRC trailer mismatch")
	}
	var rec Record
	if err := json.Unmarshal(payload, &rec); err != nil {
		return Record{}, err
	}
	if rec.Key == "" {
		return Record{}, fmt.Errorf("record has no key")
	}
	return rec, nil
}

// syncer is the durability hook of *os.File-like checkpoint writers.
type syncer interface{ Sync() error }

// CheckpointWriter streams v2 checkpoint lines: a self-describing
// header followed by CRC32C-trailed records, each fsynced when the
// underlying writer supports Sync. It is safe for use from one
// goroutine (the engine's collector); Compact and the CLIs get their
// own instances.
type CheckpointWriter struct {
	mu            sync.Mutex
	w             io.Writer
	closer        io.Closer
	header        CheckpointHeader
	headerWritten bool
}

// NewCheckpointWriter writes a v2 checkpoint for spec to w. The
// header line is written lazily before the first record (or
// explicitly via WriteHeader), so wrapping w with a crash-injection
// failpoint before any write covers the header bytes too.
func NewCheckpointWriter(w io.Writer, spec Spec) *CheckpointWriter {
	return &CheckpointWriter{w: w, header: HeaderForSpec(spec)}
}

// Wrap replaces the underlying writer with f(current) — the failpoint
// seam: a crash-injection harness interposes a writer that cuts the
// stream at an exact byte offset (or kills the process there).
func (cw *CheckpointWriter) Wrap(f func(io.Writer) io.Writer) {
	cw.mu.Lock()
	defer cw.mu.Unlock()
	cw.w = f(cw.w)
}

// WriteHeader writes the header line if it has not been written yet.
func (cw *CheckpointWriter) WriteHeader() error {
	cw.mu.Lock()
	defer cw.mu.Unlock()
	return cw.ensureHeader()
}

func (cw *CheckpointWriter) ensureHeader() error {
	if cw.headerWritten {
		return nil
	}
	hb, err := json.Marshal(cw.header)
	if err != nil {
		return err
	}
	payload := append([]byte(checkpointHeaderPrefix), hb...)
	if _, err := cw.w.Write(appendCRCLine(nil, payload)); err != nil {
		return err
	}
	cw.headerWritten = true
	return cw.sync()
}

// WriteRecord appends one CRC-trailed record line and fsyncs it, so a
// crash — not just a SIGINT — can lose at most the in-flight record,
// never completed jobs buffered in the OS page cache.
func (cw *CheckpointWriter) WriteRecord(rec Record) error {
	cw.mu.Lock()
	defer cw.mu.Unlock()
	if err := cw.ensureHeader(); err != nil {
		return err
	}
	b, err := json.Marshal(rec)
	if err != nil {
		return err
	}
	if _, err := cw.w.Write(appendCRCLine(nil, b)); err != nil {
		return err
	}
	return cw.sync()
}

// WriteRecords appends recs one WriteRecord at a time in key order —
// the canonical order compaction and a resume into a new file write
// adopted records in.
func (cw *CheckpointWriter) WriteRecords(recs map[string]Record) error {
	for _, k := range sortedKeys(recs) {
		if err := cw.WriteRecord(recs[k]); err != nil {
			return err
		}
	}
	return nil
}

func (cw *CheckpointWriter) sync() error {
	if s, ok := cw.w.(syncer); ok {
		return s.Sync()
	}
	return nil
}

// Close syncs and closes the underlying file when this writer owns
// one (CreateCheckpoint/OpenCheckpoint).
func (cw *CheckpointWriter) Close() error {
	cw.mu.Lock()
	defer cw.mu.Unlock()
	err := cw.sync()
	if cw.closer != nil {
		if cerr := cw.closer.Close(); err == nil {
			err = cerr
		}
		cw.closer = nil
	}
	return err
}

// CreateCheckpoint creates (or truncates) path as a fresh v2
// checkpoint for spec. The header is written with the first record.
func CreateCheckpoint(path string, spec Spec) (*CheckpointWriter, error) {
	f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_TRUNC, 0o644)
	if err != nil {
		return nil, err
	}
	cw := NewCheckpointWriter(f, spec)
	cw.closer = f
	return cw, nil
}

// OpenCheckpoint resumes path as the checkpoint of shard shard/of of
// spec (of = 0: the whole campaign) — the one resume path every CLI,
// the server and shard workers share. It reads the file once with
// LoadCheckpointReport (identity check, quarantine sidecar), refuses a
// header carrying another shard assignment (ErrShardMismatch: a shard
// worker must not adopt another slice of the grid, nor a whole-campaign
// resume one shard's partial records), and opens the file for
// appending. A file killed mid-line gets a newline first, so the torn
// tail is isolated as one quarantinable line instead of corrupting the
// first new record. A missing, empty or headerless (v1) file gets a v2
// header before the first appended record, so a missing file ends up
// byte-identical to one from CreateCheckpoint.
func OpenCheckpoint(path string, spec Spec, shard, of int) (*CheckpointWriter, *ResumeReport, error) {
	rep, err := LoadCheckpointReport(path, ResumeOptions{ExpectSpec: &spec})
	if err != nil {
		return nil, nil, err
	}
	if h := rep.Header; h != nil && (h.Shard != shard || h.Of != of) {
		return nil, nil, fmt.Errorf("%w: %s holds %s, this process is %s",
			ErrShardMismatch, path, describeShard(h.Shard, h.Of), describeShard(shard, of))
	}
	f, err := os.OpenFile(path, os.O_CREATE|os.O_RDWR|os.O_APPEND, 0o644)
	if err != nil {
		return nil, nil, err
	}
	if err := isolateTornTail(f); err != nil {
		f.Close()
		return nil, nil, err
	}
	cw := NewCheckpointWriter(f, spec)
	cw.header.Shard, cw.header.Of = shard, of
	cw.closer = f
	cw.headerWritten = rep.Header != nil
	return cw, rep, nil
}

// isolateTornTail terminates a final line left without its newline.
func isolateTornTail(f *os.File) error {
	info, err := f.Stat()
	if err != nil || info.Size() == 0 {
		return err
	}
	last := []byte{0}
	if _, err := f.ReadAt(last, info.Size()-1); err != nil {
		return err
	}
	if last[0] == '\n' {
		return nil
	}
	_, err = f.Write([]byte{'\n'})
	return err
}

// describeShard names a header's shard assignment for error messages.
func describeShard(shard, of int) string {
	if of <= 0 {
		return "the whole campaign"
	}
	return fmt.Sprintf("shard %d/%d", shard, of)
}

// ResumeOptions configures checkpoint parsing for resume.
type ResumeOptions struct {
	// ExpectSpec, when non-nil, rejects checkpoints whose v2 header
	// identifies a different campaign (ErrSpecMismatch). Headerless v1
	// files carry no identity and are accepted as-is.
	ExpectSpec *Spec
	// MaxQuarantinedLines bounds how many corrupt raw lines the report
	// retains (and the sidecar receives); the count in CorruptRecords
	// is always exact. 0 selects the default of 64.
	MaxQuarantinedLines int
}

// CorruptLine is one quarantined checkpoint line.
type CorruptLine struct {
	// Line is the 1-based line number in the source stream.
	Line int
	// Raw is the offending line verbatim.
	Raw []byte
	// Reason says why the line was quarantined.
	Reason string
}

// ResumeReport is the outcome of parsing a checkpoint for resume:
// the adopted records plus explicit accounting of everything the
// parser had to tolerate, so a resumed campaign can say exactly what
// it recovered rather than silently absorbing damage.
type ResumeReport struct {
	// Version is 2 when a v2 header was found, else 1.
	Version int
	// Header is the v2 header, when present.
	Header *CheckpointHeader
	// Records maps job key → adopted record (see the precedence rule
	// in ReadCheckpointReport's doc comment).
	Records map[string]Record
	// Lines counts non-blank lines scanned.
	Lines int
	// DuplicateRecords counts lines whose key had already appeared —
	// the normal artifact of crash/resume cycles re-running in-flight
	// jobs, surfaced so operators can see how much rework occurred.
	DuplicateRecords int
	// CorruptRecords counts interior lines that failed CRC or JSON
	// validation and were quarantined rather than adopted.
	CorruptRecords int
	// Corrupt holds the quarantined lines (capped at
	// MaxQuarantinedLines; CorruptRecords is the exact total).
	Corrupt []CorruptLine
	// TornFinal reports that the stream's last line was incomplete —
	// the expected artifact of a crash mid-write — and was skipped.
	TornFinal bool
	// QuarantinePath is the .corrupt sidecar written by
	// LoadCheckpointReport when corrupt lines were found.
	QuarantinePath string
}

// maxCheckpointLine is the longest checkpoint line the reader accepts
// (16 MiB); a longer line fails the read with bufio.ErrTooLong.
const maxCheckpointLine = 1 << 24

// ReadCheckpointReport parses a v1 or v2 JSONL checkpoint stream into
// a resume report. It verifies per-record CRCs (v2), rejects streams
// whose header identifies a different campaign than opts.ExpectSpec,
// tolerates a torn final line, and quarantines corrupt interior lines
// into the report instead of failing the whole resume.
//
// Duplicate-key precedence: the later record wins, except that a
// successful record is never replaced by a failed one — a resumed run
// may re-fail a job another run completed, and the completed
// measurement must survive. A later success does replace an earlier
// failure, and a later success replaces an earlier success (the
// rewrite is counted in DuplicateRecords either way).
func ReadCheckpointReport(r io.Reader, opts ResumeOptions) (*ResumeReport, error) {
	maxKeep := opts.MaxQuarantinedLines
	if maxKeep <= 0 {
		maxKeep = 64
	}
	rep := &ResumeReport{Version: 1, Records: make(map[string]Record)}
	sc := bufio.NewScanner(r)
	// A nil buffer starts small and doubles on demand up to the cap, so
	// a read of a few KB of records allocates a few KB: a sharded
	// campaign reads every shard checkpoint twice.
	sc.Buffer(nil, maxCheckpointLine)
	line := 0
	// One bad line is held pending: if it turns out to be the final
	// line it is a torn write and is forgiven; if more lines follow it
	// is interior corruption and is quarantined.
	var pending *CorruptLine
	for sc.Scan() {
		line++
		raw := bytes.TrimSpace(sc.Bytes())
		if len(raw) == 0 {
			continue
		}
		if pending != nil {
			rep.CorruptRecords++
			if len(rep.Corrupt) < maxKeep {
				rep.Corrupt = append(rep.Corrupt, *pending)
			}
			pending = nil
		}
		rep.Lines++
		if bytes.HasPrefix(raw, []byte(checkpointHeaderPrefix)) {
			h, ok := parseHeaderLine(raw)
			switch {
			case ok && rep.Header == nil:
				rep.Header = h
				rep.Version = 2
				if opts.ExpectSpec != nil {
					want := HeaderForSpec(*opts.ExpectSpec)
					if h.Spec != want.Spec {
						return nil, fmt.Errorf("%w: checkpoint spec %s (kind %s, %d mfrs × %d modules, seed %d), campaign spec %s",
							ErrSpecMismatch, h.Spec, h.Kind, len(h.Mfrs), h.ModulesPerMfr, h.Seed, want.Spec)
					}
				}
			case ok:
				// A second valid header: quarantine the duplicate.
				pending = &CorruptLine{Line: line, Raw: append([]byte(nil), raw...), Reason: "duplicate checkpoint header"}
			default:
				pending = &CorruptLine{Line: line, Raw: append([]byte(nil), raw...), Reason: "invalid checkpoint header"}
			}
			continue
		}
		rec, err := parseRecordLine(raw)
		if err != nil {
			pending = &CorruptLine{Line: line, Raw: append([]byte(nil), raw...), Reason: err.Error()}
			continue
		}
		if prev, ok := rep.Records[rec.Key]; ok {
			rep.DuplicateRecords++
			if !prev.Failed() && rec.Failed() {
				continue
			}
		}
		rep.Records[rec.Key] = rec
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	if pending != nil {
		rep.TornFinal = true
	}
	return rep, nil
}

// LoadCheckpointReport reads a checkpoint from disk for resume. A
// missing file yields an empty report. When corrupt interior lines
// were quarantined, they are published atomically to a "<path>.corrupt"
// sidecar — a summary header followed by the offending lines verbatim
// — so damaged measurements are preserved for forensics instead of
// silently dropped, and the report's QuarantinePath names the sidecar.
func LoadCheckpointReport(path string, opts ResumeOptions) (*ResumeReport, error) {
	f, err := os.Open(path)
	if err != nil {
		if os.IsNotExist(err) {
			return &ResumeReport{Version: 1, Records: map[string]Record{}}, nil
		}
		return nil, err
	}
	rep, err := ReadCheckpointReport(f, opts)
	f.Close()
	if err != nil {
		return nil, err
	}
	if rep.CorruptRecords > 0 {
		sidecar := path + ".corrupt"
		var buf bytes.Buffer
		sum, _ := json.Marshal(struct {
			Source    string `json:"source"`
			Corrupt   int    `json:"corrupt_records"`
			Retained  int    `json:"retained_lines"`
			TornFinal bool   `json:"torn_final"`
		}{path, rep.CorruptRecords, len(rep.Corrupt), rep.TornFinal})
		fmt.Fprintf(&buf, "#rhckpt-quarantine%s\n", sum)
		for _, c := range rep.Corrupt {
			fmt.Fprintf(&buf, "# line %d: %s\n", c.Line, c.Reason)
			buf.Write(c.Raw)
			buf.WriteByte('\n')
		}
		if err := durable.AtomicWriteFile(sidecar, buf.Bytes(), 0o644); err != nil {
			return nil, fmt.Errorf("campaign: writing quarantine sidecar: %w", err)
		}
		rep.QuarantinePath = sidecar
	}
	return rep, nil
}

// CompactCheckpointFile rewrites path as a fresh v2 checkpoint
// holding one line per surviving record (duplicates resolved by the
// resume precedence rule, corrupt lines quarantined to the sidecar,
// torn tail dropped), published atomically so a crash mid-compaction
// leaves the original file intact. The spec is needed to stamp a v2
// header when path is a headerless v1 file; a v2 file keeps its own
// header, which must match spec when one is given.
func CompactCheckpointFile(path string, spec *Spec) (*ResumeReport, error) {
	opts := ResumeOptions{}
	if spec != nil {
		opts.ExpectSpec = spec
	}
	rep, err := LoadCheckpointReport(path, opts)
	if err != nil {
		return nil, err
	}
	if rep.Lines == 0 && len(rep.Records) == 0 {
		if _, err := os.Stat(path); os.IsNotExist(err) {
			return nil, fmt.Errorf("campaign: compact %s: no checkpoint", path)
		}
	}
	var header CheckpointHeader
	switch {
	case rep.Header != nil:
		header = *rep.Header
	case spec != nil:
		header = HeaderForSpec(*spec)
	default:
		return nil, fmt.Errorf("campaign: compact %s: v1 checkpoint has no header; the campaign spec is required to write one", path)
	}
	var buf bytes.Buffer
	cw := NewCheckpointWriter(&buf, Spec{})
	cw.header = header
	if err := cw.WriteHeader(); err != nil {
		return nil, err
	}
	if err := cw.WriteRecords(rep.Records); err != nil {
		return nil, err
	}
	if err := durable.AtomicWriteFile(path, buf.Bytes(), 0o644); err != nil {
		return nil, err
	}
	return rep, nil
}
