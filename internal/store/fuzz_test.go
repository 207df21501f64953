package store

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"rowhammer/internal/durable"
)

// fuzzPayloads are the artifact files every FuzzStoreReload store
// holds, so index lines naming them can load.
var fuzzPayloads = map[string][]byte{
	"c1": []byte("{\"experiment\":\"fig5\"}\n"),
	"c2": []byte("{\"kind\":\"ber\"}\n"),
}

// FuzzStoreReload writes arbitrary bytes as a store's index.jsonl and
// reopens the store. Open must never panic, and every entry it loads
// must come from an index line that passes its CRC trailer, carry a
// valid ID, and match its payload's size and CRC.
func FuzzStoreReload(f *testing.F) {
	dir := f.TempDir()
	s, _, err := Open(dir)
	if err != nil {
		f.Fatal(err)
	}
	if _, err := s.Put(Meta{ID: "c1", Experiment: "fig5", Kind: "exp:fig5", Schema: 1, Mfrs: []string{"A"}, Seed: 7, Temps: []float64{50, 55}}, fuzzPayloads["c1"]); err != nil {
		f.Fatal(err)
	}
	if _, err := s.Put(Meta{ID: "c2", Kind: "ber"}, fuzzPayloads["c2"]); err != nil {
		f.Fatal(err)
	}
	s.Close()
	index, err := os.ReadFile(filepath.Join(dir, "index.jsonl"))
	if err != nil {
		f.Fatal(err)
	}
	f.Add(index)
	f.Add(index[:len(index)/2])
	f.Add(append(bytes.Clone(index), index...))
	f.Add(durable.AppendCRCLine(nil, []byte(`{"id":"../c1","bytes":21,"crc":1}`)))
	f.Add([]byte("{}\n\n{\"id\":\"c1\"}\n"))
	f.Fuzz(func(t *testing.T, index []byte) {
		dir := t.TempDir()
		if err := os.MkdirAll(filepath.Join(dir, "artifacts"), 0o755); err != nil {
			t.Fatal(err)
		}
		for id, p := range fuzzPayloads {
			if err := os.WriteFile(filepath.Join(dir, "artifacts", id+".json"), p, 0o644); err != nil {
				t.Fatal(err)
			}
		}
		if err := os.WriteFile(filepath.Join(dir, "index.jsonl"), index, 0o644); err != nil {
			t.Fatal(err)
		}
		s, rep, err := Open(dir)
		if err != nil {
			t.Fatalf("Open: %v", err)
		}
		defer s.Close()
		loaded := s.List(Query{})
		if len(loaded) != rep.Loaded {
			t.Fatalf("report says %d loaded, store lists %d", rep.Loaded, len(loaded))
		}
		for _, m := range loaded {
			if err := validID(m.ID); err != nil {
				t.Fatalf("loaded entry with invalid ID: %v", err)
			}
			if _, _, err := s.Get(m.ID); err != nil {
				t.Fatalf("loaded entry %q fails its payload check: %v", m.ID, err)
			}
			if !fromCRCLine(index, m) {
				t.Fatalf("loaded entry %+v comes from no line passing its CRC", m)
			}
		}
	})
}

// fromCRCLine reports whether some line of index passes its CRC
// trailer and decodes to m.
func fromCRCLine(index []byte, m Meta) bool {
	for _, line := range bytes.Split(index, []byte("\n")) {
		payload, ok := durable.SplitCRCLine(line)
		if !ok {
			continue
		}
		var got Meta
		if json.Unmarshal(payload, &got) == nil && reflect.DeepEqual(got, m) {
			return true
		}
	}
	return false
}
