package shard_test

import (
	"os"
	"path/filepath"
	"testing"

	"rowhammer/internal/shard"
)

// FuzzReadFence feeds arbitrary bytes to the fence decoder. Every
// shard append reads this file, and it sits on a shared directory, so
// it is a trust boundary. Invariants: no input panics, and every token
// the decoder accepts round-trips through RaiseFence into a fresh
// fence file and back. The committed corpus under testdata/fuzz holds
// a valid line, a torn line, a bad CRC, a wrong version and an empty
// file.
func FuzzReadFence(f *testing.F) {
	dir := f.TempDir()
	path, fresh := filepath.Join(dir, "in.fence"), filepath.Join(dir, "out.fence")
	f.Fuzz(func(t *testing.T, data []byte) {
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		token, err := shard.ReadFence(path)
		if err != nil {
			return
		}
		if err := os.Remove(fresh); err != nil && !os.IsNotExist(err) {
			t.Fatal(err)
		}
		if err := shard.RaiseFence(fresh, token); err != nil {
			t.Fatalf("accepted token %d does not raise a fresh fence: %v", token, err)
		}
		if got, err := shard.ReadFence(fresh); err != nil || got != token {
			t.Fatalf("token %d round-tripped to (%d, %v)", token, got, err)
		}
	})
}
