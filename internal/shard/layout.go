package shard

import (
	"fmt"
	"path/filepath"
)

// Shard directory layout. One campaign's distributed run lives in a
// single directory:
//
//	<dir>/spec.json               wire spec the workers were spawned with
//	<dir>/coordinator.lock        one coordinator per directory (flock)
//	<dir>/shard-0003.ckpt         shard 3's v2 checkpoint (shard-stamped header)
//	<dir>/shard-0003.ckpt.fence   shard 3's fencing high-water token
//
// Checkpoint names are zero-padded so shell globs and directory
// listings sort in shard order. Shard leases themselves live in the
// lease service, not in the directory; the fence file is what a
// restarted service is seeded from.

// CheckpointPath returns the shard's checkpoint path under dir.
func CheckpointPath(dir string, a Assignment) string {
	return filepath.Join(dir, fmt.Sprintf("shard-%04d.ckpt", a.Index))
}

// SpecPath returns the persisted wire-spec path under dir.
func SpecPath(dir string) string { return filepath.Join(dir, "spec.json") }

// CoordinatorLockPath returns the coordinator's lockfile path.
func CoordinatorLockPath(dir string) string { return filepath.Join(dir, "coordinator.lock") }

// CheckpointGlob matches every shard checkpoint under dir.
func CheckpointGlob(dir string) string { return filepath.Join(dir, "shard-*.ckpt") }

// CheckpointPaths lists the checkpoint paths of an n-way split.
func CheckpointPaths(dir string, n int) []string {
	out := make([]string, n)
	for i, a := range Partition(n) {
		out[i] = CheckpointPath(dir, a)
	}
	return out
}
