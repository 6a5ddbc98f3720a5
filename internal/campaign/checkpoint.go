package campaign

import (
	"encoding/json"
	"fmt"
	"hash/fnv"
	"os"
	"path/filepath"
)

// Checkpoint format (DESIGN.md §12): a JSON snapshot of the campaign's
// merged state. Because the scheduler merges shards into a contiguous
// prefix, the whole resumable state is tiny and exact — the per-point
// aggregates over shards [0, Cursor) plus the cursor itself. Trials of
// shards past the cursor (including any that finished, wholly or in some
// blocks, out of order before a pause) are simply re-run on resume from
// their deterministic seeds, so a resumed campaign is bit-for-bit the
// campaign that was never interrupted.
//
// Snapshots are atomic: written to <path>.tmp in full, fsynced, then
// renamed over <path>. A crash mid-write leaves the previous snapshot
// intact.

// The schema tag also versions the trial-seed derivation (par.TrialSeed):
// aggregates snapshotted under one derivation cannot be continued under
// another, so changing it bumps the version. v2 = splitmix64-mixed seeds.
const checkpointSchema = "lambmesh-campaign-checkpoint/v2"

type checkpoint struct {
	Schema string `json:"schema"`
	// SpecKey fingerprints the campaign identity (grid, trials, seed,
	// shard size, k); resuming with a different spec is an error, not a
	// silent corruption.
	SpecKey string     `json:"spec_key"`
	Cursor  int64      `json:"cursor"`
	Aggs    []PointAgg `json:"aggs"`
}

// specKey fingerprints every Spec field that defines the campaign's
// results. Workers is deliberately excluded (any worker count produces the
// same results).
func specKey(spec *Spec) string {
	// Topology is canonicalized ("mesh" == "") and omitted when empty, so
	// pre-topology checkpoints keep their spec keys.
	canon := struct {
		Meshes    [][]int    `json:"meshes"`
		Models    []Model    `json:"models"`
		Procs     []ProcSpec `json:"procs"`
		Topology  string     `json:"topology,omitempty"`
		K         int        `json:"k"`
		Trials    int64      `json:"trials"`
		Seed      int64      `json:"seed"`
		ShardSize int        `json:"shard_size"`
	}{spec.Meshes, spec.Models, spec.Procs, spec.topology(), spec.K, spec.Trials, spec.Seed, spec.shardSize()}
	raw, err := json.Marshal(canon)
	if err != nil {
		panic(fmt.Sprintf("campaign: spec not marshalable: %v", err))
	}
	h := fnv.New64a()
	h.Write(raw)
	return fmt.Sprintf("%016x", h.Sum64())
}

// saveCheckpoint atomically snapshots the merged prefix state.
func saveCheckpoint(path string, spec *Spec, cursor int64, aggs []PointAgg) error {
	cp := checkpoint{
		Schema:  checkpointSchema,
		SpecKey: specKey(spec),
		Cursor:  cursor,
		Aggs:    aggs,
	}
	raw, err := json.Marshal(&cp)
	if err != nil {
		return fmt.Errorf("campaign: marshal checkpoint: %w", err)
	}
	tmp := path + ".tmp"
	f, err := os.OpenFile(tmp, os.O_WRONLY|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return fmt.Errorf("campaign: checkpoint: %w", err)
	}
	if _, err := f.Write(raw); err != nil {
		f.Close()
		os.Remove(tmp)
		return fmt.Errorf("campaign: checkpoint write: %w", err)
	}
	if err := f.Sync(); err != nil {
		f.Close()
		os.Remove(tmp)
		return fmt.Errorf("campaign: checkpoint sync: %w", err)
	}
	if err := f.Close(); err != nil {
		os.Remove(tmp)
		return fmt.Errorf("campaign: checkpoint close: %w", err)
	}
	if err := os.Rename(tmp, path); err != nil {
		os.Remove(tmp)
		return fmt.Errorf("campaign: checkpoint rename: %w", err)
	}
	return nil
}

// loadCheckpoint reads a snapshot and validates it against spec.
func loadCheckpoint(path string, spec *Spec) (*checkpoint, error) {
	if path == "" {
		return nil, fmt.Errorf("campaign: -resume needs a checkpoint path")
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("campaign: resume: %w", err)
	}
	var cp checkpoint
	if err := json.Unmarshal(raw, &cp); err != nil {
		return nil, fmt.Errorf("campaign: %s: not a valid checkpoint: %w", filepath.Base(path), err)
	}
	if cp.Schema != checkpointSchema {
		return nil, fmt.Errorf("campaign: %s: schema %q, want %s", filepath.Base(path), cp.Schema, checkpointSchema)
	}
	if key := specKey(spec); cp.SpecKey != key {
		return nil, fmt.Errorf("campaign: %s was recorded for a different campaign (spec key %s, this spec %s)", filepath.Base(path), cp.SpecKey, key)
	}
	if cp.Cursor < 0 || cp.Cursor > spec.TotalShards() {
		return nil, fmt.Errorf("campaign: %s: cursor %d outside [0,%d]", filepath.Base(path), cp.Cursor, spec.TotalShards())
	}
	if len(cp.Aggs) != spec.Points() {
		return nil, fmt.Errorf("campaign: %s: %d point aggregates, spec has %d points", filepath.Base(path), len(cp.Aggs), spec.Points())
	}
	return &cp, nil
}
