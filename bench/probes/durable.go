package probes

import (
	"context"
	"os"
	"path/filepath"

	"lbsq/internal/rtree"
	"lbsq/internal/storage"
	"lbsq/internal/wal"
)

// probeDurable times the write-ahead log — append, then the fsync that
// acknowledges it — and the store's checkpoint and recovery at 100k
// points, on the file system the benchmark runs on.
func probeDurable(_ context.Context, f *fixture, r *report) error {
	dir, err := os.MkdirTemp(f.work, "probe-store-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)

	log, err := wal.Create(filepath.Join(dir, "probe.wal"), 1, wal.SyncAlways)
	if err != nil {
		return err
	}
	var appendT, commit timings
	for i, q := range f.q[:fewQueries] {
		var seq uint64
		appendT.add(1, func() { seq, err = log.Append(wal.Record{Op: wal.OpInsert, ID: int64(i), X: q.X, Y: q.Y}) })
		if err != nil {
			return err
		}
		commit.add(1, func() { err = log.Commit(seq) })
		if err != nil {
			return err
		}
	}
	if err := log.Close(); err != nil {
		return err
	}
	r.ns("wal.append_ns", appendT)
	r.ns("wal.commit_fsync_ns", commit)

	storeDir := filepath.Join(dir, "store")
	st, err := storage.CreateStore(storeDir, f.tree, f.uni.Universe, storage.StoreOptions{})
	if err != nil {
		return err
	}
	var checkpoint, recover timings
	for i := 0; i < 3; i++ {
		checkpoint.add(1, func() { err = st.Checkpoint(f.tree) })
		if err != nil {
			return err
		}
	}
	if err := st.Close(); err != nil {
		return err
	}
	for i := 0; i < 3; i++ {
		var reopened *storage.Store
		var t *rtree.Tree
		recover.add(1, func() { reopened, t, _, err = storage.OpenStore(storeDir, storage.StoreOptions{}) })
		if err != nil {
			return err
		}
		_ = t
		if err := reopened.Close(); err != nil {
			return err
		}
	}
	r.msOf("storage.checkpoint_ms", checkpoint)
	r.msOf("storage.recover_ms", recover)
	return nil
}
