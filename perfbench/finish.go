package main

import (
	"bytes"
	"context"
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"time"

	"repro/internal/bisim"
	"repro/internal/core"
	"repro/internal/ssd"
	"repro/internal/storage"
)

// recoveryOpens is how many times recovery is timed; recovery_s is the
// median.
const recoveryOpens = 3

// finish is what write-replicated measures and checks after its window.
type finish struct {
	recovery         []float64 // seconds per OpenPath of the leader's directory
	replayed         int       // LastRecovery().Replayed of the last open
	walBytesPerWrite float64
	checkpointBytes  int64    // newest snapshot generation on the leader
	dirBytes         int64    // leader + follower directories
	checks           int      // identity and recovery checks made
	errs             []string // the checks that failed
}

// canonical is the byte image of g's canonical form: two graphs denote the
// same value exactly when their images are equal.
func canonical(g *ssd.Graph) []byte { return storage.Encode(bisim.Canonicalize(g)) }

// finishWrites cuts a checkpoint on the leader, commits a fixed tail of
// recoveryTail entries past it, and checks that leader and follower hold
// the same value at the final position. It then stops the system and times
// core.OpenPath on the leader's directory, which must replay exactly the
// tail and recover the same value again.
func finishWrites(s *system, seed int64) (finish, error) {
	var f finish
	check := func(ok bool, format string, args ...any) {
		f.checks++
		if !ok {
			f.errs = append(f.errs, fmt.Sprintf(format, args...))
		}
	}
	if _, err := s.leader.Checkpoint(); err != nil {
		return f, err
	}
	wal0 := s.leader.WALSize()
	for k := 0; k < recoveryTail; k++ {
		who := s.cat.cast[k%len(s.cat.cast)]
		script := addScript(s.cat.root, fmt.Sprintf("Tail %d.%d", seed, k), strconv.Quote(who), strconv.Quote(who))
		if _, err := s.leader.MutateScriptSeq(script); err != nil {
			return f, fmt.Errorf("recovery tail commit %d: %w", k, err)
		}
	}
	f.walBytesPerWrite = float64(s.leader.WALSize()-wal0) / recoveryTail
	final := s.leader.CommitSeq()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := s.follower.WaitForSeq(ctx, final); err != nil {
		return f, fmt.Errorf("follower did not reach the final position %d: %w", final, err)
	}
	want := canonical(s.leader.Graph())
	check(bytes.Equal(canonical(s.follower.Graph()), want), "follower differs from the leader at seq %d", final)
	if path, _, ok := s.leader.SnapshotFile(); ok {
		if fi, err := os.Stat(path); err == nil {
			f.checkpointBytes = fi.Size()
		}
	}
	s.stop()
	f.dirBytes = dirBytes(s.root)

	for r := 0; r < recoveryOpens; r++ {
		start := time.Now()
		db, err := core.OpenPath(s.leaderDir)
		if err != nil {
			return f, fmt.Errorf("recovering %s: %w", filepath.Base(s.leaderDir), err)
		}
		f.recovery = append(f.recovery, time.Since(start).Seconds())
		f.replayed = db.LastRecovery().Replayed
		check(f.replayed == recoveryTail, "recovery replayed %d commits, want %d", f.replayed, recoveryTail)
		check(db.CommitSeq() == final, "recovered at seq %d, want %d", db.CommitSeq(), final)
		if r == 0 {
			check(bytes.Equal(canonical(db.Graph()), want), "recovered leader differs from the live leader at seq %d", final)
		}
		if err := db.CloseWAL(); err != nil {
			return f, err
		}
	}
	return f, nil
}
