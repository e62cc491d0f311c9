// Replication endpoints: the leader side of the serving tier.
//
//	GET /replicate/snapshot        newest durable snapshot generation, raw
//	                               (bootstrap path for new/lagging followers)
//	GET /replicate/wal?from=N      committed WAL frames from global commit
//	                               sequence N onward, streamed live
//
// The WAL stream is a long-lived chunked response of CRC-framed batch
// payloads in the log's own frame encoding (see mutate.WriteFrameTo). The
// handler tails the log through a replication cursor — reading committed
// history lock-free while the writer appends — and parks on the database's
// commit broadcast between frames, so a commit reaches the wire within one
// scheduling quantum, not a poll interval. A checkpoint truncating the log
// mid-stream rebinds the cursor transparently while the follower's position
// is still in the new log, and otherwise ends the stream; the follower
// reconnects, learns its position is gone (410), and bootstraps from the
// snapshot endpoint instead.
package server

import (
	"context"
	"errors"
	"fmt"
	"io"
	"net/http"
	"os"
	"strconv"
	"time"

	"repro/internal/core"
	"repro/internal/mutate"
)

// seqHeader carries replication positions over HTTP: the commit token a
// mutation returns, the position a read demands, and the position a read
// was served at.
const seqHeader = "X-SSD-Seq"

// readSeqToken parses the request's read-your-writes token (seqHeader), 0
// when absent.
func readSeqToken(r *http.Request) (uint64, error) {
	h := r.Header.Get(seqHeader)
	if h == "" {
		return 0, nil
	}
	tok, err := strconv.ParseUint(h, 10, 64)
	if err != nil {
		return 0, fmt.Errorf("server: bad %s token %q: %w", seqHeader, h, err)
	}
	return tok, nil
}

// handleReplSnapshot streams the newest durable snapshot generation to a
// bootstrapping follower. A directory that has not checkpointed yet is
// checkpointed on the spot — the bootstrap contract is "a generation whose
// CommitSeq the follower can resume the WAL stream from".
func (s *Server) handleReplSnapshot(w http.ResponseWriter, r *http.Request) {
	if !s.admit(w) {
		return
	}
	defer s.inflight.Done()
	path, gen, ok := s.db.SnapshotFile()
	if !ok {
		if _, err := s.db.Checkpoint(); err != nil {
			httpError(w, http.StatusInternalServerError,
				fmt.Errorf("server: cutting bootstrap snapshot: %w", err))
			return
		}
		if path, gen, ok = s.db.SnapshotFile(); !ok {
			httpError(w, http.StatusInternalServerError,
				fmt.Errorf("server: no snapshot generation after checkpoint"))
			return
		}
	}
	f, err := os.Open(path)
	if err != nil {
		httpError(w, http.StatusInternalServerError, err)
		return
	}
	defer f.Close()
	// The open handle keeps the bytes alive even if a concurrent checkpoint
	// prunes this generation; a generation file is never rewritten in place.
	w.Header().Set("Content-Type", "application/octet-stream")
	w.Header().Set("X-SSD-Generation", fmt.Sprint(gen))
	w.WriteHeader(http.StatusOK)
	if n, err := io.Copy(w, f); err == nil {
		obsReplSnapshotsShipped.Inc()
		obsReplSnapshotBytes.Add(n)
	}
}

// replPollInterval bounds how long a parked WAL stream goes without
// re-checking for a cursor rebind (checkpoint truncation): commits wake the
// stream through the database's broadcast, truncations only move files.
const replPollInterval = 250 * time.Millisecond

// handleReplWAL streams committed batch frames from ?from=N onward and then
// tails the log live until the client disconnects or the server shuts down.
//
// Every unbounded loop here parks on the request context (and the server's
// replication stop latch), so a gone follower costs at most one poll
// interval.
//
//ssd:ctxpoll
func (s *Server) handleReplWAL(w http.ResponseWriter, r *http.Request) {
	if !s.admit(w) {
		return
	}
	// Long-lived stream: leave the drain gate immediately (Shutdown must
	// not wait for followers) and rely on replStop to end the tail loop.
	s.inflight.Done()

	from, err := strconv.ParseUint(r.URL.Query().Get("from"), 10, 64)
	if err != nil {
		httpError(w, http.StatusBadRequest, fmt.Errorf("server: bad from position: %w", err))
		return
	}
	ctx := r.Context()
	cur, leaderSeq, err := s.db.ReplCursor(from)
	if err != nil {
		if errors.Is(err, core.ErrReplGone) {
			w.Header().Set(seqHeader, fmt.Sprint(leaderSeq))
			httpError(w, http.StatusGone,
				fmt.Errorf("server: position %d already checkpointed away; bootstrap from /replicate/snapshot", from))
			return
		}
		httpError(w, http.StatusInternalServerError, err)
		return
	}
	defer func() { cur.Close() }()

	obsReplStreams.Add(1)
	defer obsReplStreams.Add(-1)
	w.Header().Set("Content-Type", "application/x-ssd-walstream")
	w.Header().Set(seqHeader, fmt.Sprint(leaderSeq))
	w.Header().Set("X-SSD-From", fmt.Sprint(from))
	w.WriteHeader(http.StatusOK)
	flusher, _ := w.(http.Flusher)
	// Flush the headers now: the follower counts as connected once its
	// request returns, which must not wait for the leader's next commit.
	if flusher != nil {
		flusher.Flush()
	}

	pos := from // global sequence of the next frame to ship
	for {
		if ctx.Err() != nil {
			return
		}
		frame, err := cur.Next()
		switch {
		case err == nil:
			if err := mutate.WriteFrameTo(w, frame); err != nil {
				return // client went away mid-frame
			}
			if flusher != nil {
				flusher.Flush()
			}
			pos++
			obsReplFramesShipped.Inc()
			continue
		case errors.Is(err, mutate.ErrNoFrame):
			// Caught up. Park until the next commit (or a poll tick, which
			// exists to notice truncations — those don't broadcast).
			if !s.waitCommit(ctx, pos) {
				return
			}
		case errors.Is(err, mutate.ErrCursorRebound):
			// A checkpoint truncated the log. If our position survived into
			// the new log, swap cursors and keep streaming; otherwise the
			// follower must bootstrap — end the stream and let it reconnect.
			cur.Close()
			next, _, err := s.db.ReplCursor(pos)
			if err != nil {
				return
			}
			cur = next
		default:
			s.log.Error("replication stream read failed", "pos", pos, "err", err)
			return
		}
	}
}

// waitCommit parks a caught-up replication stream until the database's
// commit position passes pos, a poll tick elapses, the request ends, or the
// server shuts down. It reports false when the stream should end.
func (s *Server) waitCommit(ctx context.Context, pos uint64) bool {
	if s.db.CommitSeq() > pos {
		return true // already ahead; the cursor just needs another read
	}
	t := time.NewTimer(replPollInterval)
	defer t.Stop()
	select {
	case <-ctx.Done():
		return false
	case <-s.replStop:
		return false
	case <-s.db.SeqChanged():
		return true
	case <-t.C:
		return true
	}
}
