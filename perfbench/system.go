package main

import (
	"context"
	"fmt"
	"log/slog"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"repro/internal/core"
	"repro/internal/server"
	"repro/internal/ssd"
)

// Workload parameters. They are fixed here, not flags: every run of a
// workload offers the same load to the same size of database, and only the
// seed changes which data and which requests.
const (
	entries = 5000 // movie entries: ~58k nodes

	// readRate is the offered /query rate of read-mix and read-paged, and
	// writeRate the offered /mutate rate of write-replicated, each write
	// followed by one tokened read. A write and its read cost ~50 ms of
	// CPU, so on 2 vCPUs writeRate keeps the tier near half load, with
	// room for a slower machine before the backlog grows. At 21/s a
	// 50-second window gives the 1000 samples a p99 needs.
	readRate  = 21
	writeRate = 21

	// poolBytes is read-paged's buffer pool: about 1/8 of the ~1.1 MB page
	// image of a 5k-entry database, so the working set does not fit.
	poolBytes = 128 << 10

	// ckptMaxWAL is the server's WAL-size checkpoint trigger on leader and
	// follower: several checkpoints per run, none during the recovery tail.
	ckptMaxWAL = 32 << 10

	// recoveryTail is K, the commits the leader's directory holds past its
	// newest checkpoint when recovery is timed.
	recoveryTail = 100

	// A run builds its system at least minSetups times and, while the
	// builds have taken less than setupBudget in all, again, up to
	// maxSetups; setup_s is their median. Quick set-ups repeat more, so
	// their median is as steady as a slow one's.
	minSetups   = 7
	maxSetups   = 25
	setupBudget = 2 * time.Second
)

// maxConns is the client connection limit per target: the machine's CPU
// count, at most 2.
func maxConns() int { return min(2, runtime.NumCPU()) }

// system is one running instance of a workload's serving tier.
type system struct {
	kind string
	tr   *tracer

	seedGraph *ssd.Graph     // the generated database
	twin      *core.Database // in-memory handle over seedGraph: oracle and replay start
	cat       catalog

	target string         // base URL of the server or router the client drives
	served *core.Database // where reads are answered (follower for write-replicated)

	leader, follower *core.Database
	follow           *server.Follower
	leaderDir        string
	imageBytes       int64 // read-paged page image size

	root    string // this system's directory under the run's workdir
	closers []func()
}

// stop shuts the system down in reverse order of construction. The
// directories stay for recovery measurement; remove deletes them.
func (s *system) stop() {
	for i := len(s.closers) - 1; i >= 0; i-- {
		s.closers[i]()
	}
	s.closers = nil
}

func (s *system) remove() { os.RemoveAll(s.root) }

// serve starts an HTTP server for h on a loopback port and returns its base
// URL. With tracing on, every request carrying the benchmark's headers gets
// a span named name.
func (s *system) serve(name string, h http.Handler) (string, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	hs := &http.Server{Handler: s.tr.middleware(name, h)}
	done := make(chan struct{})
	go func() {
		defer close(done)
		hs.Serve(ln)
	}()
	s.closers = append(s.closers, func() {
		hs.Close()
		<-done
	})
	return "http://" + ln.Addr().String(), nil
}

// newServer wraps db in a server.Server whose drain runs at stop.
func (s *system) newServer(db *core.Database, cfg server.Config) *server.Server {
	srv := server.New(db, cfg)
	s.closers = append(s.closers, func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		srv.Shutdown(ctx)
	})
	return srv
}

func (s *system) closeWAL(db *core.Database) {
	s.closers = append(s.closers, func() { db.CloseWAL() })
}

// setUp builds and starts a workload's system from seed and returns it
// with the time it took: dataset generation, durable directories, page
// image, follower bootstrap and listeners, up to the moment the first
// request could be due.
func setUp(kind string, seed int64, dir string, tr *tracer) (*system, time.Duration, error) {
	start := time.Now()
	s := &system{kind: kind, tr: tr, root: dir}
	var err error
	switch kind {
	case "read-mix":
		err = s.upReadMix(seed)
	case "read-paged":
		err = s.upReadPaged(seed)
	case "write-replicated":
		err = s.upWriteReplicated(seed)
	default:
		err = fmt.Errorf("unknown workload %q", kind)
	}
	elapsed := time.Since(start)
	if err != nil {
		s.stop()
		s.remove()
		return nil, 0, err
	}
	return s, elapsed, nil
}

func (s *system) generate(seed int64) {
	s.seedGraph = movieGraph(entries, seed)
	s.twin = core.FromGraph(s.seedGraph)
	s.cat = newCatalog(s.seedGraph)
}

// upReadMix serves the in-memory database from one server.
func (s *system) upReadMix(seed int64) error {
	s.generate(seed)
	s.served = core.FromGraph(s.seedGraph)
	url, err := s.serve("server.handle", s.newServer(s.served, server.Config{}).Handler())
	s.target = url
	return err
}

// upReadPaged serves the same database from a durable directory opened
// out-of-core, with a buffer pool far smaller than the page image.
func (s *system) upReadPaged(seed int64) error {
	s.generate(seed)
	dir := filepath.Join(s.root, "paged")
	if err := s.twin.SavePath(dir); err != nil {
		return err
	}
	db, err := core.OpenPathOptions(dir, core.Options{PoolBytes: poolBytes})
	if err != nil {
		return err
	}
	s.closeWAL(db)
	s.served, s.leaderDir = db, dir
	matches, _ := filepath.Glob(filepath.Join(dir, "pages-*"))
	for _, m := range matches {
		if fi, err := os.Stat(m); err == nil {
			s.imageBytes = max(s.imageBytes, fi.Size())
		}
	}
	url, err := s.serve("server.handle", s.newServer(db, server.Config{}).Handler())
	s.target = url
	return err
}

// upWriteReplicated starts a durable leader, one follower bootstrapped from
// it over HTTP, and a router in front of both. The seed database's
// DataGuide is built before it is saved, so the leader restores it and
// maintains it on commit as long as the guide's incremental path allows.
func (s *system) upWriteReplicated(seed int64) error {
	s.generate(seed)
	s.twin.DataGuide()
	s.leaderDir = filepath.Join(s.root, "leader")
	if err := s.twin.SavePath(s.leaderDir); err != nil {
		return err
	}
	leader, err := core.OpenPath(s.leaderDir)
	if err != nil {
		return err
	}
	s.leader = leader
	s.closeWAL(leader)
	cfg := server.Config{CheckpointMaxWAL: ckptMaxWAL, Role: "leader"}
	leaderURL, err := s.serve("server.handle", s.newServer(leader, cfg).Handler())
	if err != nil {
		return err
	}

	fdir := filepath.Join(s.root, "follower")
	client := &http.Client{Transport: newTransport(2)}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := server.BootstrapFollower(ctx, client, leaderURL, fdir); err != nil {
		return fmt.Errorf("bootstrapping follower: %w", err)
	}
	fdb, err := core.OpenPath(fdir)
	if err != nil {
		return err
	}
	s.follower, s.served = fdb, fdb
	s.closeWAL(fdb)
	quiet := slog.New(slog.NewTextHandler(os.Stderr, &slog.HandlerOptions{Level: slog.LevelWarn}))
	s.follow = server.NewFollower(fdb, leaderURL, quiet)
	fcfg := server.Config{
		CheckpointMaxWAL: ckptMaxWAL, ReadOnly: true, Role: "follower",
		LeaderURL: leaderURL, Follower: s.follow,
	}
	followerURL, err := s.serve("server.handle", s.newServer(fdb, fcfg).Handler())
	if err != nil {
		return err
	}
	runCtx, stopRun := context.WithCancel(context.Background())
	runDone := make(chan struct{})
	go func() {
		defer close(runDone)
		s.follow.Run(runCtx)
	}()
	s.closers = append(s.closers, func() {
		stopRun()
		<-runDone
	})
	rt := server.NewRouter(server.RouterConfig{
		Leader: leaderURL, Replicas: []string{followerURL},
		Client: &http.Client{Transport: newTransport(4)}, Logger: quiet,
	})
	s.closers = append(s.closers, rt.Stop)
	s.target, err = s.serve("router.handle", rt.Handler())
	return err
}

// newTransport is a loopback HTTP transport allowing conns connections per
// host, with no proxy and no compression.
func newTransport(conns int) *http.Transport {
	return &http.Transport{
		MaxConnsPerHost:     conns,
		MaxIdleConnsPerHost: conns,
		DisableCompression:  true,
		IdleConnTimeout:     time.Minute,
	}
}
