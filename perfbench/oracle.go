package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"hash"
	"hash/fnv"
	"maps"
	"sort"
	"strconv"
	"sync"

	"repro/internal/core"
	"repro/internal/ssd"
)

// answer is what a read returned, reduced to something comparable: the row
// count and an order-insensitive digest of the rows. Each row is digested
// by its column names and values, not its bytes, so an encoder that writes
// the same rows differently still matches.
type answer struct {
	rows   int
	digest uint64
	first  map[string]string // the first row, for checks on one-row answers
}

// digester hashes rows without allocating per row: the client digests
// every row of the run inside the timed window, in the server's process.
type digester struct {
	keys []string
	buf  []byte
	h    hash.Hash64
}

func (d *digester) row(row map[string]string) uint64 {
	d.keys = d.keys[:0]
	for k := range row {
		d.keys = append(d.keys, k)
	}
	sort.Strings(d.keys)
	d.buf = d.buf[:0]
	for _, k := range d.keys {
		d.buf = append(append(append(d.buf, k...), 0), row[k]...)
		d.buf = append(d.buf, 0)
	}
	if d.h == nil {
		d.h = fnv.New64a()
	}
	d.h.Reset()
	d.h.Write(d.buf)
	return d.h.Sum64()
}

func (a *answer) add(d *digester, row map[string]string) {
	if a.rows == 0 {
		a.first = maps.Clone(row)
	}
	a.rows++
	a.digest += d.row(row)
}

// parseNDJSON reads a /query response body: row lines, then exactly one
// terminal status line that must report success and the same row count.
func parseNDJSON(body []byte) (answer, error) {
	var (
		a    answer
		d    digester
		line struct {
			Row   map[string]string `json:"row"`
			Done  bool              `json:"done"`
			Rows  int               `json:"rows"`
			Error string            `json:"error"`
		}
	)
	line.Row = map[string]string{}
	sc := bufio.NewScanner(bytes.NewReader(body))
	sc.Buffer(make([]byte, 64<<10), 1<<20)
	done := false
	for sc.Scan() {
		if done {
			return a, fmt.Errorf("data after the status line")
		}
		clear(line.Row) // reused: Unmarshal fills the existing map
		line.Done, line.Rows, line.Error = false, 0, ""
		if err := json.Unmarshal(sc.Bytes(), &line); err != nil {
			return a, fmt.Errorf("bad NDJSON line: %w", err)
		}
		switch {
		case len(line.Row) > 0:
			a.add(&d, line.Row)
		case line.Error != "":
			return a, fmt.Errorf("stream error: %s", line.Error)
		case !line.Done:
			return a, fmt.Errorf("status line without done")
		case line.Rows != a.rows:
			return a, fmt.Errorf("status line reports %d rows, stream had %d", line.Rows, a.rows)
		default:
			done = true
		}
	}
	if err := sc.Err(); err != nil {
		return a, err
	}
	if !done {
		return a, fmt.Errorf("stream ended without a status line")
	}
	return a, nil
}

// reqParams turns a request's parameter literal into the core.Param the
// server would bind for it.
func reqParams(r readReq) ([]core.Param, error) {
	name := map[string]string{shapePoint: "title", shapeCast: "who", shapePath: "kind"}[r.shape]
	l, err := core.ParseLabelLiteral(r.param)
	if err != nil {
		return nil, err
	}
	return []core.Param{{Name: name, Value: l}}, nil
}

func shapeQuery(shape string) string {
	return map[string]string{shapePoint: qPoint, shapeCast: qCast, shapePath: qPath}[shape]
}

// directAnswer runs r through Stmt.Query, scanning every column as a
// string the way the server does for unrendered rows.
func directAnswer(stmt *core.Stmt, r readReq) (answer, error) {
	var a answer
	params, err := reqParams(r)
	if err != nil {
		return a, err
	}
	rows, err := stmt.Query(context.Background(), params...)
	if err != nil {
		return a, err
	}
	defer rows.Close()
	cols := rows.Columns()
	vals := make([]string, len(cols))
	dests := make([]any, len(cols))
	for i := range vals {
		dests[i] = &vals[i]
	}
	var d digester
	row := make(map[string]string, len(cols))
	for rows.Next() {
		if err := rows.Scan(dests...); err != nil {
			return a, err
		}
		for i, c := range cols {
			row[c] = vals[i]
		}
		a.add(&d, row)
	}
	return a, rows.Err()
}

// buildOracle answers every distinct request of reqs directly against db,
// on workers goroutines. db must hold the same graph the server serves;
// it is a separate handle so the served database's statement cache and
// plan pools start cold.
func buildOracle(db *core.Database, reqs []readReq, workers int) (map[string]answer, error) {
	stmts := map[string]*core.Stmt{}
	for _, sh := range shapes {
		stmt, err := db.Prepare(shapeQuery(sh))
		if err != nil {
			return nil, err
		}
		stmts[sh] = stmt // safe for concurrent use
	}
	distinct := map[string]readReq{}
	for _, r := range reqs {
		distinct[r.key()] = r
	}
	todo := make(chan readReq, len(distinct))
	for _, r := range distinct {
		todo <- r
	}
	close(todo)
	out := make(map[string]answer, len(distinct))
	var (
		mu       sync.Mutex
		firstErr error
		wg       sync.WaitGroup
	)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for r := range todo {
				a, err := directAnswer(stmts[r.shape], r)
				mu.Lock()
				if err != nil && firstErr == nil {
					firstErr = fmt.Errorf("oracle %s %s: %w", r.shape, r.param, err)
				}
				out[r.key()] = a
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	return out, firstErr
}

// checkWriteRead verifies the read that follows a write: exactly one row,
// and for an edited entry, the Movie node that was edited.
func checkWriteRead(w write, a answer) error {
	if a.rows != 1 {
		return fmt.Errorf("read after %s write returned %d rows, want 1", w.kind, a.rows)
	}
	if w.prod != ssd.InvalidNode && a.first["M"] != strconv.Itoa(int(w.prod)) {
		return fmt.Errorf("read after %s write returned movie %s, want %d", w.kind, a.first["M"], w.prod)
	}
	return nil
}
