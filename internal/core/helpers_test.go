package core

import (
	"context"
	"fmt"
	"sort"
	"testing"

	"repro/internal/datalog"
	"repro/internal/ssd"
)

// Test helpers over the statement entry point: each prepares its text
// through the statement cache (PrepareCached), so repeated and concurrent
// calls share one Stmt, and drains the statement the way a caller would.

// execQuery prepares a select-from-where query and executes it to its
// result database. Text that sniffs as another language is an error.
func execQuery(db *Database, src string) (*Database, error) {
	s, err := db.PrepareCached(src)
	if err != nil {
		return nil, err
	}
	if s.Lang() != LangQuery {
		return nil, fmt.Errorf("%q is a %s statement, not a query", src, s.Lang())
	}
	return s.Exec(context.Background())
}

// execUnQL prepares cmd as a `unql:` restructuring statement and executes
// it to the restructured database.
func execUnQL(t testing.TB, db *Database, cmd string) *Database {
	t.Helper()
	s, err := db.PrepareCached("unql: " + cmd)
	if err != nil {
		t.Fatal(err)
	}
	res, err := s.Exec(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// pathNodes runs src as a `path:` statement from the root and returns the
// matching nodes, sorted.
func pathNodes(db *Database, src string) ([]ssd.NodeID, error) {
	s, err := db.PrepareCached("path: " + src)
	if err != nil {
		return nil, err
	}
	rows, err := s.Query(context.Background())
	if err != nil {
		return nil, err
	}
	defer rows.Close()
	var out []ssd.NodeID
	for rows.Next() {
		var n ssd.NodeID
		if err := rows.Scan(&n); err != nil {
			return nil, err
		}
		out = append(out, n)
	}
	if err := rows.Err(); err != nil {
		return nil, err
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out, nil
}

// pathIDs is pathNodes for sources that must be valid.
func pathIDs(t testing.TB, db *Database, src string) []ssd.NodeID {
	t.Helper()
	ids, err := pathNodes(db, src)
	if err != nil {
		t.Fatal(err)
	}
	return ids
}

// datalogTuples runs src as a `datalog:` statement and groups the streamed
// tuples by relation name.
func datalogTuples(db *Database, src string) (map[string][]datalog.Tuple, error) {
	s, err := db.PrepareCached("datalog: " + src)
	if err != nil {
		return nil, err
	}
	rows, err := s.Query(context.Background())
	if err != nil {
		return nil, err
	}
	defer rows.Close()
	out := map[string][]datalog.Tuple{}
	for rows.Next() {
		var rel string
		var tup datalog.Tuple
		if err := rows.Scan(&rel, &tup); err != nil {
			return nil, err
		}
		out[rel] = append(out[rel], tup)
	}
	return out, rows.Err()
}
