// The distributed work ledger: internal/checkpoint reused as the
// idempotency spine of the fabric. Every completed shard commits its raw
// NDJSON row bytes under per-point keys ("row/<global index>"), so
//
//   - a re-dispatched or hedged shard recomputes into the same slots —
//     commits verify byte-identity against what is already there, and a
//     conflicting duplicate is a hard error rather than a double count;
//   - a killed coordinator resumes from the ledger file and re-runs only
//     shards with missing rows (checkpoint's fingerprint binding refuses
//     a ledger written by a different campaign or build);
//   - the merged output is assembled from the ledger verbatim, which is
//     what makes the fleet result byte-identical to a single-machine run.
//
// Rows are stored as JSON strings (not raw messages) because the
// checkpoint file is indented JSON: a nested raw message would be
// re-indented on disk and come back with different bytes, breaking the
// byte-identity contract. A string round-trips exactly.
package fabric

import (
	"bytes"
	"fmt"
	"io"
	"sort"
	"sync"

	"github.com/groupdetect/gbd/internal/checkpoint"
)

type ledger struct {
	mu    sync.Mutex
	store *checkpoint.Store
	rows  map[int][]byte // committed NDJSON lines, no trailing newline
	n     int
}

func rowKey(i int) string { return fmt.Sprintf("row/%d", i) }

// openLedger creates (or, with resume, reopens and validates) the ledger
// file for a campaign of n points. Resumed rows are loaded eagerly so
// shard planning can skip completed work.
func openLedger(path, fingerprint string, n int, resume bool) (*ledger, error) {
	store, err := checkpoint.Open(path, fingerprint, resume)
	if err != nil {
		return nil, err
	}
	l := &ledger{store: store, rows: make(map[int][]byte), n: n}
	if resume {
		for _, k := range store.Keys() {
			var i int
			if _, err := fmt.Sscanf(k, "row/%d", &i); err != nil || rowKey(i) != k {
				return nil, fmt.Errorf("fabric: foreign key %q in ledger %s", k, path)
			}
			if i < 0 || i >= n {
				return nil, fmt.Errorf("fabric: ledger row %d outside campaign of %d points", i, n)
			}
			var line string
			if _, err := store.Get(k, &line); err != nil {
				return nil, err
			}
			l.rows[i] = []byte(line)
			fabricRowsRestored.Inc()
		}
	}
	return l, nil
}

// restored returns how many rows the ledger already holds.
func (l *ledger) restored() int {
	l.mu.Lock()
	defer l.mu.Unlock()
	return len(l.rows)
}

// missing returns the indexes with no committed row, ascending.
func (l *ledger) missing() []int {
	l.mu.Lock()
	defer l.mu.Unlock()
	var idx []int
	for i := 0; i < l.n; i++ {
		if _, ok := l.rows[i]; !ok {
			idx = append(idx, i)
		}
	}
	sort.Ints(idx)
	return idx
}

// commit records one shard's rows (global indexes start..start+len-1) and
// persists them in a single atomic checkpoint rewrite. It is idempotent:
// rows already present are verified byte-identical and skipped, so a
// duplicate commit from a retry or a hedge loser can never double-count —
// and a conflicting duplicate (same slot, different bytes) is an error,
// never a silent overwrite. It returns how many rows were new.
func (l *ledger) commit(start int, lines [][]byte) (fresh int, err error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	batch := make(map[string]any)
	for j, line := range lines {
		i := start + j
		if i < 0 || i >= l.n {
			return 0, fmt.Errorf("fabric: commit of row %d outside campaign of %d points", i, l.n)
		}
		if prev, ok := l.rows[i]; ok {
			if !bytes.Equal(prev, line) {
				return 0, fmt.Errorf("fabric: ledger conflict at point %d: a re-dispatched shard produced different bytes (%q vs %q)", i, prev, line)
			}
			continue
		}
		batch[rowKey(i)] = string(line)
	}
	if len(batch) == 0 {
		return 0, nil // pure duplicate: every row already committed
	}
	if err := l.store.PutBatch(batch); err != nil {
		return 0, err
	}
	for j, line := range lines {
		i := start + j
		if _, ok := l.rows[i]; !ok {
			l.rows[i] = append([]byte(nil), line...)
		}
	}
	return len(batch), nil
}

// complete reports whether every point has a committed row.
func (l *ledger) complete() bool {
	l.mu.Lock()
	defer l.mu.Unlock()
	return len(l.rows) == l.n
}

// writeMerged streams the campaign's rows in global index order, verbatim
// bytes plus the NDJSON newline — the byte-identical reassembly of what a
// single worker would have streamed for the whole grid.
func (l *ledger) writeMerged(w io.Writer) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	for i := 0; i < l.n; i++ {
		line, ok := l.rows[i]
		if !ok {
			return fmt.Errorf("fabric: merged output incomplete: point %d has no committed row", i)
		}
		if _, err := w.Write(line); err != nil {
			return err
		}
		if _, err := w.Write([]byte{'\n'}); err != nil {
			return err
		}
	}
	return nil
}
