package fabric

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"testing"
)

// FuzzScanRows feeds arbitrary response bytes to the shard row scanner.
// Every outcome must be a transport error, a point error inside the
// shard, or exactly one row per value with consecutive indexes — never a
// panic and never a partial row set that could reach the ledger.
func FuzzScanRows(f *testing.F) {
	f.Add([]byte("{\"hb\":true}\n{\"index\":4,\"n\":60}\n{\"hb\":true}\n{\"index\":5,\"n\":80}\n"), 4, uint8(2), false)
	f.Add([]byte("{\"index\":0,\"n\":60}\n{\"index\":1,\"n\""), 0, uint8(2), false)
	f.Add([]byte("{\"index\":1}\n{\"index\":0}\n"), 0, uint8(2), false)
	f.Add([]byte("{\"index\":7,\"error\":\"N = -1\"}\n{\"index\":8,\"skipped\":true}\n"), 7, uint8(2), false)
	f.Add([]byte("{\"index\":7,\"error\":\"N = -1\"}\n{\"index\":8}\n"), 7, uint8(2), true)
	f.Add(append(append([]byte(`{"index":0,"pad":"`), bytes.Repeat([]byte("x"), maxLineBytes)...), "\"}\n"...), 0, uint8(1), false)
	f.Fuzz(func(t *testing.T, body []byte, start int, n uint8, keepGoing bool) {
		c := &client{}
		values := make([]float64, n)
		lines, err := c.scanRows(c.newWatchdog(context.Background()), bytes.NewReader(body), keepGoing, start, values)
		if err != nil {
			if lines != nil {
				t.Fatalf("error %v came with %d rows", err, len(lines))
			}
			var te *transportError
			var pe *pointError
			switch {
			case errors.As(err, &te):
			case errors.As(err, &pe):
				if keepGoing || pe.index < start || pe.index-start >= len(values) {
					t.Fatalf("point error %v outside shard [%d, %d) or under keep-going", err, start, start+len(values))
				}
			default:
				t.Fatalf("error %v is neither a transport nor a point error", err)
			}
			return
		}
		if len(lines) != len(values) {
			t.Fatalf("%d rows for %d values", len(lines), len(values))
		}
		for i, line := range lines {
			var p rowProbe
			if err := json.Unmarshal(line, &p); err != nil || p.HB || p.Index == nil || *p.Index != start+i {
				t.Fatalf("row %d = %q, want index %d (err %v)", i, line, start+i, err)
			}
		}
	})
}
