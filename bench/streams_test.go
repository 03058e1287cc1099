package main

import (
	"bytes"
	"errors"
	"strings"
	"testing"
)

// streamBytes renders the first n arrivals of a stream as one byte string.
func streamBytes(s stream, n int) []byte {
	var b bytes.Buffer
	for i := 0; i < n; i++ {
		rq := s.next()
		b.WriteString(rq.path)
		b.WriteByte(' ')
		b.Write(rq.body)
		b.WriteByte('\n')
	}
	return b.Bytes()
}

func TestStreamsAreSeedDeterministic(t *testing.T) {
	for name, mk := range map[string]func(int64) stream{
		"hot":  func(s int64) stream { return newHotStream(s) },
		"cold": func(s int64) stream { return newColdStream(s) },
	} {
		a, b := streamBytes(mk(7), 3000), streamBytes(mk(7), 3000)
		if !bytes.Equal(a, b) {
			t.Errorf("%s: the same seed gave different input streams", name)
		}
		if bytes.Equal(a, streamBytes(mk(8), 3000)) {
			t.Errorf("%s: seeds 7 and 8 gave the same input stream", name)
		}
	}
}

func TestStreamShapes(t *testing.T) {
	hot := newHotStream(1)
	if len(hot.pool) != hotPool || string(hot.pool[0].body) != `{"scenario":{}}` {
		t.Fatalf("hot pool: %d bodies, first %s", len(hot.pool), hot.pool[0].body)
	}
	ops := map[string]int{}
	cold := newColdStream(1)
	const n = 10000
	for i := 1; i <= n; i++ {
		rq := cold.next()
		if i%10 == 0 {
			if rq.path != "/v1/batch" || len(rq.items) != 4 {
				t.Fatalf("cold arrival %d: %s with %d items, want a 4-item batch", i, rq.path, len(rq.items))
			}
			continue
		}
		ops[strings.TrimPrefix(rq.path, "/v1/")]++
	}
	singles := float64(n - n/10)
	for op, want := range map[string]float64{"analyze": 0.70, "latency": 0.10, "design": 0.05, "simulate": 0.10, "place": 0.05} {
		if got := float64(ops[op]) / singles; got < want-0.02 || got > want+0.02 {
			t.Errorf("cold %s share %.3f, want %.2f", op, got, want)
		}
	}
}

// TestIdentityCatchesPlantedMismatch plants a changed byte in a repeated
// answer, in a batch line, and an in-band batch error.
func TestIdentityCatchesPlantedMismatch(t *testing.T) {
	c := newIdentity()
	a := item{op: "analyze", body: []byte(`{"scenario":{}}`)}
	l := item{op: "latency", body: []byte(`{"scenario":{"n":90}}`)}
	if err := c.check(single(a), []byte("{\"detection_prob\":0.5}\n")); err != nil {
		t.Fatal(err)
	}
	if err := c.check(single(a), []byte("{\"detection_prob\":0.5}\n")); err != nil {
		t.Fatalf("identical repeat rejected: %v", err)
	}
	if err := c.check(single(a), []byte("{\"detection_prob\":0.6}\n")); !errors.Is(err, errMismatch) {
		t.Fatalf("planted mismatch: err = %v, want errMismatch", err)
	}

	// A batch line must equal the standalone answer to its item.
	bad := batch([]item{l, a})
	if err := c.check(bad, []byte("{\"p\":[1]}\n{\"detection_prob\":0.7}\n")); !errors.Is(err, errMismatch) {
		t.Fatalf("planted batch-line mismatch: err = %v, want errMismatch", err)
	}
	if err := c.check(single(l), []byte("{\"p\":[1]}\n")); err != nil {
		t.Fatalf("standalone answer equal to its earlier batch line rejected: %v", err)
	}
	if err := c.check(batch([]item{a}), []byte("{\"error\":\"boom\"}\n")); err == nil || errors.Is(err, errMismatch) {
		t.Fatalf("in-band batch error: err = %v, want a non-mismatch failure", err)
	}
	if c.mismatches != 2 || c.compared < 3 {
		t.Errorf("mismatches %d compared %d, want 2 mismatches", c.mismatches, c.compared)
	}
}
