package main

import (
	"bytes"
	"context"
	"encoding/json"
	"strings"
	"testing"
	"time"
)

// TestSmokeAllWorkloads runs every workload at a tiny scale, traced, and
// checks that its checks pass, that every end-to-end metric is measured
// and that the layers it exercises show up in its per-layer metrics.
func TestSmokeAllWorkloads(t *testing.T) {
	ctx := context.Background()
	tiny := func(s serveSpec) serveSpec {
		s.r1, s.r2, s.lo, s.hi = 40, 80, 80, 400
		return s
	}
	cold := tiny(coldSpec)
	cold.prewarm = prewarmCold(8)
	cases := []struct {
		name   string
		run    func(rc runConfig) (*report, error)
		layers []string // per-layer metrics that must be non-zero
	}{
		{"campaign", func(rc runConfig) (*report, error) {
			return runCampaign(ctx, rc, fig9aCampaign(rc.seed, []int{60, 240}, []float64{10}, 400))
		}, []string{"detect.share", "detect.calls_per_busy_s", "sim.share", "sim.trials_per_busy_s", "detect.cache.pmfs.hit_ratio"}},
		{"degraded", func(rc runConfig) (*report, error) {
			return runCampaign(ctx, rc, degradedCampaign(rc.seed, []float64{0.1, 0.3}, 300))
		}, []string{"sim.share", "netsim.sends_per_trial", "netsim.retransmissions_per_send", "infer.declarations_per_trial"}},
		{"serve-hot", func(rc runConfig) (*report, error) {
			return runServe(ctx, rc, tiny(hotSpec))
		}, []string{"serve.handler.hit.per_busy_s", "serve.handler.batch.per_busy_s", "serve.cache.hit_ratio", "http.handler_share", "http.queue_share"}},
		{"serve-cold", func(rc runConfig) (*report, error) {
			return runServe(ctx, rc, cold)
		}, []string{"serve.handler.miss.per_busy_s", "serve.handler.simulate.per_busy_s", "serve.admitted", "sim.trials"}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			rc := runConfig{seed: 3, seconds: 300 * time.Millisecond, tr: newTracer()}
			r, err := c.run(rc)
			if err != nil {
				t.Fatal(err)
			}
			if len(r.problems) > 0 || r.failed > 0 || r.attempted == 0 {
				t.Fatalf("problems %q, %d failed of %d attempted", r.problems, r.failed, r.attempted)
			}
			for _, m := range endToEnd {
				if !(r.metrics[m.name] > 0) {
					t.Errorf("end-to-end %s = %v, want > 0", m.name, r.metrics[m.name])
				}
			}
			for _, name := range c.layers {
				if !(r.metrics[name] > 0) {
					t.Errorf("per-layer %s = %v, want > 0", name, r.metrics[name])
				}
			}

			var out bytes.Buffer
			if code := finish(&out, r, perLayer); code != 0 {
				t.Fatalf("finish exit %d:\n%s", code, out.String())
			}
			res, err := lastResult(out.Bytes())
			if err != nil {
				t.Fatal(err)
			}
			if !res.Correct || len(res.Metrics) != len(perLayer) {
				t.Fatalf("result line: correct %v with %d metrics, want true with %d", res.Correct, len(res.Metrics), len(perLayer))
			}
		})
	}
}

func TestResultLineSchema(t *testing.T) {
	r := newReport()
	r.attempted = 3
	r.metrics["p50_ms"] = 1.25
	var out bytes.Buffer
	if code := finish(&out, r, endToEnd); code != 0 {
		t.Fatalf("exit %d", code)
	}
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	var raw map[string]json.RawMessage
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &raw); err != nil {
		t.Fatal(err)
	}
	for _, k := range []string{"correct", "attempted", "failed", "metrics"} {
		if _, ok := raw[k]; !ok {
			t.Errorf("result line lacks %q", k)
		}
	}
	if len(raw) != 4 {
		t.Errorf("result line has %d keys, want exactly 4", len(raw))
	}

	r.fail("planted")
	out.Reset()
	if code := finish(&out, r, endToEnd); code != 1 || !strings.Contains(out.String(), `"correct":false`) {
		t.Errorf("a failed check: exit %d, output %s", code, out.String())
	}
}

func TestFlags(t *testing.T) {
	for _, args := range [][]string{
		{"--workload", "nope", "--seed", "1"},
		{"--workload", "campaign", "--trace", "2"},
		{"--workload", "campaign", "--seconds", "0"},
		{"--bogus"},
	} {
		var out, errb bytes.Buffer
		if code := run(args, &out, &errb); code != 2 {
			t.Errorf("%q: exit %d, want 2", args, code)
		}
		if out.Len() != 0 {
			t.Errorf("%q printed a result: %s", args, out.String())
		}
	}
}
