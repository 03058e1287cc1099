package experiments

import (
	"crypto/sha256"
	"encoding/hex"
	"testing"
)

// TestFaultTablesPinned pins the rendered fault-extension tables byte for
// byte in quick mode at small trial counts: any drift in the sweep, the
// simulator's fault path, the analysis mirror or the rendering changes a
// digest.
func TestFaultTablesPinned(t *testing.T) {
	for _, tc := range []struct {
		name   string
		run    func(Options) (*Table, error)
		trials int
		sha    string
	}{
		{"degradation", Degradation, 200, "546977665ca1ed5263760bbc62fd59e3ae985fd39aee776521b5324da40d283d"},
		{"lossdeg", LossDegradation, 100, "7ed1a153e0b9ea17f736425e06f6fd655e3b6e39ce03d5decfc86d0b1bd6b908"},
		{"inference", InferenceAccuracy, 100, "424b3573e027652457427acc4a715f27aeb86cefb656718821a8d37ebc07363c"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			tbl, err := tc.run(Options{Quick: true, Trials: tc.trials, Seed: 1})
			if err != nil {
				t.Fatal(err)
			}
			out := tbl.Render()
			sum := sha256.Sum256([]byte(out))
			if got := hex.EncodeToString(sum[:]); got != tc.sha {
				t.Errorf("render digest %s, want %s:\n%s", got, tc.sha, out)
			}
		})
	}
}

// TestCommTablePinned pins the rendered A3 comm table, quick and full, byte
// for byte: it is the only check on the greedy_ok and mean_hops columns, so
// any drift in the unit-disk graph, the BFS hop counts or the greedy walk
// changes a digest.
func TestCommTablePinned(t *testing.T) {
	for _, tc := range []struct {
		name  string
		quick bool
		sha   string
	}{
		{"quick", true, "0766010b2d83388f6f520b3c4f0f8b735300510d5df4e7cec460f47f932d074e"},
		{"full", false, "fae2034f71fa4471ab1f70a88a97bca753818d0c4855ff4d34249dfc4f927294"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			tbl, err := CommCheck(Options{Quick: tc.quick, Seed: 1})
			if err != nil {
				t.Fatal(err)
			}
			out := tbl.Render()
			sum := sha256.Sum256([]byte(out))
			if got := hex.EncodeToString(sum[:]); got != tc.sha {
				t.Errorf("render digest %s, want %s:\n%s", got, tc.sha, out)
			}
		})
	}
}
