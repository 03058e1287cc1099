// Benchmarks, one per reproduced table/figure plus the ablations from
// DESIGN.md. Run with:
//
//	go test -bench=. -benchmem
//
// E1 (Figure 8), E2-E4 (Figure 9a-c), E5 (timing claim), E6 (extension),
// E7 (k lower bound), A1 (evaluator ablation), A3 (communication check).
//
// The hot-path benchmarks that gbd-bench reports and gates on are
// defined once in internal/benchsuite; the Benchmark functions at the end
// of this file run those bodies under their usual names.
package gbd_test

import (
	"math"
	"testing"
	"time"

	gbd "github.com/groupdetect/gbd"
	"github.com/groupdetect/gbd/internal/benchsuite"
	"github.com/groupdetect/gbd/internal/coverage"
	"github.com/groupdetect/gbd/internal/detect"
	"github.com/groupdetect/gbd/internal/falsealarm"
	"github.com/groupdetect/gbd/internal/field"
	"github.com/groupdetect/gbd/internal/geom"
	"github.com/groupdetect/gbd/internal/sim"
	"github.com/groupdetect/gbd/internal/system"
	"github.com/groupdetect/gbd/internal/target"
	"github.com/groupdetect/gbd/internal/track"
)

// BenchmarkFig8RequiredAccuracy regenerates the Figure 8 planning sweep:
// minimal g, gh and G for 99% accuracy from N = 60 to 260.
func BenchmarkFig8RequiredAccuracy(b *testing.B) {
	for i := 0; i < b.N; i++ {
		for n := 60; n <= 260; n += 20 {
			p := detect.Defaults().WithN(n)
			if _, err := detect.RequiredBodyG(p, 0.99); err != nil {
				b.Fatal(err)
			}
			if _, err := detect.RequiredHeadG(p, 0.99); err != nil {
				b.Fatal(err)
			}
			if _, err := detect.RequiredSG(p, 0.99); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// benchFig9Analysis sweeps both speeds across the Figure 9 node counts.
func benchFig9Analysis(b *testing.B, normalize bool) {
	b.Helper()
	for i := 0; i < b.N; i++ {
		for _, v := range []float64{4, 10} {
			for n := 60; n <= 240; n += 30 {
				p := detect.Defaults().WithN(n).WithV(v)
				_, err := detect.MSApproach(p, detect.MSOptions{Gh: 3, G: 3, NoNormalize: !normalize})
				if err != nil {
					b.Fatal(err)
				}
			}
		}
	}
}

// BenchmarkFig9aAnalysis regenerates the Figure 9(a) analysis curves
// (normalized M-S-approach, V = 4 and 10, N = 60..240).
func BenchmarkFig9aAnalysis(b *testing.B) { benchFig9Analysis(b, true) }

// BenchmarkFig9bAnalysisRaw regenerates the Figure 9(b) curves
// (un-normalized analysis).
func BenchmarkFig9bAnalysisRaw(b *testing.B) { benchFig9Analysis(b, false) }

// BenchmarkFig9aSimulation measures the Monte Carlo validation cost per
// 100 trials of the ONR default scenario (the paper runs 10000 per point).
func BenchmarkFig9aSimulation(b *testing.B) {
	cfg := sim.Config{Params: detect.Defaults(), Trials: 100, Workers: 1}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		cfg.Seed = int64(i)
		if _, err := sim.Run(cfg); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFig9cSimulationRandomWalk measures the Figure 9(c) random-walk
// simulation per 100 trials.
func BenchmarkFig9cSimulationRandomWalk(b *testing.B) {
	p := detect.Defaults()
	cfg := sim.Config{
		Params:  p,
		Model:   target.RandomWalk{Step: p.Vt(), MaxTurn: math.Pi / 4},
		Trials:  100,
		Workers: 1,
	}
	for i := 0; i < b.N; i++ {
		cfg.Seed = int64(i)
		if _, err := sim.Run(cfg); err != nil {
			b.Fatal(err)
		}
	}
}

// E5 / Section 3.4.5: execution-time comparison. The paper reports the
// S-approach needs days while the M-S-approach finishes within a minute.

// BenchmarkMSApproachMatrix measures the paper-faithful Eq. (12) matrix
// evaluator (ablation A1's other arm).
func BenchmarkMSApproachMatrix(b *testing.B) {
	p := detect.Defaults().WithN(240)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := detect.MSApproach(p, detect.MSOptions{Gh: 6, G: 3, Evaluator: detect.EvaluatorMatrix}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSApproachFast measures our polynomial S-approach reformulation
// at the full required G = 13 for N = 240.
func BenchmarkSApproachFast(b *testing.B) {
	p := detect.Defaults().WithN(240)
	for i := 0; i < b.N; i++ {
		if _, err := detect.SApproach(p, detect.SOptions{G: 13}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSApproachLiteralG3 and G4 measure the paper's Algorithm 1
// enumeration; its O(ms^2G) growth extrapolates to days at G = 13,
// reproducing the paper's infeasibility claim (see EXPERIMENTS.md).
func BenchmarkSApproachLiteralG3(b *testing.B) {
	p := detect.Defaults().WithN(240)
	for i := 0; i < b.N; i++ {
		if _, err := detect.SApproach(p, detect.SOptions{G: 3, Literal: true}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkSApproachLiteralG4(b *testing.B) {
	p := detect.Defaults().WithN(240)
	for i := 0; i < b.N; i++ {
		if _, err := detect.SApproach(p, detect.SOptions{G: 4, Literal: true}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkSApproachLiteralG5(b *testing.B) {
	if testing.Short() {
		b.Skip("literal G=5 enumeration is slow")
	}
	p := detect.Defaults().WithN(240)
	for i := 0; i < b.N; i++ {
		if _, err := detect.SApproach(p, detect.SOptions{G: 5, Literal: true}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkExtensionH measures the Section-4 distinct-nodes extension (E6).
func BenchmarkExtensionH(b *testing.B) {
	p := detect.Defaults()
	for i := 0; i < b.N; i++ {
		for h := 1; h <= 4; h++ {
			if _, err := detect.MSApproachNodes(p, h, detect.MSOptions{Gh: 3, G: 3}); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// BenchmarkKMin measures the exact k lower-bound computation over a 1-day
// horizon (E7).
func BenchmarkKMin(b *testing.B) {
	m := falsealarm.Model{N: 120, Pf: 1e-4, M: 20}
	for i := 0; i < b.N; i++ {
		if _, err := falsealarm.KMin(m, 1440, 0.01); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkPublicAnalyze measures the end-to-end public API call a
// downstream user makes, including automatic accuracy planning.
func BenchmarkPublicAnalyze(b *testing.B) {
	p := gbd.Defaults()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := gbd.Analyze(p, gbd.MSOptions{}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTApproachSmallMs measures the Section-3.2 Temporal approach on a
// tractable configuration; its state count (not time alone) is the story —
// see the tapproach experiment table.
func BenchmarkTApproachSmallMs(b *testing.B) {
	p := detect.Defaults().WithM(10) // ms = 4
	for i := 0; i < b.N; i++ {
		if _, err := detect.TApproach(p, detect.TOptions{Gh: 2, G: 1}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkLatencyCDF measures the analytical detection-latency profile
// (an M-S-approach sweep over window lengths).
func BenchmarkLatencyCDF(b *testing.B) {
	p := detect.Defaults()
	for i := 0; i < b.N; i++ {
		if _, err := detect.DetectionLatency(p, detect.MSOptions{Gh: 3, G: 3}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkMixedFleetAnalysis measures the heterogeneous-fleet analysis
// (two classes convolved).
func BenchmarkMixedFleetAnalysis(b *testing.B) {
	p := detect.Defaults()
	classes := []detect.SensorClass{
		{Count: 90, Rs: 800, Pd: 0.85},
		{Count: 15, Rs: 2500, Pd: 0.95},
	}
	for i := 0; i < b.N; i++ {
		if _, err := detect.MSApproachMixed(p, classes, detect.MSOptions{Gh: 4, G: 4}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkCoverageMap measures building the ONR coverage grid (A4).
func BenchmarkCoverageMap(b *testing.B) {
	bounds := geom.Square(32000)
	pts, err := field.Uniform(240, bounds, field.NewRand(7))
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := coverage.NewMap(pts, 1000, bounds, 250); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkMaximalBreach measures the maximin-Dijkstra breach search.
func BenchmarkMaximalBreach(b *testing.B) {
	bounds := geom.Square(32000)
	pts, err := field.Uniform(240, bounds, field.NewRand(7))
	if err != nil {
		b.Fatal(err)
	}
	m, err := coverage.NewMap(pts, 1000, bounds, 250)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := m.MaximalBreach(1000); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTrackGateDecide measures the kinematic gating of a noisy window
// (the base station's per-period work in the end-to-end system).
func BenchmarkTrackGateDecide(b *testing.B) {
	gate, err := track.NewGate(10, time.Minute, 1000)
	if err != nil {
		b.Fatal(err)
	}
	rng := field.NewRand(3)
	var reports []track.Report
	for i := 0; i < 60; i++ {
		reports = append(reports, track.Report{
			Sensor: i,
			Pos:    geom.Point{X: rng.Float64() * 32000, Y: rng.Float64() * 32000},
			Period: 1 + i%20,
		})
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := track.Decide(reports, 5, 20, gate, true); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkEndToEndTrial measures one full-system trial: deployment,
// network build, sensing, delivery and gated decisions (A5).
func BenchmarkEndToEndTrial(b *testing.B) {
	cfg := system.Config{
		Params:    detect.Defaults(),
		CommRange: 6000,
		PerHop:    10 * time.Second,
		Trials:    1,
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		cfg.Seed = int64(i)
		if _, err := system.Run(cfg); err != nil {
			b.Fatal(err)
		}
	}
}

// The gbd-bench suite, in snapshot order (see internal/benchsuite for
// what each one measures).

func BenchmarkSimulationSingleTrial(b *testing.B)       { benchsuite.SimulationSingleTrial(b) }
func BenchmarkSimulationSingleTrialLegacy(b *testing.B) { benchsuite.SimulationSingleTrialLegacy(b) }
func BenchmarkLegacyStreamAt(b *testing.B)              { benchsuite.LegacyStreamAt(b) }
func BenchmarkFaultyTrial(b *testing.B)                 { benchsuite.FaultyTrial(b) }
func BenchmarkLossyDelivery(b *testing.B)               { benchsuite.LossyDelivery(b) }
func BenchmarkMSApproachConvolution(b *testing.B)       { benchsuite.MSApproachConvolution(b) }
func BenchmarkCommCheck(b *testing.B)                   { benchsuite.CommCheck(b) }
func BenchmarkServedAnalyzeCold(b *testing.B)           { benchsuite.ServedAnalyzeCold(b) }
func BenchmarkServedAnalyzeCached(b *testing.B)         { benchsuite.ServedAnalyzeCached(b) }
func BenchmarkServedAnalyzeConcurrent(b *testing.B)     { benchsuite.ServedAnalyzeConcurrent(b) }
func BenchmarkServedBatch(b *testing.B)                 { benchsuite.ServedBatch(b) }
func BenchmarkPeerForwardedHit(b *testing.B)            { benchsuite.PeerForwardedHit(b) }
func BenchmarkCoordinatorFanout(b *testing.B)           { benchsuite.CoordinatorFanout(b) }
func BenchmarkCoordinatorFanoutDegraded(b *testing.B)   { benchsuite.CoordinatorFanoutDegraded(b) }
func BenchmarkPlacementGreedy(b *testing.B)             { benchsuite.PlacementGreedy(b) }
