// Undersea surveillance: the paper's headline application and the source
// of its parameter set. Acoustic sensors cost thousands of dollars each, so
// the deployment is sparse by necessity; submarines are slow and the
// surveillance horizon is long. This example works through the full design
// loop: detection probability across target speeds, the exact report
// threshold for a false alarm budget (the paper's future-work item), the
// accuracy plan for the analysis itself, and the acoustic multi-hop
// delivery check.
//
// Run with:
//
//	go run ./examples/undersea
package main

import (
	"fmt"
	"log"
	"time"

	gbd "github.com/groupdetect/gbd"
	"github.com/groupdetect/gbd/internal/falsealarm"
	"github.com/groupdetect/gbd/internal/field"
	"github.com/groupdetect/gbd/internal/geom"
	"github.com/groupdetect/gbd/internal/netsim"
)

func main() {
	p := gbd.Defaults() // the ONR parameter set
	fmt.Printf("undersea sector: %d acoustic sensors in %.0f km x %.0f km, Rs=%.0f km\n",
		p.N, p.FieldSide/1000, p.FieldSide/1000, p.Rs/1000)

	// 1. Detection probability vs intruder speed. Slow intruders sweep
	// less new area per window, so they are harder to accumulate reports
	// on — the inverse of intuition from instantaneous detection.
	fmt.Println("\ndetection probability vs target speed (analysis):")
	for _, v := range []float64{2, 4, 6, 10} {
		res, err := gbd.Analyze(p.WithV(v), gbd.MSOptions{})
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("  V=%4.1f m/s (ms=%2d) -> %.4f\n", v, p.WithV(v).Ms(), res.DetectionProb)
	}

	// 2. Report threshold from a false alarm budget. Acoustic sensors in
	// ambient ship noise false-alarm at roughly 1e-4 per minute. We demand
	// at most a 1% chance of a false submarine alert per day.
	m := falsealarm.Model{N: p.N, Pf: 1e-4, M: p.M}
	k, err := falsealarm.KMin(m, 24*60, 0.01)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nfalse-alarm design: Pf=1e-4, budget 1%%/day -> K >= %d (paper's empirical choice: 5)\n", k)
	rate, err := falsealarm.SimulateRate(m, k, 24*60, falsealarm.SimOptions{
		FieldSide: p.FieldSide, Rs: p.Rs, MaxSpeed: p.V, Period: p.T,
		Gated: true, Trials: 200, Seed: 3,
	})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("  simulated false-alert rate at K=%d with track gating: %.4f\n", k, rate)

	// 3. Detection with the chosen threshold, for the slow submarine.
	sub := p.WithV(4).WithK(k)
	res, err := gbd.Analyze(sub, gbd.MSOptions{})
	if err != nil {
		log.Fatal(err)
	}
	cmp, err := gbd.Compare(sub, 10000, 11)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\n4 m/s submarine with K=%d: analysis %.4f, simulation %.4f (CI [%.4f, %.4f])\n",
		k, res.DetectionProb, cmp.Simulation, cmp.CILo, cmp.CIHi)

	// 4. How precise is the analysis itself? The Figure-8 plan.
	plan, err := gbd.PlanAccuracy(sub, 0.99)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nanalysis accuracy plan: gh=%d g=%d gives etaMS=%.4f; "+
		"the S-approach would need G=%d sensors enumerated\n", plan.Gh, plan.G, plan.EtaMS, plan.SG)

	// 5. Acoustic delivery: 6 km acoustic modems, ~30 s per hop (slow
	// underwater propagation and low data rates). Does every sensor reach
	// the surface gateway at the center within one sensing period?
	rng := field.NewRand(21)
	nodes, err := field.Uniform(p.N, geom.Square(p.FieldSide), rng)
	if err != nil {
		log.Fatal(err)
	}
	gateway := geom.Point{X: p.FieldSide / 2, Y: p.FieldSide / 2}
	base := geom.Nearest(nodes, gateway)
	net, err := netsim.New(nodes, 6000, geom.Square(p.FieldSide))
	if err != nil {
		log.Fatal(err)
	}
	stats, err := net.Delivery(base, 30*time.Second, p.T)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nacoustic delivery (6 km modems, 30 s/hop, %v budget):\n", p.T)
	fmt.Printf("  connected components: %d; reachable %d/%d; max %d hops; within budget %d\n",
		net.Components(), stats.Reachable, stats.Nodes, stats.MaxHops, stats.WithinBudget)
	if stats.WithinBudget < stats.Reachable {
		fmt.Println("  -> some sensors need a longer sensing period or a second gateway")
	}
}
