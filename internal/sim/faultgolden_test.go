package sim_test

import (
	"fmt"
	"reflect"
	"testing"
	"time"

	"github.com/groupdetect/gbd/internal/detect"
	"github.com/groupdetect/gbd/internal/faults"
	"github.com/groupdetect/gbd/internal/field"
	"github.com/groupdetect/gbd/internal/geom"
	"github.com/groupdetect/gbd/internal/infer"
	"github.com/groupdetect/gbd/internal/netsim"
	"github.com/groupdetect/gbd/internal/sim"
)

// faultGolden is one fault-path campaign's pinned outputs under one RNG
// scheme. MeanAliveFrac is a float sum folded per worker, so its last
// bits depend on the worker count: it is pinned at workers 1 and 4.
type faultGolden struct {
	detections  int
	meanReports float64
	faults      sim.FaultStats // MeanAliveFrac left zero; see alive
	alive       [2]float64     // MeanAliveFrac at workers 1 and 4
	infer       *sim.InferStats
}

// TestGoldenFaultPaths pins every fault model the kernel runs, and the
// closed-loop inference campaign, under both RNG schemes at workers 1
// and 4: Bernoulli death over the lossy relay (the degraded benchmark's
// relay point), the battery hazard, a blob with a fixed and with a drawn
// center, a composition of hazard and blob, and Bernoulli death with a
// lossy flat uplink, beacons and the inferencer.
func TestGoldenFaultPaths(t *testing.T) {
	center := geom.Point{X: 12000, Y: 20000}
	relayLoss := netsim.LossModel{PerHopDelivery: 0.9, MaxRetries: 2, PerHop: 10 * time.Second, Backoff: 5 * time.Second}
	shapes := []struct {
		name string
		cfg  sim.Config
		want map[field.RNGScheme]faultGolden
	}{
		{"relay", sim.Config{Seed: 81, Faults: faults.Bernoulli{DeadFrac: 0.2}, CommRange: 6000, Loss: relayLoss},
			map[field.RNGScheme]faultGolden{
				field.SchemeLegacy: {79, 7.4416666666666664, sim.FaultStats{Generated: 902, Delivered: 853, Late: 40, Lost: 9, Rerouted: 95},
					[2]float64{0.8029166666666667, 0.8029166666666667}, nil},
				field.SchemePhilox: {80, 7.6583333333333332, sim.FaultStats{Generated: 925, Delivered: 885, Late: 34, Lost: 6, Rerouted: 26},
					[2]float64{0.798611111111111, 0.798611111111111}, nil},
			}},
		{"lifetime", sim.Config{Seed: 82, Faults: faults.Lifetime{Hazard: 0.02}},
			map[field.RNGScheme]faultGolden{
				field.SchemeLegacy: {79, 7.3083333333333336, sim.FaultStats{Generated: 877, Delivered: 877},
					[2]float64{0.8183333333333331, 0.8183333333333334}, nil},
				field.SchemePhilox: {84, 7.458333333333333, sim.FaultStats{Generated: 895, Delivered: 895},
					[2]float64{0.8140972222222225, 0.8140972222222224}, nil},
			}},
		{"blob-fixed", sim.Config{Seed: 83, Faults: faults.Blob{Radius: 9000, At: 6, Center: &center}},
			map[field.RNGScheme]faultGolden{
				field.SchemeLegacy: {74, 7.3250000000000002, sim.FaultStats{Generated: 879, Delivered: 879},
					[2]float64{0.8128124999999999, 0.8128124999999998}, nil},
				field.SchemePhilox: {65, 6.2000000000000002, sim.FaultStats{Generated: 744, Delivered: 744},
					[2]float64{0.8107291666666667, 0.8107291666666666}, nil},
			}},
		{"blob-drawn", sim.Config{Seed: 84, Faults: faults.Blob{Radius: 8000, At: 4}},
			map[field.RNGScheme]faultGolden{
				field.SchemeLegacy: {76, 6.375, sim.FaultStats{Generated: 765, Delivered: 765},
					[2]float64{0.8682499999999996, 0.8682500000000002}, nil},
				field.SchemePhilox: {88, 8.0749999999999993, sim.FaultStats{Generated: 969, Delivered: 969},
					[2]float64{0.8635868055555557, 0.8635868055555557}, nil},
			}},
		{"compose", sim.Config{Seed: 85, Faults: faults.Compose{faults.Lifetime{Hazard: 0.01, InitialDeadFrac: 0.05}, faults.Blob{Radius: 8000, At: 8}}},
			map[field.RNGScheme]faultGolden{
				field.SchemeLegacy: {68, 6.1916666666666664, sim.FaultStats{Generated: 743, Delivered: 743},
					[2]float64{0.7704305555555553, 0.7704305555555556}, nil},
				field.SchemePhilox: {71, 6.9083333333333332, sim.FaultStats{Generated: 829, Delivered: 829},
					[2]float64{0.775548611111111, 0.7755486111111111}, nil},
			}},
		{"infer", sim.Config{Seed: 86, Faults: faults.Bernoulli{DeadFrac: 0.2}, PDeliver: 0.9, Beacons: true, Infer: &infer.Options{}},
			map[field.RNGScheme]faultGolden{
				field.SchemeLegacy: {78, 6.6583333333333332, sim.FaultStats{Generated: 872, Delivered: 799, Lost: 73},
					[2]float64{0.8006944444444449, 0.8006944444444444}, &sim.InferStats{
						Sensors: 14400, Periods: 288000,
						Final:        infer.Confusion{TP: 2870, FP: 67, FN: 0, TN: 11463},
						PerPeriod:    infer.Confusion{TP: 54036, FP: 1391, FN: 3364, TN: 229209},
						Declarations: 4128, Retractions: 1191, TTDSum: 6234, TTDCount: 2870,
						InferredDead: 2937, TruthDead: 2870, Generated: 231472, Delivered: 208567,
					}},
				field.SchemePhilox: {73, 6.5083333333333337, sim.FaultStats{Generated: 866, Delivered: 781, Lost: 85},
					[2]float64{0.8005555555555557, 0.8005555555555557}, &sim.InferStats{
						Sensors: 14400, Periods: 288000,
						Final:        infer.Confusion{TP: 2872, FP: 73, FN: 0, TN: 11455},
						PerPeriod:    infer.Confusion{TP: 53702, FP: 1284, FN: 3738, TN: 229276},
						Declarations: 4032, Retractions: 1087, TTDSum: 6610, TTDCount: 2872,
						InferredDead: 2945, TruthDead: 2872, Generated: 231426, Delivered: 208243,
					}},
			}},
	}
	for _, s := range shapes {
		for scheme, want := range s.want {
			for wi, workers := range []int{1, 4} {
				cfg := s.cfg
				cfg.Params, cfg.Trials, cfg.RNG, cfg.Workers = detect.Defaults(), 120, scheme, workers
				name := fmt.Sprintf("%s/%s/w%d", s.name, scheme, workers)
				res, err := sim.Run(cfg)
				if err != nil {
					t.Fatalf("%s: %v", name, err)
				}
				exacti(t, name+".Detections", res.Detections, want.detections)
				exactf(t, name+".MeanReports", res.MeanReports, want.meanReports)
				exactf(t, name+".MeanAliveFrac", res.Faults.MeanAliveFrac, want.alive[wi])
				got := res.Faults
				got.MeanAliveFrac = 0
				if got != want.faults {
					t.Errorf("%s: Faults = %+v, want %+v", name, got, want.faults)
				}
				if !reflect.DeepEqual(res.Infer, want.infer) {
					t.Errorf("%s: Infer = %+v, want %+v", name, res.Infer, want.infer)
				}
			}
		}
	}
}
