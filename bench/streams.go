package main

import (
	"fmt"
	"math"
	"math/rand"
	"strconv"
)

// stream yields a workload's arrivals in order; the sequence depends on
// the seed alone, never on timing.
type stream interface {
	next() *request
}

// defaultProb is the detection probability /v1/analyze renders for
// {"scenario":{}} (the ONR defaults with automatic accuracy planning).
const defaultProb = 0.780128729364132

// scenarioParams is a generated scenario, kept for answers that are
// re-checked against a direct detect.MSApproach.
type scenarioParams struct {
	n, k int
	v    float64
}

// num renders a float with the shortest spelling that parses back to the
// same value, so the server and the re-check see identical parameters.
func num(v float64) string { return strconv.FormatFloat(v, 'f', -1, 64) }

// round3 rounds to three decimals, the resolution of generated knobs.
func round3(x float64) float64 { return math.Round(x*1000) / 1000 }

func randScenario(rng *rand.Rand) scenarioParams {
	return scenarioParams{n: 60 + rng.Intn(201), k: 3 + rng.Intn(4), v: round3(4 + 8*rng.Float64())}
}

func (s scenarioParams) json() string {
	return fmt.Sprintf(`{"n":%d,"k":%d,"v":%s}`, s.n, s.k, num(s.v))
}

// designBody varies the target and horizon of the default scenario. The
// horizon stays short: at the default 1440 periods the exact
// scan-statistic bound alone takes about 50 ms, which would make design
// the whole story of both serving workloads.
func designBody(rng *rand.Rand) []byte {
	return []byte(fmt.Sprintf(`{"scenario":{},"target_prob":%s,"horizon":%d}`,
		num(round3(0.8+0.15*rng.Float64())), 40+rng.Intn(41)))
}

// hotStream is the read path: a fixed pool of 64 analyze, latency and
// design bodies drawn under Zipf(1.1), with a 4-item batch every 10th
// arrival. Body 0, the most popular, is {"scenario":{}}.
type hotStream struct {
	pool []item
	zipf *rand.Zipf
	i    int
}

const hotPool = 64

func newHotStream(seed int64) *hotStream {
	rng := rand.New(rand.NewSource(seed))
	// Fixed counts, seeded order: every seed serves the same mix of
	// endpoints, so seeds differ in scenarios, not in work.
	kinds := make([]string, hotPool-1)
	for i := range kinds {
		switch {
		case i < 39:
			kinds[i] = "analyze"
		case i < 51:
			kinds[i] = "latency"
		default:
			kinds[i] = "design"
		}
	}
	rng.Shuffle(len(kinds), func(i, j int) { kinds[i], kinds[j] = kinds[j], kinds[i] })
	pool := []item{{op: "analyze", body: []byte(`{"scenario":{}}`)}}
	for _, op := range kinds {
		body := []byte(`{"scenario":` + randScenario(rng).json() + `}`)
		if op == "design" {
			body = designBody(rng)
		}
		pool = append(pool, item{op: op, body: body})
	}
	draws := rand.New(rand.NewSource(pointSeed(seed, hotPool)))
	return &hotStream{pool: pool, zipf: rand.NewZipf(draws, 1.1, 1, hotPool-1)}
}

func (s *hotStream) draw() item { return s.pool[s.zipf.Uint64()] }

func (s *hotStream) next() *request {
	s.i++
	if s.i%10 == 0 {
		return batch([]item{s.draw(), s.draw(), s.draw(), s.draw()})
	}
	it := s.draw()
	rq := single(it)
	if it.op == "analyze" && string(it.body) == `{"scenario":{}}` {
		rq.wantProb = defaultProb
	}
	return rq
}

// coldStream is writes with compute: every single arrival is a fresh
// scenario, and every 10th arrival batches the last four bodies, which
// then meet hits, forwards and in-flight computations. Each block of 20
// singles holds exactly 14 analyze, 2 latency, 1 design, 2 simulate (500
// trials under the default legacy scheme) and 1 placement (20 sensors on
// a 12x12 grid over 200 trials) in seeded order, so every second of
// every seed carries the same mix. The two heavy operations vary only
// their seed and k, which leaves their cost the same from seed to seed.
// Every 50th analyze keeps its scenario for the re-check.
type coldStream struct {
	rng      *rand.Rand
	i        int
	block    []string
	analyzes int
	recent   []item
}

var coldBlock = []string{
	"analyze", "analyze", "analyze", "analyze", "analyze", "analyze", "analyze",
	"analyze", "analyze", "analyze", "analyze", "analyze", "analyze", "analyze",
	"latency", "latency", "design", "simulate", "simulate", "place",
}

func newColdStream(seed int64) *coldStream {
	return &coldStream{rng: rand.New(rand.NewSource(seed))}
}

func (s *coldStream) next() *request {
	s.i++
	if s.i%10 == 0 && len(s.recent) == 4 {
		return batch(s.recent)
	}
	rng := s.rng
	if len(s.block) == 0 {
		s.block = append(s.block, coldBlock...)
		rng.Shuffle(len(s.block), func(i, j int) { s.block[i], s.block[j] = s.block[j], s.block[i] })
	}
	op := s.block[0]
	s.block = s.block[1:]
	var rq *request
	switch op {
	case "analyze":
		sc := randScenario(rng)
		rq = single(item{op: op, body: []byte(`{"scenario":` + sc.json() + `}`)})
		if s.analyzes++; s.analyzes%50 == 0 {
			rq.recheck = &sc
		}
	case "latency":
		rq = single(item{op: op, body: []byte(`{"scenario":` + randScenario(rng).json() + `}`)})
	case "design":
		rq = single(item{op: op, body: designBody(rng)})
	case "simulate":
		rq = single(item{op: op, body: []byte(fmt.Sprintf(`{"scenario":{"k":%d},"trials":500,"seed":%d}`,
			3+rng.Intn(4), rng.Int63()))})
	default:
		rq = single(item{op: op, body: []byte(fmt.Sprintf(
			`{"scenario":{"n":20,"k":%d},"grid_cols":12,"grid_rows":12,"trials":200,"seed":%d}`,
			3+rng.Intn(4), rng.Int63()))})
	}
	s.recent = append(s.recent, item{op: op, body: rq.body})
	if len(s.recent) > 4 {
		s.recent = s.recent[1:]
	}
	return rq
}
