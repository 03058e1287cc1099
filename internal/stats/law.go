package stats

import (
	"fmt"
	"math"
)

// LawPoint is one kernel variant's outcome at one point of a campaign:
// how many trials ran, how many detected, and the histogram of per-trial
// report counts.
type LawPoint struct {
	Trials, Detections int
	Reports            *Histogram
}

// LawComparison is SameLaw's verdict: the smallest p-value over every
// test it ran, where that test sits, and the per-test level it must reach.
type LawComparison struct {
	// Level is the false-reject rate SameLaw was given, divided over its
	// tests (Bonferroni): two per point.
	Level float64
	// MinP is the smallest p-value; Point and Test ("detections" or
	// "reports") name the test that gave it.
	MinP  float64
	Point int
	Test  string
}

// Same reports whether no test rejected at its level.
func (c LawComparison) Same() bool { return c.MinP >= c.Level }

func (c LawComparison) String() string {
	verdict := "same law"
	if !c.Same() {
		verdict = "different laws"
	}
	return fmt.Sprintf("%s: smallest p = %.3g (point %d, %s) against level %.3g", verdict, c.MinP, c.Point, c.Test, c.Level)
}

// SameLaw tests whether two kernel variants, run at the same points, give
// the same detection law. At each point it runs two tests:
//
//   - detections: a two-proportion z-test on the detection counts;
//   - reports: a chi-square homogeneity test on the report-count
//     histograms, whose bins are pooled from the low end until each group
//     expects at least 5 trials in both samples (a short last group joins
//     the one before it).
//
// Under the null hypothesis that both variants draw from one law, the
// chance that any test rejects is at most alpha: each test runs at level
// alpha/(2·points).
func SameLaw(a, b []LawPoint, alpha float64) (LawComparison, error) {
	if len(a) == 0 || len(a) != len(b) {
		return LawComparison{}, fmt.Errorf("law comparison of %d against %d points: %w", len(a), len(b), ErrStats)
	}
	if !(alpha > 0 && alpha < 1) {
		return LawComparison{}, fmt.Errorf("false-reject rate %v must be in (0, 1): %w", alpha, ErrStats)
	}
	c := LawComparison{Level: alpha / float64(2*len(a)), MinP: 1}
	for i := range a {
		pa, pb := a[i], b[i]
		if pa.Trials <= 0 || pb.Trials <= 0 || pa.Detections < 0 || pb.Detections < 0 ||
			pa.Detections > pa.Trials || pb.Detections > pb.Trials {
			return LawComparison{}, fmt.Errorf("point %d: %d/%d against %d/%d detections: %w",
				i, pa.Detections, pa.Trials, pb.Detections, pb.Trials, ErrStats)
		}
		if p := TwoProportionP(pa.Detections, pa.Trials, pb.Detections, pb.Trials); p < c.MinP {
			c.MinP, c.Point, c.Test = p, i, "detections"
		}
		p, err := HomogeneityP(pa.Reports, pb.Reports)
		if err != nil {
			return LawComparison{}, fmt.Errorf("point %d: %w", i, err)
		}
		if p < c.MinP {
			c.MinP, c.Point, c.Test = p, i, "reports"
		}
	}
	return c, nil
}

// TwoProportionP is the two-sided p-value of the pooled two-proportion
// z-test of x1/n1 against x2/n2. Two samples that are all failures or
// all successes give 1.
func TwoProportionP(x1, n1, x2, n2 int) float64 {
	pool := float64(x1+x2) / float64(n1+n2)
	se := math.Sqrt(pool * (1 - pool) * (1/float64(n1) + 1/float64(n2)))
	if se == 0 {
		return 1
	}
	z := (float64(x1)/float64(n1) - float64(x2)/float64(n2)) / se
	return math.Erfc(math.Abs(z) / math.Sqrt2)
}

// HomogeneityP is the p-value of the chi-square homogeneity test of two
// histograms, pooled as SameLaw describes. One group or fewer leaves
// nothing to compare and gives 1.
func HomogeneityP(a, b *Histogram) (float64, error) {
	if a == nil || b == nil {
		return 0, fmt.Errorf("homogeneity test without a histogram: %w", ErrStats)
	}
	na, nb := a.Total(), b.Total()
	if na == 0 || nb == 0 {
		return 0, fmt.Errorf("homogeneity test of %d against %d observations: %w", na, nb, ErrStats)
	}
	// A group's expected count in the smaller sample is the least of its
	// four expected cells.
	small := float64(min(na, nb)) / float64(na+nb)
	top := max(a.Max(), b.Max())
	var groups [][2]int64 // per group: counts in a, in b
	var ga, gb int64
	for v := 0; v <= top; v++ {
		ga += a.Count(v)
		gb += b.Count(v)
		if small*float64(ga+gb) >= 5 {
			groups = append(groups, [2]int64{ga, gb})
			ga, gb = 0, 0
		}
	}
	if ga+gb > 0 {
		if len(groups) == 0 {
			return 1, nil
		}
		groups[len(groups)-1][0] += ga
		groups[len(groups)-1][1] += gb
	}
	if len(groups) < 2 {
		return 1, nil
	}
	fa, fb := float64(na)/float64(na+nb), float64(nb)/float64(na+nb)
	chi2 := 0.0
	for _, g := range groups {
		col := float64(g[0] + g[1])
		ea, eb := fa*col, fb*col
		da, db := float64(g[0])-ea, float64(g[1])-eb
		chi2 += da*da/ea + db*db/eb
	}
	return ChiSquareSF(chi2, len(groups)-1), nil
}

// ChiSquareSF returns P[X > x] for X chi-square with df > 0 degrees of
// freedom: the regularized upper incomplete gamma function Q(df/2, x/2),
// by its power series below x/2 = df/2 + 1 and by its continued fraction
// (modified Lentz) above.
func ChiSquareSF(x float64, df int) float64 {
	if x <= 0 {
		return 1
	}
	a, y := float64(df)/2, x/2
	lg, _ := math.Lgamma(a)
	front := math.Exp(a*math.Log(y) - y - lg) // y^a e^-y / Γ(a)
	if y < a+1 {
		// P(a, y) = front · Σ y^n / (a(a+1)…(a+n))
		term := 1 / a
		sum := term
		for n := 1; n < 1000 && term > sum*1e-17; n++ {
			term *= y / (a + float64(n))
			sum += term
		}
		return max(0, 1-front*sum)
	}
	const tiny = 1e-300
	bn := y + 1 - a
	c, d := 1/tiny, 1/bn
	h := d
	for n := 1; n < 1000; n++ {
		an := -float64(n) * (float64(n) - a)
		bn += 2
		d = an*d + bn
		if math.Abs(d) < tiny {
			d = tiny
		}
		c = bn + an/c
		if math.Abs(c) < tiny {
			c = tiny
		}
		d = 1 / d
		step := d * c
		h *= step
		if math.Abs(step-1) < 1e-16 {
			break
		}
	}
	return front * h
}
