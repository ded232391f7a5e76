package oracle

import (
	"fmt"
	"math"

	"cocosketch/internal/flowkey"
	"cocosketch/internal/trace"
)

// The differential harness: replay identical deterministic streams
// through an exact Oracle and a sketch implementation, repeat over
// independently-seeded trials, and assert the implementation's
// *published contract* — unbiasedness within a variance-bound-derived
// confidence interval (Theorems 1–2), bounded variance (Theorem 2 /
// Lemma 5), one-sided error (Count-Min, SpaceSaving), guaranteed
// tracking (SpaceSaving's f > V/n rule) and exact mass conservation.
// No check uses a hand-picked tolerance.

// Instance is one trial's sketch under test. Implementations adapt
// their native APIs (see impls.go); an Instance is used once.
type Instance interface {
	// Insert adds weight w to flow k.
	Insert(k flowkey.FiveTuple, w uint64)
	// Close finalizes pending work (batch buffers, the sharded replay). The
	// instance must not be inserted into afterwards.
	Close()
	// Table returns the decoded estimate table at the implementation's
	// native granularity (full keys for everything except R-HHH).
	Table() map[flowkey.FiveTuple]uint64
}

// VarBoundFunc returns the per-trial variance ceiling for a partial key
// of exact size f under mask m — the theorem-derived quantity a CI is
// built from.
type VarBoundFunc func(o *Oracle, m flowkey.Mask, f uint64) float64

// AllowanceFunc returns a documented one-sided error allowance (e.g. a
// Count-Min row's expected collision mass) for mask m and exact size f.
type AllowanceFunc func(o *Oracle, m flowkey.Mask, f uint64) float64

// Contract states which published guarantees the harness asserts for
// an implementation. Zero-valued fields skip the corresponding check.
type Contract struct {
	// Unbiased asserts E[f̂(e_P)] = f(e_P) per tracked partial key via
	// a CI of half-width z·sqrt(VarBound/trials). A nil VarBound uses
	// the empirical standard error (Student-t style) instead.
	Unbiased bool
	// VarBound is the theorem-derived per-trial variance ceiling.
	VarBound VarBoundFunc
	// VarCeiling additionally asserts the empirical variance itself
	// stays below the returned bound ("provably bounded variance").
	VarCeiling VarBoundFunc
	// OverAllowance widens the CI upward only (estimators with a known
	// positive bias, e.g. R-HHH's per-level SpaceSaving summaries).
	OverAllowance AllowanceFunc
	// UnderAllowance widens the CI downward only (Elastic's pre-claim
	// mass lost to the light part).
	UnderAllowance AllowanceFunc
	// MeanOverBound asserts E[f̂] − f ≤ bound for tracked keys — the
	// expected-overestimate guarantee of Count-Min ((V−f)/width).
	MeanOverBound AllowanceFunc
	// NeverUnder asserts every decoded full-key estimate ≥ its exact
	// count, every trial (Count-Min, SpaceSaving: one-sided error).
	NeverUnder bool
	// ConservesMass asserts Σ decode == V exactly every trial, and per
	// partial key that aggregation preserves the total.
	ConservesMass bool
	// GuaranteedTracking returns a size such that every flow at least
	// that large must appear in the decode (SpaceSaving: > V/n). Nil
	// skips the check.
	GuaranteedTracking func(o *Oracle) uint64
	// TrackTop limits per-key checks to the heaviest n tracked keys
	// (heap-backed summaries only hold top flows). 0 checks all.
	TrackTop int
	// MinTrackedFraction skips per-key statistical checks for keys
	// smaller than this fraction of V. Heap-backed summaries guarantee
	// accuracy only for heavy hitters; in a regime with no heavy
	// hitters (uniform) they legitimately track nothing. 0 checks all
	// tracked keys.
	MinTrackedFraction float64
}

// Impl binds a name, a constructor and a contract for the matrix.
type Impl struct {
	// Name labels the implementation in violations.
	Name string
	// New builds a fresh instance for one trial. Distinct seeds must
	// yield independently-randomized instances.
	New func(seed uint64) Instance
	// Masks overrides the harness masks (nil = Masks()): R-HHH only
	// answers the source-IP partial key; heap-backed top-k summaries
	// only answer full keys (their decode drops the tail, so partial
	// sums are incomplete by design — the paper's core argument).
	Masks []flowkey.Mask
	// Contract is the guarantee set to assert.
	Contract Contract
}

// Violation is one failed assertion of the matrix.
type Violation struct {
	// Impl and Regime locate the failing cell of the matrix.
	Impl, Regime string
	// Detail is the failed assertion's message.
	Detail string
}

// String renders the violation for test output.
func (v Violation) String() string {
	return fmt.Sprintf("[%s × %s] %s", v.Impl, v.Regime, v.Detail)
}

// MatrixConfig scales a RunMatrix call.
type MatrixConfig struct {
	// Packets per regime trace.
	Packets int
	// Trials per (impl, regime) cell; the CI tightens as sqrt(Trials).
	Trials int
	// Seed drives trace generation and per-trial sketch seeds.
	Seed uint64
	// Z is the CI z-score (DefaultZ when 0).
	Z float64
	// TrackedKeys is the per-mask tracked-key budget (default 5).
	TrackedKeys int
}

// RunMatrix runs every implementation against the Oracle over every
// regime and returns all contract violations (empty = pass).
func RunMatrix(impls []Impl, regimes []Regime, cfg MatrixConfig) []Violation {
	if cfg.Z == 0 {
		cfg.Z = DefaultZ
	}
	if cfg.TrackedKeys == 0 {
		cfg.TrackedKeys = 5
	}
	var out []Violation
	for ri, reg := range regimes {
		tr := reg.Generate(cfg.Packets, cfg.Seed+uint64(ri)*1000)
		o := FromTrace(tr)
		o.Precompute(Masks())
		for _, impl := range impls {
			out = append(out, runCell(impl, reg.Name, o, tr, cfg)...)
		}
	}
	return out
}

// cell is the per-(impl, regime) trial state: one Moments accumulator
// per (mask, tracked key).
type cell struct {
	masks   []flowkey.Mask
	tracked [][]flowkey.FiveTuple
	moments [][]*Moments
}

// runCell replays cfg.Trials independently-seeded instances of one
// implementation over one regime's trace and checks the contract.
func runCell(impl Impl, regime string, o *Oracle, tr *trace.Trace, cfg MatrixConfig) []Violation {
	ct := impl.Contract
	masks := impl.Masks
	if masks == nil {
		masks = Masks()
	}
	c := cell{masks: masks}
	for _, m := range masks {
		keys := o.TrackedKeys(m, cfg.TrackedKeys)
		if ct.TrackTop > 0 && len(keys) > ct.TrackTop {
			keys = keys[:ct.TrackTop]
		}
		if ct.MinTrackedFraction > 0 {
			floor := uint64(ct.MinTrackedFraction * float64(o.Total()))
			kept := keys[:0]
			for _, k := range keys {
				if o.Count(m, k) >= floor {
					kept = append(kept, k)
				}
			}
			keys = kept
		}
		c.tracked = append(c.tracked, keys)
		ms := make([]*Moments, len(keys))
		for i := range ms {
			ms[i] = &Moments{}
		}
		c.moments = append(c.moments, ms)
	}

	var out []Violation
	fail := func(format string, args ...any) {
		out = append(out, Violation{Impl: impl.Name, Regime: regime, Detail: fmt.Sprintf(format, args...)})
	}

	for trial := 0; trial < cfg.Trials; trial++ {
		inst := impl.New(cfg.Seed ^ (uint64(trial)+1)*0x9e3779b97f4a7c15)
		Replay(inst, tr)
		inst.Close()
		table := inst.Table()

		// Per-trial deterministic checks.
		if ct.ConservesMass {
			var sum uint64
			for _, v := range table {
				sum += v
			}
			if sum != o.Total() {
				fail("trial %d: decode mass %d ≠ stream weight %d", trial, sum, o.Total())
			}
		}
		if ct.NeverUnder {
			native := o.PartialCounts(masks[0])
			for k, est := range table {
				if truth := native[k]; est < truth {
					fail("trial %d: decoded %v = %d underestimates exact %d", trial, k, est, truth)
					break
				}
			}
		}
		if ct.GuaranteedTracking != nil {
			bound := ct.GuaranteedTracking(o)
			for k, truth := range o.PartialCounts(masks[0]) {
				if truth >= bound {
					if _, tracked := table[k]; !tracked {
						fail("trial %d: flow %v (exact %d ≥ guarantee %d) missing from decode", trial, k, truth, bound)
						break
					}
				}
			}
		}

		// Accumulate per-(mask, key) estimates for the statistical
		// checks. The native table is at masks[0] granularity; coarser
		// masks aggregate it (the paper's §4.3 subset-sum query).
		for mi, m := range masks {
			agg := table
			if m != masks[0] {
				agg = aggregate(table, m)
			}
			if ct.ConservesMass {
				var sum uint64
				for _, v := range agg {
					sum += v
				}
				if sum != o.Total() {
					fail("trial %d: mask %v mass %d ≠ %d (aggregation must conserve)", trial, m, sum, o.Total())
				}
			}
			for ki, k := range c.tracked[mi] {
				c.moments[mi][ki].Add(float64(agg[m.Apply(k)]))
			}
		}
	}

	// Statistical checks over the accumulated trials.
	for mi, m := range masks {
		for ki, k := range c.tracked[mi] {
			truth := float64(o.Count(m, k))
			mom := c.moments[mi][ki]
			what := fmt.Sprintf("mask %v key %v", m, m.Apply(k))
			if ct.Unbiased {
				varBound := math.NaN()
				if ct.VarBound != nil {
					varBound = ct.VarBound(o, m, uint64(truth))
				}
				var over, under float64
				if ct.OverAllowance != nil {
					over = ct.OverAllowance(o, m, uint64(truth))
				}
				if ct.UnderAllowance != nil {
					under = ct.UnderAllowance(o, m, uint64(truth))
				}
				if err := CheckMeanBand(what, mom, truth, varBound, under, over, cfg.Z); err != nil {
					fail("unbiasedness: %v", err)
				}
			}
			if ct.MeanOverBound != nil {
				bound := ct.MeanOverBound(o, m, uint64(truth))
				if mean := mom.Mean(); mean > truth+bound+cfg.Z*mom.StdErrMean() {
					fail("expected-overestimate: %s mean %.1f exceeds truth %.0f + bound %.1f", what, mean, truth, bound)
				}
			}
			if ct.VarCeiling != nil {
				bound := ct.VarCeiling(o, m, uint64(truth))
				if err := CheckVarianceAtMost(what, mom, bound, cfg.Z); err != nil {
					fail("variance bound: %v", err)
				}
			}
		}
	}
	return out
}

// Replay feeds every packet of a trace into an instance with unit
// weight, matching FromTrace's ground truth.
func Replay(inst Instance, tr *trace.Trace) {
	for i := range tr.Packets {
		inst.Insert(tr.Packets[i].Key, 1)
	}
}

// aggregate folds a native-granularity table onto a coarser mask.
func aggregate(table map[flowkey.FiveTuple]uint64, m flowkey.Mask) map[flowkey.FiveTuple]uint64 {
	out := make(map[flowkey.FiveTuple]uint64, len(table))
	for k, v := range table {
		out[m.Apply(k)] += v
	}
	return out
}
