package core

import (
	"fmt"
	"math"
)

// checkSVector validates an instance before it reaches the plan cache: one
// selectivity per dimension, each in (0, 1]. A vector outside that domain
// would poison the cache once stored as an anchor, since GLFactors rejects
// it against every later instance.
func checkSVector(sv []float64, dims int) error {
	if len(sv) != dims {
		return fmt.Errorf("%w: %d selectivities, template takes %d", ErrInvalidSelectivity, len(sv), dims)
	}
	for i, x := range sv {
		if !(x > 0 && x <= 1) { // NaN fails both comparisons
			return fmt.Errorf("%w: selectivity %v at dimension %d is outside (0,1]", ErrInvalidSelectivity, x, i)
		}
	}
	return nil
}

// validAnchor reports whether (C, S) can anchor an instance entry: a
// finite optimal cost C > 0 and a finite sub-optimality S ≥ 1.
func validAnchor(c, s float64) bool {
	return c > 0 && s >= 1 && !math.IsInf(c, 1) && !math.IsInf(s, 1)
}

// GLFactors computes the paper's net cost increment factor G and net cost
// decrement factor L between a stored instance qe and a new instance qc
// (§5.3): with αi = si(qc)/si(qe),
//
//	G = ∏_{αi>1} αi   and   L = ∏_{αi<1} 1/αi.
//
// Under the BCG assumption with fi(α)=α, Cost(Pe,qe)/L < Cost(Pe,qc) <
// G·Cost(Pe,qe) (Cost Bounding Lemma) and SubOpt(Pe,qc) < G·L (Theorem 1).
func GLFactors(svE, svC []float64) (g, l float64, err error) {
	if len(svE) != len(svC) {
		return 0, 0, fmt.Errorf("core: selectivity vectors have lengths %d and %d", len(svE), len(svC))
	}
	for i := range svE {
		se, sc := svE[i], svC[i]
		if se <= 0 || sc <= 0 || se > 1 || sc > 1 ||
			math.IsNaN(se) || math.IsNaN(sc) {
			return 0, 0, fmt.Errorf("core: selectivity out of (0,1] at dimension %d: %v, %v", i, se, sc)
		}
	}
	g, l = glFactors(svE, svC)
	return g, l, nil
}

// glFactors is GLFactors' arithmetic without its validation, for the
// plan cache's checks: a query vector is validated before any check
// (checkSVector), and a stored one before it is stored.
func glFactors(svE, svC []float64) (g, l float64) {
	g, l = 1, 1
	svC = svC[:len(svE)]
	for i, se := range svE {
		alpha := svC[i] / se
		if alpha > 1 {
			g *= alpha
		} else if alpha < 1 {
			l *= 1 / alpha
		}
	}
	return g, l
}

// SelectivityRegionArea returns the area of the 2-dimensional selectivity
// based λ-optimal region around an instance with selectivities (s1, s2):
// (λ − 1/λ)·ln λ · s1·s2 (§5.3). Tests check the selectivity check's
// region against it.
func SelectivityRegionArea(lambda, s1, s2 float64) float64 {
	if lambda <= 1 {
		return 0
	}
	return (lambda - 1/lambda) * math.Log(lambda) * s1 * s2
}

// CostBounds returns the BCG-implied bounds on Cost(P, qc) given the plan's
// cost at qe (Cost Bounding Lemma): (costAtE/L, G·costAtE).
func CostBounds(costAtE, g, l float64) (lower, upper float64) {
	return costAtE / l, g * costAtE
}

// ViolatesBCG reports whether an observed recost ratio R =
// Cost(P,qc)/Cost(P,qe) falls outside the BCG-implied interval [1/L, G]
// (Appendix G). tolerance absorbs floating-point noise; the paper's
// detection is similarly approximate.
func ViolatesBCG(r, g, l, tolerance float64) bool {
	return r > g*(1+tolerance) || r < (1/l)*(1-tolerance)
}
