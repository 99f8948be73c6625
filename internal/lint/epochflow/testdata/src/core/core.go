// Package core models the statistics-epoch discipline for the epochflow
// analyzer: epoch-bearing artifacts (anchors, recost-cache keys,
// decisions) must carry the epoch they were computed under, and every
// recost-vs-anchor cost comparison must sit behind an epoch guard.
package core

type anchor struct {
	c, s  float64
	epoch uint64
}

type Decision struct {
	PlanID string
	Cost   float64
	Epoch  uint64
}

type recostKey struct {
	fp    string
	epoch uint64
}

type store struct {
	cur uint64
}

func (st *store) statsEpoch() uint64 { return st.cur }

func (st *store) costEpoch() uint64 { return st.cur }

func recostWithEpoch(fp string) (float64, uint64, error) { return 1, 0, nil }

func Recost(fp string) float64 { return 1 }

// Literals carrying their epoch: compliant.
func mkOK(st *store) (*Decision, recostKey, anchor) {
	d := &Decision{PlanID: "p", Cost: 1, Epoch: st.statsEpoch()}
	k := recostKey{fp: "f", epoch: st.statsEpoch()}
	a := anchor{c: 1, s: 1, epoch: st.statsEpoch()}
	return d, k, a
}

// Positional literals set every field, the epoch included: compliant.
func mkPositional() anchor { return anchor{1, 1, 7} }

// Zero-value scaffolding: compliant.
func mkZero() anchor { return anchor{} }

// Omitting the epoch pins the artifact to generation zero forever.
func mkBad() (*Decision, recostKey) {
	d := &Decision{PlanID: "p", Cost: 1} // want `composite literal of Decision omits its Epoch field`
	k := recostKey{fp: "f"}              // want `composite literal of recostKey omits its epoch field`
	return d, k
}

// guarded is the getPlan shape: the recost's epoch is checked against the
// anchor's before the ratio test. Compliant.
func guarded(a anchor, lam float64) bool {
	newCost, recEpoch, err := recostWithEpoch("f")
	if err != nil || recEpoch != a.epoch {
		return false
	}
	r := newCost / a.c
	return r <= lam/a.s
}

// guardedByParam receives the current epoch and checks it: compliant.
func guardedByParam(a anchor, epoch uint64) bool {
	if epoch != a.epoch {
		return false
	}
	return Recost("f") < a.c
}

// guardedByCostEpoch checks the template's cost epoch against one pinned
// earlier before comparing: compliant.
func guardedByCostEpoch(st *store, a anchor, pinned uint64) bool {
	if st.costEpoch() != pinned {
		return false
	}
	return Recost("f") < a.c
}

// unguarded divides a fresh recost by an anchor cost with no epoch check:
// the recost may be from a newer statistics generation than the anchor.
func unguarded(a anchor) bool {
	newCost := Recost("f")
	r := newCost / a.c // want `re-cost result compared against anchor statistics without an epoch guard`
	return r < 2
}

// bootstrap compares across generations on purpose while seeding; the
// allow records the reason.
func bootstrap(a anchor) bool {
	c := Recost("f")
	return c < a.c //lint:allow epochflow seeding compares against the previous generation by design
}

var (
	_ = mkOK
	_ = mkPositional
	_ = mkZero
	_ = mkBad
	_ = guarded
	_ = guardedByParam
	_ = guardedByCostEpoch
	_ = unguarded
	_ = bootstrap
)
