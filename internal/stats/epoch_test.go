package stats

import (
	"testing"

	"repro/internal/catalog"
	"repro/internal/datagen"
)

// TestEpochBirths checks the column-birth bookkeeping behind cost epochs:
// re-installing the same store moves nothing, a delta moves exactly the
// columns it names, and a rebuilt store moves every column.
func TestEpochBirths(t *testing.T) {
	cat := catalog.NewTPCH(0.01)
	st := Build(cat, datagen.New(cat, 11))
	ship, date := []string{"lineitem.l_shipdate"}, []string{"orders.o_orderdate"}
	both := append(append([]string(nil), ship...), date...)

	e := &Epoch{ID: 1, Store: st}
	e = e.Next(st) // epoch 2: nothing replaced
	if got := e.CostEpoch(both); got != 1 {
		t.Fatalf("same store: cost epoch %d, want 1", got)
	}
	next, err := st.Apply([]HistogramDelta{{Table: "orders", Column: "o_orderdate", Values: seq(500)}})
	if err != nil {
		t.Fatal(err)
	}
	e = e.Next(next) // epoch 3: o_orderdate replaced
	if got := e.CostEpoch(date); got != 3 {
		t.Errorf("delta column: cost epoch %d, want 3", got)
	}
	if got := e.CostEpoch(ship); got != 1 {
		t.Errorf("untouched column: cost epoch %d, want 1", got)
	}
	e = e.Next(next) // epoch 4: births carry over
	if got := e.CostEpoch(both); got != 3 {
		t.Errorf("carried birth: cost epoch %d, want 3", got)
	}
	if got := e.CostEpoch(nil); got != 1 {
		t.Errorf("empty footprint: cost epoch %d, want 1", got)
	}
	rebuilt := Build(cat, datagen.New(cat, 12))
	e = e.Next(rebuilt) // epoch 5: every histogram replaced
	if got := e.CostEpoch(ship); got != 5 {
		t.Errorf("rebuilt store: cost epoch %d, want 5", got)
	}
}
