package plan

import (
	"fmt"
	"sort"
	"strings"
	"testing"
)

func leaf(table string) *Node {
	return &Node{Op: TableScan, Table: table}
}

func ixLeaf(table, index, col string) *Node {
	return &Node{Op: IndexScan, Table: table, Index: index, IndexColumn: col}
}

func join(op OpType, col string, sel float64, l, r *Node) *Node {
	return &Node{Op: op, JoinCol: col, JoinSel: sel, Children: []*Node{l, r}}
}

func TestFingerprintStableAndDiscriminating(t *testing.T) {
	p1 := New("q", join(HashJoin, "k", 0.001, leaf("a"), leaf("b")))
	p2 := New("q", join(HashJoin, "k", 0.001, leaf("a"), leaf("b")))
	if p1.Fingerprint() != p2.Fingerprint() {
		t.Error("identical plans must have equal fingerprints")
	}
	variants := []*Plan{
		New("q", join(NLJoin, "k", 0.001, leaf("a"), leaf("b"))),                // different alg
		New("q", join(HashJoin, "k", 0.001, leaf("b"), leaf("a"))),              // swapped children
		New("q", join(HashJoin, "k", 0.001, ixLeaf("a", "ix", "c"), leaf("b"))), // different access path
	}
	seen := map[string]bool{p1.Fingerprint(): true}
	for i, v := range variants {
		if seen[v.Fingerprint()] {
			t.Errorf("variant %d collides with an earlier fingerprint: %s", i, v.Fingerprint())
		}
		seen[v.Fingerprint()] = true
	}
}

func TestFingerprintIgnoresJoinSel(t *testing.T) {
	// JoinSel is derived data; structural identity must not depend on it.
	p1 := New("q", join(HashJoin, "k", 0.001, leaf("a"), leaf("b")))
	p2 := New("q", join(HashJoin, "k", 0.002, leaf("a"), leaf("b")))
	if p1.Fingerprint() != p2.Fingerprint() {
		t.Error("fingerprint should not depend on JoinSel")
	}
}

func TestTablesAndNumOperators(t *testing.T) {
	root := &Node{Op: HashAgg, Children: []*Node{
		join(MergeJoin, "k", 0.01,
			join(HashJoin, "j", 0.001, leaf("a"), ixLeaf("b", "ixb", "x")),
			leaf("c")),
	}}
	p := New("q", root)
	tabs := p.Root.Tables()
	sort.Strings(tabs)
	if strings.Join(tabs, ",") != "a,b,c" {
		t.Errorf("Tables() = %v, want [a b c]", tabs)
	}
	if got := p.Root.NumOperators(); got != 6 {
		t.Errorf("NumOperators() = %d, want 6", got)
	}
}

func TestStringRendering(t *testing.T) {
	p := New("q", &Node{Op: StreamAgg, Children: []*Node{
		join(NLJoin, "k", 0.5, leaf("a"), ixLeaf("b", "ixb", "x")),
	}})
	s := p.String()
	for _, want := range []string{"StreamAgg", "NLJoin", "TableScan a", "IndexScan b via ixb(x)"} {
		if !strings.Contains(s, want) {
			t.Errorf("String() missing %q:\n%s", want, s)
		}
	}
}

func TestOpTypeString(t *testing.T) {
	ops := map[OpType]string{
		TableScan: "TableScan", IndexScan: "IndexScan", NLJoin: "NLJoin",
		HashJoin: "HashJoin", MergeJoin: "MergeJoin", HashAgg: "HashAgg", StreamAgg: "StreamAgg",
	}
	for op, want := range ops {
		if op.String() != want {
			t.Errorf("%d.String() = %q, want %q", int(op), op.String(), want)
		}
	}
	if !HashJoin.IsJoin() || TableScan.IsJoin() || HashAgg.IsJoin() {
		t.Error("IsJoin misclassifies operators")
	}
	if !strings.Contains(OpType(42).String(), "42") {
		t.Error("unknown op String() should include the code")
	}
}

func TestNilRootFingerprint(t *testing.T) {
	p := New("q", nil)
	if p.Fingerprint() != "nil" {
		t.Errorf("nil root fingerprint = %q", p.Fingerprint())
	}
	if p.Root.NumOperators() != 0 {
		t.Error("nil root should have 0 operators")
	}
}

// formatFingerprint is the fingerprint as fmt formats it: the format
// persisted snapshots and plan-cache keys were written in.
func formatFingerprint(n *Node, b *strings.Builder) {
	b.WriteString(n.Op.String())
	switch n.Op {
	case TableScan:
		fmt.Fprintf(b, "(%s)", n.Table)
	case IndexScan:
		fmt.Fprintf(b, "(%s:%s)", n.Table, n.Index)
	case NLJoin, HashJoin, MergeJoin:
		fmt.Fprintf(b, "[%s=%s](", n.JoinCol, n.RightJoinCol)
		formatFingerprint(n.Children[0], b)
		b.WriteString(",")
		formatFingerprint(n.Children[1], b)
		b.WriteString(")")
	case HashAgg, StreamAgg:
		b.WriteString("(")
		formatFingerprint(n.Children[0], b)
		b.WriteString(")")
	}
}

// TestFingerprintMatchesFormatted checks the appended fingerprint against
// the formatted one on every operator, including a tree longer than the
// stack buffer it is built in.
func TestFingerprintMatchesFormatted(t *testing.T) {
	deep := leaf("t0")
	for i := 1; i < 12; i++ {
		r := &Node{Op: MergeJoin, JoinCol: fmt.Sprintf("t%d.c", i-1), RightJoinCol: fmt.Sprintf("t%d.c", i),
			Children: []*Node{ixLeaf(fmt.Sprintf("t%d", i), "ix_c", "c"), deep}}
		deep = r
	}
	for _, root := range []*Node{
		leaf("a"),
		ixLeaf("a", "ix", "c"),
		&Node{Op: HashAgg, Children: []*Node{join(HashJoin, "a.k", 0.1, leaf("a"), ixLeaf("b", "ix_k", "k"))}},
		&Node{Op: StreamAgg, Children: []*Node{join(NLJoin, "a.k", 0.1, leaf("a"), leaf("b"))}},
		{Op: OpType(42)},
		deep,
	} {
		var b strings.Builder
		formatFingerprint(root, &b)
		if got := New("q", root).Fingerprint(); got != b.String() {
			t.Errorf("fingerprint %q, formatted %q", got, b.String())
		}
	}
}
