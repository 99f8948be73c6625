// Package plan defines physical execution plans: operator trees produced by
// the optimizer, consumed by the execution engine, cached by the PQO plan
// cache, and re-costed by the Recost API.
//
// A plan's structure is instance-independent; only cardinalities and costs
// change with the selectivity vector. Fingerprint() captures the structural
// identity used by the plan cache to detect "plan already stored".
package plan

import (
	"fmt"
	"strings"
	"sync/atomic"
)

// OpType identifies a physical operator.
type OpType int

const (
	// TableScan reads every row of a base table, applying all predicates
	// on that table as residual filters.
	TableScan OpType = iota
	// IndexScan performs a range scan via an index serving one predicate;
	// remaining predicates on the table are residual filters.
	IndexScan
	// NLJoin is a (block) nested-loops join.
	NLJoin
	// HashJoin builds on the right (inner) child, probes with the left.
	HashJoin
	// MergeJoin sorts both children as needed and merges.
	MergeJoin
	// HashAgg is a hash-based aggregation.
	HashAgg
	// StreamAgg is a sort-based aggregation.
	StreamAgg
)

// String returns the operator name used in plan display and fingerprints.
func (op OpType) String() string {
	switch op {
	case TableScan:
		return "TableScan"
	case IndexScan:
		return "IndexScan"
	case NLJoin:
		return "NLJoin"
	case HashJoin:
		return "HashJoin"
	case MergeJoin:
		return "MergeJoin"
	case HashAgg:
		return "HashAgg"
	case StreamAgg:
		return "StreamAgg"
	default:
		return fmt.Sprintf("Op(%d)", int(op))
	}
}

// IsJoin reports whether the operator is a binary join.
func (op OpType) IsJoin() bool {
	return op == NLJoin || op == HashJoin || op == MergeJoin
}

// Node is one operator in a plan tree.
type Node struct {
	Op OpType

	// Leaf fields (TableScan, IndexScan).
	Table string
	// Index and IndexColumn identify the index and the column whose
	// predicate the index serves (IndexScan only).
	Index       string
	IndexColumn string
	// Clustered records whether Index is the clustered index.
	Clustered bool
	// ResidualPreds is the number of predicates applied as filters after
	// the access path (all table predicates for TableScan; all but the
	// served one for IndexScan).
	ResidualPreds int

	// Join fields: JoinSel is the product of the selectivities of all join
	// edges applied at this node, fixed across instances. JoinCol and
	// RightJoinCol name the equi-join key ("table.column") on the outer and
	// inner side respectively; merge join ordering depends on both.
	JoinSel      float64
	JoinCol      string
	RightJoinCol string

	// Children: nil for leaves, [outer, inner] for joins, [input] for aggs.
	Children []*Node
}

// Plan is a complete physical plan for one query template. A Plan is
// immutable once built by New: its fingerprint is computed there and its
// text rendering is cached on first use.
type Plan struct {
	Root *Node
	// TemplateName records which template the plan belongs to.
	TemplateName string

	fingerprint string
	// text is String's rendering, stored by the first call. The optimizer
	// never renders: only callers that show a plan pay for its text.
	text atomic.Pointer[string]
}

// New wraps a root node into a Plan and precomputes its fingerprint.
func New(templateName string, root *Node) *Plan {
	p := &Plan{Root: root, TemplateName: templateName}
	p.fingerprint = fingerprintNode(root)
	return p
}

// Fingerprint returns a structural identity string: two plans for the same
// template with equal fingerprints are the same physical plan.
func (p *Plan) Fingerprint() string { return p.fingerprint }

func fingerprintNode(n *Node) string {
	if n == nil {
		return "nil"
	}
	var buf [256]byte
	return string(appendFingerprint(buf[:0], n))
}

// appendFingerprint appends n's fingerprint to b. It runs once per
// optimizer call, so it appends strings rather than formatting them.
func appendFingerprint(b []byte, n *Node) []byte {
	b = append(b, n.Op.String()...)
	switch n.Op {
	case TableScan:
		b = append(b, '(')
		b = append(b, n.Table...)
		b = append(b, ')')
	case IndexScan:
		b = append(b, '(')
		b = append(b, n.Table...)
		b = append(b, ':')
		b = append(b, n.Index...)
		b = append(b, ')')
	case NLJoin, HashJoin, MergeJoin:
		b = append(b, '[')
		b = append(b, n.JoinCol...)
		b = append(b, '=')
		b = append(b, n.RightJoinCol...)
		b = append(b, "]("...)
		b = appendFingerprint(b, n.Children[0])
		b = append(b, ',')
		b = appendFingerprint(b, n.Children[1])
		b = append(b, ')')
	case HashAgg, StreamAgg:
		b = append(b, '(')
		b = appendFingerprint(b, n.Children[0])
		b = append(b, ')')
	}
	return b
}

// Tables returns the set of base tables referenced under n.
func (n *Node) Tables() []string {
	var out []string
	n.walk(func(m *Node) {
		if m.Op == TableScan || m.Op == IndexScan {
			out = append(out, m.Table)
		}
	})
	return out
}

// NumOperators returns the number of operators in the subtree.
func (n *Node) NumOperators() int {
	count := 0
	n.walk(func(*Node) { count++ })
	return count
}

func (n *Node) walk(f func(*Node)) {
	if n == nil {
		return
	}
	f(n)
	for _, c := range n.Children {
		c.walk(f)
	}
}

// String renders the plan tree as an indented outline. The tree is
// rendered at most once per Plan; concurrent first calls may each render,
// and all of them return equal text.
func (p *Plan) String() string {
	if t := p.text.Load(); t != nil {
		return *t
	}
	t := p.render()
	p.text.Store(&t)
	return t
}

func (p *Plan) render() string {
	var b strings.Builder
	var rec func(n *Node, depth int)
	rec = func(n *Node, depth int) {
		if n == nil {
			return
		}
		b.WriteString(strings.Repeat("  ", depth))
		switch n.Op {
		case TableScan:
			fmt.Fprintf(&b, "TableScan %s", n.Table)
		case IndexScan:
			fmt.Fprintf(&b, "IndexScan %s via %s(%s)", n.Table, n.Index, n.IndexColumn)
		case NLJoin, HashJoin, MergeJoin:
			fmt.Fprintf(&b, "%s on %s (joinSel=%.3g)", n.Op, n.JoinCol, n.JoinSel)
		default:
			b.WriteString(n.Op.String())
		}
		b.WriteString("\n")
		for _, c := range n.Children {
			rec(c, depth+1)
		}
	}
	rec(p.Root, 0)
	return b.String()
}
