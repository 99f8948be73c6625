// Package lintutil is the shared plumbing of the pqolint analyzers: the
// `//lint:allow <analyzer> <reason>` suppression convention, package-scope
// gating, and the CFG path searches used by the resource-pairing and
// post-domination checks (see docs/LINT.md).
package lintutil

import (
	"go/ast"
	"go/token"
	"os"
	"strings"
	"sync"

	"golang.org/x/tools/go/analysis"
	"golang.org/x/tools/go/cfg"
)

// allowPrefix introduces a suppression comment:
//
//	//lint:allow <analyzer>[,<analyzer>...] <reason>
//
// The comment suppresses matching diagnostics reported on its own line and
// on the line directly below it (so it works both as a trailing comment and
// as a standalone comment above the flagged statement). The reason is
// mandatory: an allow without one is itself reported, so every intentional
// invariant violation stays auditable.
const allowPrefix = "//lint:allow"

// allowRecord is one analyzer name an allow comment suppresses, together
// with the recorded reason.
type allowRecord struct {
	Name   string
	Reason string
}

// AllowSpec is one parsed //lint:allow comment: the analyzer names it
// suppresses and the mandatory reason (empty when the comment is
// malformed).
type AllowSpec struct {
	Names  []string
	Reason string
}

// ParseAllow parses a comment's text as a lint:allow comment. ok is false
// when the comment is not an allow comment or names no analyzer. A spec
// with an empty Reason is malformed: analyzers report it via
// ReportAllowMisuse, and pqolint -allows lists it as an audit error.
func ParseAllow(text string) (spec AllowSpec, ok bool) {
	if !strings.HasPrefix(text, allowPrefix) {
		return AllowSpec{}, false
	}
	fields := strings.Fields(strings.TrimPrefix(text, allowPrefix))
	if len(fields) == 0 {
		return AllowSpec{}, false
	}
	spec.Names = strings.Split(fields[0], ",")
	spec.Reason = strings.Join(fields[1:], " ")
	return spec, true
}

// allowTable indexes the suppression comments of one package.
type allowTable struct {
	// lines maps file name → line → suppressions active there.
	lines map[string]map[int][]allowRecord
	// malformed holds positions of allow comments with no reason, keyed by
	// the analyzer names they mention.
	malformed map[string][]token.Pos
}

var (
	tablesMu sync.Mutex
	tables   = map[*analysis.Pass]*allowTable{}
)

func allowsFor(pass *analysis.Pass) *allowTable {
	tablesMu.Lock()
	defer tablesMu.Unlock()
	if t, ok := tables[pass]; ok {
		return t
	}
	t := &allowTable{
		lines:     map[string]map[int][]allowRecord{},
		malformed: map[string][]token.Pos{},
	}
	for _, f := range pass.Files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				spec, ok := ParseAllow(c.Text)
				if !ok {
					continue // not an allow, or bare "//lint:allow"
				}
				if spec.Reason == "" {
					for _, n := range spec.Names {
						t.malformed[n] = append(t.malformed[n], c.Pos())
					}
					continue
				}
				p := pass.Fset.Position(c.Pos())
				m := t.lines[p.Filename]
				if m == nil {
					m = map[int][]allowRecord{}
					t.lines[p.Filename] = m
				}
				for _, n := range spec.Names {
					rec := allowRecord{Name: n, Reason: spec.Reason}
					m[p.Line] = append(m[p.Line], rec)
					m[p.Line+1] = append(m[p.Line+1], rec)
				}
			}
		}
	}
	tables[pass] = t
	return t
}

// SuppressedPrefix marks diagnostics that a //lint:allow comment matched:
// they are emitted (instead of dropped) only when EmitSuppressed is set,
// so pqolint -json can list intentional violations alongside real ones.
// The text inside the brackets after the colon is the recorded reason.
const SuppressedPrefix = "[suppressed:"

// EmitSuppressed reports whether suppressed diagnostics should be emitted
// with SuppressedPrefix rather than dropped. pqolint -json sets the
// environment variable so its report can include intentional violations.
func EmitSuppressed() bool {
	return os.Getenv("PQOLINT_EMIT_SUPPRESSED") == "1"
}

// Report files a diagnostic for pass's analyzer at pos unless a matching
// //lint:allow comment suppresses it. Under EmitSuppressed a suppressed
// diagnostic is emitted anyway, tagged with SuppressedPrefix and the
// allow's reason.
func Report(pass *analysis.Pass, pos token.Pos, format string, args ...any) {
	t := allowsFor(pass)
	p := pass.Fset.Position(pos)
	for _, rec := range t.lines[p.Filename][p.Line] {
		if rec.Name == pass.Analyzer.Name {
			if EmitSuppressed() {
				pass.Reportf(pos, SuppressedPrefix+"%s] "+format, append([]any{rec.Reason}, args...)...)
			}
			return
		}
	}
	pass.Reportf(pos, format, args...)
}

// ReportAllowMisuse files a diagnostic for every //lint:allow comment that
// names pass's analyzer but carries no reason. Each analyzer calls this once
// so that reason-less suppressions of its name are caught exactly once.
func ReportAllowMisuse(pass *analysis.Pass) {
	t := allowsFor(pass)
	for _, pos := range t.malformed[pass.Analyzer.Name] {
		pass.Reportf(pos, "lint:allow %s needs a reason: //lint:allow %s <why>", pass.Analyzer.Name, pass.Analyzer.Name)
	}
}

// InTestFile reports whether pos lies in a _test.go file.
func InTestFile(pass *analysis.Pass, pos token.Pos) bool {
	return strings.HasSuffix(pass.Fset.File(pos).Name(), "_test.go")
}

// PkgInScope reports whether the package path has any of the given path
// segments (e.g. "memo" matches repro/internal/memo). Analyzer fixtures use
// bare segment paths, so a full-path suffix match is also accepted.
func PkgInScope(path string, segments []string) bool {
	parts := strings.Split(path, "/")
	for _, want := range segments {
		for _, p := range parts {
			if p == want {
				return true
			}
		}
	}
	return false
}

// FindNode locates the CFG block and node index of node n, which must be a
// statement-level node (pointer identity). ok is false when the node is not
// in the graph (e.g. dead code).
func FindNode(g *cfg.CFG, n ast.Node) (b *cfg.Block, idx int, ok bool) {
	for _, blk := range g.Blocks {
		for i, nd := range blk.Nodes {
			if nd == n {
				return blk, i, true
			}
		}
	}
	return nil, 0, false
}

// LeaksToExit searches for a path from just after (start, idx) to a function
// exit that never passes a node satisfied by stop. skipEdge, when non-nil,
// prunes edges that must not be followed (e.g. the error branch of the
// acquisition's own err check). boundary, when non-nil, marks nodes that end
// the search on a path without deciding it (e.g. re-acquisition on a loop
// back edge). It returns the position of the escaping exit.
func LeaksToExit(start *cfg.Block, idx int, stop func(ast.Node) bool, skipEdge func(from, to *cfg.Block) bool, boundary func(ast.Node) bool) (token.Pos, bool) {
	type item struct {
		b   *cfg.Block
		idx int
	}
	seen := map[*cfg.Block]bool{}
	var walk func(it item) (token.Pos, bool)
	walk = func(it item) (token.Pos, bool) {
		for i := it.idx; i < len(it.b.Nodes); i++ {
			nd := it.b.Nodes[i]
			if stop(nd) {
				return token.NoPos, false
			}
			if boundary != nil && boundary(nd) {
				return token.NoPos, false
			}
		}
		if len(it.b.Succs) == 0 {
			if !it.b.Live {
				return token.NoPos, false
			}
			// Exit reached without a satisfying node.
			pos := token.NoPos
			if n := len(it.b.Nodes); n > 0 {
				pos = it.b.Nodes[n-1].Pos()
			} else if it.b.Stmt != nil {
				pos = it.b.Stmt.End()
			}
			return pos, true
		}
		for _, succ := range it.b.Succs {
			if seen[succ] {
				continue
			}
			if skipEdge != nil && skipEdge(it.b, succ) {
				continue
			}
			seen[succ] = true
			if pos, leak := walk(item{b: succ, idx: 0}); leak {
				return pos, true
			}
		}
		return token.NoPos, false
	}
	return walk(item{b: start, idx: idx})
}
