// Package linttest is a self-contained analysistest replacement: it loads
// fixture packages from testdata/src/<pkg>, typechecks them (resolving
// fixture-local stub packages first and the standard library via the source
// importer), runs an analyzer together with its Requires dependencies, and
// compares the diagnostics against `// want "regexp"` comments.
//
// It exists because the x/tools analysistest package (and its go/packages
// dependency) is not vendored with the Go distribution; the subset of the
// analysis framework that is vendored (go/analysis, inspect, ctrlflow) is
// enough to drive analyzers directly. Facts are not modeled: no pqolint
// analyzer declares FactTypes, and running one that does is an error
// naming it. The one exception is the required ctrlflow pass, whose
// noReturn facts are only read by packages importing the analyzed one,
// which linttest never analyzes: its exports are dropped, and its imports
// find nothing, as for any callee outside the fixture.
package linttest

import (
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strconv"
	"strings"
	"sync"
	"testing"

	"golang.org/x/tools/go/analysis"
	"golang.org/x/tools/go/analysis/passes/ctrlflow"
)

// sharedFset is process-wide so the expensive source-importer work for the
// standard library is paid once across all analyzer tests.
var (
	sharedMu   sync.Mutex
	sharedFset = token.NewFileSet()
	sharedStd  types.Importer
	stdCache   = map[string]*types.Package{}
)

func stdImporter() types.Importer {
	if sharedStd == nil {
		sharedStd = importer.ForCompiler(sharedFset, "source", nil)
	}
	return sharedStd
}

// loader resolves fixture packages under root, falling back to the standard
// library importer.
type loader struct {
	root string
	fset *token.FileSet
	pkgs map[string]*fixturePkg
}

// fixturePkg is one loaded fixture package.
type fixturePkg struct {
	path  string
	files []*ast.File
	names []string // file names, parallel to files
	pkg   *types.Package
	info  *types.Info
}

func (l *loader) Import(path string) (*types.Package, error) {
	if fp, ok := l.pkgs[path]; ok {
		return fp.pkg, nil
	}
	if dir := filepath.Join(l.root, path); dirExists(dir) {
		fp, err := l.load(path)
		if err != nil {
			return nil, err
		}
		return fp.pkg, nil
	}
	sharedMu.Lock()
	defer sharedMu.Unlock()
	if p, ok := stdCache[path]; ok {
		return p, nil
	}
	p, err := stdImporter().Import(path)
	if err == nil {
		stdCache[path] = p
	}
	return p, err
}

func dirExists(dir string) bool {
	st, err := os.Stat(dir)
	return err == nil && st.IsDir()
}

// load parses and typechecks the fixture package at root/path.
func (l *loader) load(path string) (*fixturePkg, error) {
	if fp, ok := l.pkgs[path]; ok {
		return fp, nil
	}
	dir := filepath.Join(l.root, path)
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	fp := &fixturePkg{path: path}
	for _, e := range entries {
		if e.IsDir() || !strings.HasSuffix(e.Name(), ".go") {
			continue
		}
		name := filepath.Join(dir, e.Name())
		f, err := parser.ParseFile(l.fset, name, nil, parser.ParseComments)
		if err != nil {
			return nil, err
		}
		fp.files = append(fp.files, f)
		fp.names = append(fp.names, name)
	}
	if len(fp.files) == 0 {
		return nil, fmt.Errorf("linttest: no Go files in %s", dir)
	}
	fp.info = &types.Info{
		Types:      map[ast.Expr]types.TypeAndValue{},
		Defs:       map[*ast.Ident]types.Object{},
		Uses:       map[*ast.Ident]types.Object{},
		Implicits:  map[ast.Node]types.Object{},
		Selections: map[*ast.SelectorExpr]*types.Selection{},
		Scopes:     map[ast.Node]*types.Scope{},
		Instances:  map[*ast.Ident]types.Instance{},
	}
	conf := types.Config{Importer: l}
	pkg, err := conf.Check(path, l.fset, fp.files, fp.info)
	if err != nil {
		return nil, fmt.Errorf("linttest: typechecking %s: %w", path, err)
	}
	fp.pkg = pkg
	l.pkgs[path] = fp
	return fp, nil
}

// Run loads each named fixture package from testdata/src and checks a's
// diagnostics against the package's `// want` expectations.
func Run(t *testing.T, a *analysis.Analyzer, pkgs ...string) {
	t.Helper()
	root := filepath.Join("testdata", "src")
	for _, pkg := range pkgs {
		runOne(t, root, a, pkg)
	}
}

func runOne(t *testing.T, root string, a *analysis.Analyzer, pkgPath string) {
	t.Helper()
	sharedMu.Lock()
	fset := sharedFset
	sharedMu.Unlock()
	l := &loader{root: root, fset: fset, pkgs: map[string]*fixturePkg{}}
	fp, err := l.load(pkgPath)
	if err != nil {
		t.Fatalf("loading %s: %v", pkgPath, err)
	}

	var diags []analysis.Diagnostic
	if err := runAnalyzer(a, fp, fset, map[*analysis.Analyzer]any{}, &diags); err != nil {
		t.Fatalf("running %s on %s: %v", a.Name, pkgPath, err)
	}

	wants, err := parseWants(fp, fset)
	if err != nil {
		t.Fatalf("parsing want comments in %s: %v", pkgPath, err)
	}

	matched := make([]bool, len(wants))
	for _, d := range diags {
		p := fset.Position(d.Pos)
		found := false
		for i, w := range wants {
			if matched[i] || w.file != p.Filename || w.line != p.Line {
				continue
			}
			if w.rx.MatchString(d.Message) {
				matched[i] = true
				found = true
				break
			}
		}
		if !found {
			t.Errorf("%s: unexpected diagnostic: %s", posString(p), d.Message)
		}
	}
	for i, w := range wants {
		if !matched[i] {
			t.Errorf("%s:%d: expected diagnostic matching %q, got none", w.file, w.line, w.rx)
		}
	}
}

// runAnalyzer runs a (and, first, its Requires closure) over fp.
func runAnalyzer(a *analysis.Analyzer, fp *fixturePkg, fset *token.FileSet, results map[*analysis.Analyzer]any, diags *[]analysis.Diagnostic) error {
	if _, done := results[a]; done {
		return nil
	}
	if len(a.FactTypes) > 0 && a != ctrlflow.Analyzer {
		return fmt.Errorf("linttest: analyzer %s declares FactTypes; facts are not supported", a.Name)
	}
	resultOf := map[*analysis.Analyzer]any{}
	for _, req := range a.Requires {
		if err := runAnalyzer(req, fp, fset, results, nil); err != nil {
			return err
		}
		resultOf[req] = results[req]
	}
	pass := &analysis.Pass{
		Analyzer:   a,
		Fset:       fset,
		Files:      fp.files,
		Pkg:        fp.pkg,
		TypesInfo:  fp.info,
		TypesSizes: types.SizesFor("gc", "amd64"),
		ResultOf:   resultOf,
		Report: func(d analysis.Diagnostic) {
			if diags != nil {
				*diags = append(*diags, d)
			}
		},
		ReadFile:         os.ReadFile,
		ExportObjectFact: func(types.Object, analysis.Fact) {},
		ImportObjectFact: func(types.Object, analysis.Fact) bool { return false },
	}
	res, err := a.Run(pass)
	if err != nil {
		return fmt.Errorf("%s: %w", a.Name, err)
	}
	results[a] = res
	return nil
}

// want is one expectation: a diagnostic matching rx at (file, line).
type want struct {
	file string
	line int
	rx   *regexp.Regexp
}

var wantRe = regexp.MustCompile(`//\s*want\s+(.*)$`)

// parseWants extracts `// want "rx" ["rx" ...]` expectations from the
// package's files. Each quoted string is a separate expected diagnostic on
// that line.
func parseWants(fp *fixturePkg, fset *token.FileSet) ([]want, error) {
	var wants []want
	for i, f := range fp.files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				m := wantRe.FindStringSubmatch(c.Text)
				if m == nil {
					continue
				}
				p := fset.Position(c.Pos())
				rxs, err := splitQuoted(m[1])
				if err != nil {
					return nil, fmt.Errorf("%s:%d: %v", fp.names[i], p.Line, err)
				}
				for _, s := range rxs {
					rx, err := regexp.Compile(s)
					if err != nil {
						return nil, fmt.Errorf("%s:%d: bad want regexp %q: %v", fp.names[i], p.Line, s, err)
					}
					wants = append(wants, want{file: p.Filename, line: p.Line, rx: rx})
				}
			}
		}
	}
	sort.Slice(wants, func(i, j int) bool {
		if wants[i].file != wants[j].file {
			return wants[i].file < wants[j].file
		}
		return wants[i].line < wants[j].line
	})
	return wants, nil
}

// splitQuoted parses a sequence of Go-quoted or backquoted strings.
func splitQuoted(s string) ([]string, error) {
	var out []string
	s = strings.TrimSpace(s)
	for s != "" {
		if s[0] != '"' && s[0] != '`' {
			return nil, fmt.Errorf("want expectations must be quoted strings, got %q", s)
		}
		quote := s[0]
		end := -1
		for i := 1; i < len(s); i++ {
			if s[i] == quote && (quote == '`' || s[i-1] != '\\') {
				end = i
				break
			}
		}
		if end < 0 {
			return nil, fmt.Errorf("unterminated want string in %q", s)
		}
		lit := s[:end+1]
		unq, err := strconv.Unquote(lit)
		if err != nil {
			return nil, fmt.Errorf("bad want string %s: %v", lit, err)
		}
		out = append(out, unq)
		s = strings.TrimSpace(s[end+1:])
	}
	return out, nil
}

func posString(p token.Position) string {
	return fmt.Sprintf("%s:%d", p.Filename, p.Line)
}
