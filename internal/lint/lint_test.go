package lint_test

import (
	"os"
	"os/exec"
	"path/filepath"
	"testing"

	"golang.org/x/tools/go/analysis"

	"repro/internal/lint"
)

func TestAnalyzersValid(t *testing.T) {
	as := lint.Analyzers()
	if len(as) != 6 {
		t.Fatalf("Analyzers() returned %d analyzers, want 6", len(as))
	}
	if err := analysis.Validate(as); err != nil {
		t.Fatalf("invalid analyzer graph: %v", err)
	}
	seen := map[string]bool{}
	for _, a := range as {
		if seen[a.Name] {
			t.Errorf("duplicate analyzer name %q", a.Name)
		}
		seen[a.Name] = true
	}
}

// repoRoot walks up from the working directory to the module root.
func repoRoot(t *testing.T) string {
	t.Helper()
	dir, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	for {
		if _, err := os.Stat(filepath.Join(dir, "go.mod")); err == nil {
			return dir
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			t.Fatal("go.mod not found above test directory")
		}
		dir = parent
	}
}

// TestPqolintCleanOnTree is the meta-check: the repository must stay free of
// pqolint findings (modulo reasoned //lint:allow suppressions).
func TestPqolintCleanOnTree(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs the full linter")
	}
	root := repoRoot(t)
	bin := filepath.Join(t.TempDir(), "pqolint")

	build := exec.Command("go", "build", "-o", bin, "./cmd/pqolint")
	build.Dir = root
	if out, err := build.CombinedOutput(); err != nil {
		t.Fatalf("building pqolint: %v\n%s", err, out)
	}

	run := exec.Command(bin, "./...")
	run.Dir = root
	if out, err := run.CombinedOutput(); err != nil {
		t.Fatalf("pqolint is not clean on the tree:\n%s", out)
	}
}
