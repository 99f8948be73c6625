package main_test

import (
	"encoding/json"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

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

func buildPqolint(t *testing.T) string {
	t.Helper()
	root := repoRoot(t)
	bin := filepath.Join(t.TempDir(), "pqolint")
	build := exec.Command("go", "build", "-o", bin, "./cmd/pqolint")
	build.Dir = root
	if out, err := build.CombinedOutput(); err != nil {
		t.Fatalf("building pqolint: %v\n%s", err, out)
	}
	return bin
}

// TestAllowsAudit exercises `pqolint -allows`: listing, unknown-analyzer
// and missing-reason detection over a synthetic tree, plus a clean audit
// of the real repository.
func TestAllowsAudit(t *testing.T) {
	if testing.Short() {
		t.Skip("builds the linter binary")
	}
	bin := buildPqolint(t)

	dir := t.TempDir()
	src := `package p

func a() {
	//lint:allow envpool cold path, measured and justified
	_ = make([]int, 8)
}

func b() {
	//lint:allow nosuchanalyzer this analyzer does not exist
	_ = 1
	//lint:allow rcupublish
	_ = 2
}
`
	if err := os.WriteFile(filepath.Join(dir, "p.go"), []byte(src), 0o644); err != nil {
		t.Fatal(err)
	}
	// Allows under testdata must be excluded from the audit.
	td := filepath.Join(dir, "testdata")
	if err := os.MkdirAll(td, 0o755); err != nil {
		t.Fatal(err)
	}
	fixture := "package q\n\nfunc f() {\n\t//lint:allow alsonotreal fixture allows are not audited\n}\n"
	if err := os.WriteFile(filepath.Join(td, "q.go"), []byte(fixture), 0o644); err != nil {
		t.Fatal(err)
	}

	cmd := exec.Command(bin, "-allows", dir)
	out, err := cmd.Output()
	ee, _ := err.(*exec.ExitError)
	if ee == nil || ee.ExitCode() != 1 {
		t.Fatalf("-allows with bad suppressions: got err %v, want exit status 1\nstdout:\n%s", err, out)
	}
	stderr := string(ee.Stderr)
	if !strings.Contains(stderr, `unknown analyzer "nosuchanalyzer"`) {
		t.Errorf("stderr does not flag the unknown analyzer:\n%s", stderr)
	}
	if !strings.Contains(stderr, "lint:allow rcupublish has no reason") {
		t.Errorf("stderr does not flag the reason-less allow:\n%s", stderr)
	}
	if strings.Contains(stderr, "alsonotreal") {
		t.Errorf("testdata allows leaked into the audit:\n%s", stderr)
	}
	if want := "envpool\tcold path, measured and justified"; !strings.Contains(string(out), want) {
		t.Errorf("stdout missing the valid allow row %q:\n%s", want, out)
	}

	// The repository's own allows must audit clean.
	repo := exec.Command(bin, "-allows")
	repo.Dir = repoRoot(t)
	repoOut, err := repo.CombinedOutput()
	if err != nil {
		t.Fatalf("-allows on the repository tree failed: %v\n%s", err, repoOut)
	}
	if !strings.Contains(string(repoOut), "rcupublish\tintentional second-chance re-check") {
		t.Errorf("repository audit is missing the known rcupublish allow:\n%s", repoOut)
	}
}

// pqolintFinding mirrors the -json output schema.
type pqolintFinding struct {
	Pos          string `json:"pos"`
	Analyzer     string `json:"analyzer"`
	Message      string `json:"message"`
	SuppressedBy string `json:"suppressedBy"`
}

// TestJSONFindings exercises `pqolint -json`: on a clean package of the
// repository it must exit 0 while still listing suppressed findings with
// their allow reasons; on a module seeded with rcupublish's rcu fixture it
// must exit 1, report the fixture's violations unsuppressed and its
// allowed one suppressed.
func TestJSONFindings(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs the full linter")
	}
	bin := buildPqolint(t)
	root := repoRoot(t)

	cmd := exec.Command(bin, "-json", "./internal/core/")
	cmd.Dir = root
	out, err := cmd.Output()
	if err != nil {
		t.Fatalf("-json on a clean package: %v\n%s", err, out)
	}
	findings := parseFindings(t, out)
	for _, f := range findings {
		if f.SuppressedBy == "" {
			t.Errorf("clean package reported a live finding: %+v", f)
		}
	}
	checkSuppressed(t, findings, "scr.go", "intentional second-chance re-check after winning the flight")

	// A module seeded with the rcu fixture: its double loads are live
	// findings, so -json must exit 1 and carry them. The fixture's
	// // want comments are analysistest markup, not source.
	mod := t.TempDir()
	if err := os.WriteFile(filepath.Join(mod, "go.mod"), []byte("module seeded\n\ngo 1.22\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	fixture, err := os.ReadFile(filepath.Join(root, "internal/lint/rcupublish/testdata/src/rcu/rcu.go"))
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(mod, "rcu.go"), fixture, 0o644); err != nil {
		t.Fatal(err)
	}
	seeded := exec.Command(bin, "-json", "./...")
	seeded.Dir = mod
	sout, serr := seeded.Output()
	ee, _ := serr.(*exec.ExitError)
	if ee == nil || ee.ExitCode() != 1 {
		t.Fatalf("-json on seeded module: got err %v, want exit status 1\nstdout:\n%s", serr, sout)
	}
	seededFindings := parseFindings(t, sout)
	live := 0
	for _, f := range seededFindings {
		if f.Analyzer == "rcupublish" && f.SuppressedBy == "" {
			live++
		}
	}
	if live != 2 {
		t.Errorf("seeded module produced %d live rcupublish findings, want 2 (Double, Mixed):\n%s", live, sout)
	}
	checkSuppressed(t, seededFindings, "rcu.go", "second-chance version re-check is intentional")
}

// parseFindings decodes a -json artifact and checks every finding's fields.
func parseFindings(t *testing.T, out []byte) []pqolintFinding {
	t.Helper()
	var findings []pqolintFinding
	if err := json.Unmarshal(out, &findings); err != nil {
		t.Fatalf("-json output is not a JSON array: %v\n%s", err, out)
	}
	for _, f := range findings {
		if f.Pos == "" || f.Analyzer == "" || f.Message == "" {
			t.Errorf("finding with missing fields: %+v", f)
		}
	}
	return findings
}

// checkSuppressed asserts that findings hold a suppressed rcupublish
// finding in file carrying reason, its message free of the suppression
// prefix.
func checkSuppressed(t *testing.T, findings []pqolintFinding, file, reason string) {
	t.Helper()
	for _, f := range findings {
		if f.Analyzer != "rcupublish" || !strings.Contains(f.Pos, file) || f.SuppressedBy == "" {
			continue
		}
		if f.SuppressedBy != reason {
			t.Errorf("suppression reason = %q, want %q", f.SuppressedBy, reason)
		}
		if strings.Contains(f.Message, "[suppressed:") {
			t.Errorf("suppression prefix not stripped from message: %q", f.Message)
		}
		return
	}
	t.Errorf("suppressed rcupublish finding in %s not in artifact: %+v", file, findings)
}
