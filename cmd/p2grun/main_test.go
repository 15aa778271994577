package main

import (
	"errors"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

// TestMain runs main itself when the test binary is started as p2grun by
// runP2grun, with the arguments after "--".
func TestMain(m *testing.M) {
	if os.Getenv("P2GRUN_TEST_MAIN") == "1" {
		for i, a := range os.Args {
			if a == "--" {
				os.Args = append([]string{"p2grun"}, os.Args[i+1:]...)
				break
			}
		}
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// runP2grun runs p2grun with args and returns its exit status and stderr.
func runP2grun(t *testing.T, args ...string) (int, string) {
	t.Helper()
	cmd := exec.Command(os.Args[0], append([]string{"-test.run=^$", "--"}, args...)...)
	cmd.Env = append(os.Environ(), "P2GRUN_TEST_MAIN=1")
	var stderr strings.Builder
	cmd.Stderr = &stderr
	err := cmd.Run()
	var exit *exec.ExitError
	switch {
	case err == nil:
		return 0, stderr.String()
	case errors.As(err, &exit):
		return exit.ExitCode(), stderr.String()
	}
	t.Fatalf("running p2grun: %v", err)
	return 0, ""
}

// TestStalledRunExitsNonZero: a run that ends with kernel-ages stalled on
// dependencies nothing satisfies lists them and exits 1. The program is the
// wavefront example with predict's left neighbour fetched one row further
// on, pred(a)[x+2][y], which no instance stores for the last row of blocks;
// unchanged, the example exits 0.
func TestStalledRunExitsNonZero(t *testing.T) {
	src, err := os.ReadFile(filepath.Join("..", "..", "testdata", "wavefront.p2g"))
	if err != nil {
		t.Fatal(err)
	}
	const left = "fetch left = pred(a)[x+1][y];"
	if !strings.Contains(string(src), left) {
		t.Fatalf("wavefront.p2g has no %q", left)
	}
	dir := t.TempDir()
	good, stalled := filepath.Join(dir, "wavefront.p2g"), filepath.Join(dir, "stalled.p2g")
	if err := os.WriteFile(good, src, 0o644); err != nil {
		t.Fatal(err)
	}
	bad := strings.Replace(string(src), left, "fetch left = pred(a)[x+2][y];", 1)
	if err := os.WriteFile(stalled, []byte(bad), 0o644); err != nil {
		t.Fatal(err)
	}
	if code, stderr := runP2grun(t, "-workers", "2", good); code != 0 {
		t.Errorf("wavefront.p2g: exit status %d, want 0\n%s", code, stderr)
	}
	code, stderr := runP2grun(t, "-workers", "2", stalled)
	if code != 1 || !strings.Contains(stderr, "stalled kernel-ages") || !strings.Contains(stderr, "predict") {
		t.Errorf("stalled program: exit status %d, want 1 with the stalled predict ages listed\n%s", code, stderr)
	}
}
