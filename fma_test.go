package spire_test

import (
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"runtime"
	"strings"
	"testing"
)

// fusedOp matches the fused multiply-add instructions of the
// architectures below: arm64's carry a D/S precision suffix, ppc64le's
// and s390x's double-precision forms none. Go may fuse x*y + z on all
// three, which rounds once where amd64 rounds twice.
var fusedOp = regexp.MustCompile(`\bFN?M(ADD|SUB)[DS]?\b`)

// TestNoFusedMultiplyAdd cross-compiles the packages whose float
// arithmetic feeds the paper's numbers (Eqs. 1–4, the simulator, SMURF)
// for each fusing architecture and fails on any fused multiply-add in
// their assembly: an explicit float64(…) conversion must round every
// product that meets an addition, so every architecture computes the
// bits amd64 does. The testdata control's x*y + z must be flagged, so a
// scan that matches nothing fails.
func TestNoFusedMultiplyAdd(t *testing.T) {
	goBin := filepath.Join(runtime.GOROOT(), "bin", "go")
	if _, err := os.Stat(goBin); err != nil {
		if goBin, err = exec.LookPath("go"); err != nil {
			t.Skip("no go command to cross-compile with")
		}
	}
	for _, arch := range []string{"arm64", "ppc64le", "s390x"} {
		t.Run(arch, func(t *testing.T) {
			if fused := fusedLines(t, goBin, arch, "./testdata/fma"); len(fused) == 0 {
				t.Error("the control's x*y + z was not flagged")
			}
			for _, line := range fusedLines(t, goBin, arch,
				"spire/internal/inference", "spire/internal/graph", "spire/internal/sim", "spire/internal/smurf") {
				t.Errorf("fused multiply-add: %s", line)
			}
		})
	}
}

// fusedLines builds pkgs for linux/arch and returns the assembly lines
// holding a fused multiply-add.
func fusedLines(t *testing.T, goBin, arch string, pkgs ...string) []string {
	t.Helper()
	cmd := exec.Command(goBin, append([]string{"build", "-gcflags=-S"}, pkgs...)...)
	cmd.Env = append(os.Environ(), "GOOS=linux", "GOARCH="+arch, "CGO_ENABLED=0")
	out, err := cmd.CombinedOutput()
	if err != nil {
		t.Fatalf("%s build: %v\n%s", arch, err, out)
	}
	if !strings.Contains(string(out), "TEXT") {
		t.Fatalf("%s build printed no assembly", arch)
	}
	var fused []string
	for _, line := range strings.Split(string(out), "\n") {
		if fusedOp.MatchString(line) {
			fused = append(fused, strings.TrimSpace(line))
		}
	}
	return fused
}
