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

// fusedOp matches arm64's fused multiply-add instructions. Go may fuse
// x*y + z on arm64, which rounds once where amd64 rounds twice.
var fusedOp = regexp.MustCompile(`\bFN?M(ADD|SUB)[DS]\b`)

// TestNoFusedMultiplyAddOnArm64 cross-compiles the packages whose float
// arithmetic feeds the paper's numbers (Eqs. 1–4, the simulator, SMURF)
// for arm64 and fails on any fused multiply-add in their assembly: an
// explicit float64(…) conversion must round every product that meets an
// addition, so every architecture computes the bits amd64 does.
func TestNoFusedMultiplyAddOnArm64(t *testing.T) {
	goBin := filepath.Join(runtime.GOROOT(), "bin", "go")
	if _, err := os.Stat(goBin); err != nil {
		if goBin, err = exec.LookPath("go"); err != nil {
			t.Skip("no go command to cross-compile with")
		}
	}
	cmd := exec.Command(goBin, "build", "-gcflags=-S",
		"spire/internal/inference", "spire/internal/graph", "spire/internal/sim", "spire/internal/smurf")
	cmd.Env = append(os.Environ(), "GOOS=linux", "GOARCH=arm64", "CGO_ENABLED=0")
	out, err := cmd.CombinedOutput()
	if err != nil {
		t.Fatalf("arm64 build: %v\n%s", err, out)
	}
	if !strings.Contains(string(out), "TEXT") {
		t.Fatal("arm64 build printed no assembly")
	}
	for _, line := range strings.Split(string(out), "\n") {
		if fusedOp.MatchString(line) {
			t.Errorf("fused multiply-add: %s", strings.TrimSpace(line))
		}
	}
}
