// Package examples pins the output of the runnable examples: each one is
// built, run, and its stdout compared against a committed SHA-256 digest,
// so an example cannot silently change what it prints.
package examples

import (
	"crypto/sha256"
	"encoding/hex"
	"os/exec"
	"path/filepath"
	"testing"
)

// wantStdout maps each example to the SHA-256 of its stdout.
var wantStdout = map[string]string{
	"quickstart": "8fe05d0db42fc6d4e6d0c720e78f42f94c18ab4001190d870692b1cec83395d8",
	"warehouse":  "1e9eb58eb546cfbf1d8c2d50f7fe0ddd1aac578df2a76e6e2176211b4767ca35",
	"coldchain":  "e89e282f1312fccc8afb21cd46f0c8cda58edcffc54fe079dfc8715201f4b164",
	"decompress": "e1729a06c5aae7b4a0ecfba712cb31a865ca00d2ffae9c2a99691bbda3ba8f06",
	"federated":  "f3ce994aacb030503544e185ae9a6598dc24840ce6888906c7433bc5f374955f",
}

func TestExamplesOutput(t *testing.T) {
	dir := t.TempDir()
	for name, want := range wantStdout {
		t.Run(name, func(t *testing.T) {
			bin := filepath.Join(dir, name)
			if out, err := exec.Command("go", "build", "-o", bin, "spire/examples/"+name).CombinedOutput(); err != nil {
				t.Fatalf("go build: %v\n%s", err, out)
			}
			stdout, err := exec.Command(bin).Output()
			if err != nil {
				t.Fatalf("run: %v", err)
			}
			sum := sha256.Sum256(stdout)
			if got := hex.EncodeToString(sum[:]); got != want {
				t.Errorf("stdout sha256 %s, want %s (%d bytes)", got, want, len(stdout))
			}
		})
	}
}
