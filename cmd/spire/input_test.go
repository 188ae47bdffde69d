package main

import (
	"bytes"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"

	"spire/internal/epc"
	"spire/internal/model"
	"spire/internal/sim"
	"spire/internal/stream"
)

// TestInputEdgeCases pins how spire -input treats a hand-built raw
// stream: epoch-0 readings are preamble and skipped; readers interleaved
// within an epoch are regrouped ascending, each keeping its arrival
// order; an epoch stamped before its predecessor fails the run, and so
// does an epoch repeated after a later one (the feed owns input order,
// so neither reaches the substrate); and a torn final record fails the run without processing the epoch it was
// read in, while every earlier epoch is still delivered.
func TestInputEdgeCases(t *testing.T) {
	s, err := sim.New(sim.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	r1, r2 := s.Readers()[0].ID, s.Readers()[1].ID
	item := func(n uint32) model.Tag {
		return epc.MustEncode(epc.Identity{Level: model.LevelItem, Company: 7, Serial: n})
	}
	rd := func(e model.Epoch, r model.ReaderID, n uint32) model.Reading {
		return model.Reading{Tag: item(n), Reader: r, Time: e}
	}
	encode := func(rs ...model.Reading) []byte {
		var buf bytes.Buffer
		w := stream.NewWriter(&buf)
		for _, x := range rs {
			if err := w.Write(x); err != nil {
				t.Fatal(err)
			}
		}
		if err := w.Flush(); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	clean := encode(
		rd(0, r1, 1), rd(0, r2, 2), // preamble
		rd(3, r2, 10), rd(3, r1, 11), rd(3, r2, 12), // interleaved
		rd(5, r1, 13),
	)
	disordered := encode(rd(3, r1, 10), rd(5, r1, 11), rd(4, r1, 12), rd(6, r1, 13))
	repeated := encode(rd(3, r1, 10), rd(5, r1, 11), rd(3, r1, 12), rd(6, r1, 13))
	full := encode(rd(3, r1, 10), rd(5, r1, 11), rd(5, r2, 12), rd(5, r1, 14))
	torn := full[:len(full)-stream.ReadingSize/2]

	want3 := model.NewBatch(3)
	want3.AppendGroup(r1, []model.Tag{item(11)})
	want3.AppendGroup(r2, []model.Tag{item(10), item(12)})
	want5 := model.NewBatch(5)
	want5.AppendGroup(r1, []model.Tag{item(13)})
	only3 := model.NewBatch(3)
	only3.AppendGroup(r1, []model.Tag{item(10)})

	dir := t.TempDir()
	for _, tc := range []struct {
		name    string
		raw     []byte
		want    []*model.Batch
		wantErr string // "" for a clean run
	}{
		{"clean", clean, []*model.Batch{want3, want5}, ""},
		{"disordered", disordered, []*model.Batch{only3}, "not ordered by epoch (4 after 5)"},
		{"repeated", repeated, []*model.Batch{only3}, "not ordered by epoch (3 after 5)"},
		{"torn", torn, []*model.Batch{only3}, "corrupt raw reading stream"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			path := filepath.Join(dir, tc.name+".bin")
			if err := os.WriteFile(path, tc.raw, 0o644); err != nil {
				t.Fatal(err)
			}
			in := make(chan *model.Batch, 8)
			err := feedStream(path, model.EpochNone, in)
			close(in)
			var got []string
			for b := range in {
				got = append(got, fmt.Sprint(b.Time, b.Groups, b.Tags))
			}
			var want []string
			for _, b := range tc.want {
				want = append(want, fmt.Sprint(b.Time, b.Groups, b.Tags))
			}
			if fmt.Sprint(got) != fmt.Sprint(want) {
				t.Errorf("fed %v, want %v", got, want)
			}
			if (err == nil) != (tc.wantErr == "") || err != nil && !strings.Contains(err.Error(), tc.wantErr) {
				t.Errorf("feed error %v, want %q", err, tc.wantErr)
			}

			cmd := exec.Command(filepath.Join(binDir, "spire"), "-input", path, "-level", "2")
			var stderr bytes.Buffer
			cmd.Stderr = &stderr
			runErr := cmd.Run()
			if tc.wantErr == "" {
				if runErr != nil {
					t.Fatalf("spire: %v\n%s", runErr, stderr.String())
				}
				return
			}
			if _, ok := runErr.(*exec.ExitError); !ok {
				t.Fatalf("spire exited with %v, want a non-zero exit", runErr)
			}
			if !strings.Contains(stderr.String(), tc.wantErr) {
				t.Errorf("spire stderr does not name the failure %q:\n%s", tc.wantErr, stderr.String())
			}
		})
	}
}
