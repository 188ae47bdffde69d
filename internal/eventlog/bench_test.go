package eventlog

import (
	"fmt"
	"testing"

	"spire/internal/event"
)

// BenchmarkAppend appends one epoch's events per call, at per-epoch batch
// sizes from a single event to a busy epoch's output.
func BenchmarkAppend(b *testing.B) {
	for _, batch := range []int{1, 16, 64} {
		b.Run(fmt.Sprintf("batch=%d", batch), func(b *testing.B) {
			l, err := Open(b.TempDir(), Options{})
			if err != nil {
				b.Fatal(err)
			}
			defer l.Close()
			evs := sampleEvents(batch)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := l.Append(evs...); err != nil {
					b.Fatal(err)
				}
			}
			b.SetBytes(int64(event.StreamSize(evs)) + int64(len(evs)*headerSize))
		})
	}
}

func BenchmarkReplay(b *testing.B) {
	dir := b.TempDir()
	l, err := Open(dir, Options{})
	if err != nil {
		b.Fatal(err)
	}
	for i := 0; i < 200; i++ {
		if err := l.Append(sampleEvents(64)...); err != nil {
			b.Fatal(err)
		}
	}
	if err := l.Close(); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		n := 0
		if err := Replay(dir, func(event.Event) error { n++; return nil }); err != nil {
			b.Fatal(err)
		}
		if n != 200*64 {
			b.Fatalf("replayed %d", n)
		}
	}
}
