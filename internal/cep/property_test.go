package cep

import (
	"fmt"
	"math/rand"
	"sync"
	"testing"

	"spire/internal/event"
	"spire/internal/model"
)

// propBytes deals deterministic generator input for the property tests
// from a seeded PRNG, so failures reproduce from the logged seed.
func propBytes(seed int64, n int) []byte {
	rng := rand.New(rand.NewSource(seed))
	b := make([]byte, n)
	rng.Read(b)
	return b
}

// TestPropertyWindowSpan: no match ever spans more than WITHIN — for
// every emitted match, At - Start <= W (and At >= Start).
func TestPropertyWindowSpan(t *testing.T) {
	for seed := int64(0); seed < 300; seed++ {
		g := &gen{data: propBytes(seed, 256)}
		src := genPattern(g)
		p, err := Parse(src)
		if err != nil {
			t.Fatalf("seed %d: parse %q: %v", seed, src, err)
		}
		e := NewEngine(Config{maxRuns: 1 << 20, maxMatches: 1 << 20})
		id, err := e.Subscribe(src)
		if err != nil {
			t.Fatalf("seed %d: subscribe %q: %v", seed, src, err)
		}
		stream := genStream(g)
		var flush model.Epoch
		if len(stream) > 0 {
			flush = stream[len(stream)-1].At + 20
		}
		feedEngine(e, stream, flush)
		ms, _, _ := e.Matches(id)
		for _, m := range ms {
			if m.At < m.Start {
				t.Fatalf("seed %d pattern %q: match ends before it starts: %+v", seed, src, m)
			}
			if p.Within > 0 && m.At-m.Start > p.Within {
				t.Fatalf("seed %d pattern %q: match spans %d > WITHIN %d: %+v",
					seed, src, m.At-m.Start, p.Within, m)
			}
		}
	}
}

// TestPropertyVacuousNot: a trailing NOT over an empty window is
// vacuously true — an anchor followed by silence always matches at
// exactly t1+W once the clock passes the window end.
func TestPropertyVacuousNot(t *testing.T) {
	for w := model.Epoch(1); w <= 40; w += 3 {
		src := fmt.Sprintf("SEQ(missing(), NOT any()) WITHIN %d", w)
		e := NewEngine(Config{})
		id, err := e.Subscribe(src)
		if err != nil {
			t.Fatal(err)
		}
		t1 := model.Epoch(5)
		e.Epoch(t1, []event.Event{event.NewMissing(model.Tag(42), 0, t1)})
		e.Epoch(t1+w+7, nil) // silence past the window end
		got, _, _ := e.Matches(id)
		if len(got) != 1 {
			t.Fatalf("WITHIN %d: want 1 vacuous match, got %+v", w, got)
		}
		if got[0].Start != t1 || got[0].At != t1+w {
			t.Fatalf("WITHIN %d: want match [%d,%d], got %+v", w, t1, t1+w, got[0])
		}
	}
}

// TestPropertyEvictionOldestFirst: run-cap eviction never drops a run
// younger than the oldest retained one. The testEvict hook reports the
// evicted run's anchor epoch and the anchor of the oldest survivor.
func TestPropertyEvictionOldestFirst(t *testing.T) {
	for seed := int64(0); seed < 200; seed++ {
		g := &gen{data: propBytes(seed+1000, 256)}
		src := genPattern(g)
		e := NewEngine(Config{maxRuns: 2 + g.n(4), maxMatches: 1 << 10})
		if _, err := e.Subscribe(src); err != nil {
			t.Fatalf("seed %d: subscribe %q: %v", seed, src, err)
		}
		evictions := 0
		e.testEvict = func(evicted, oldestRetained model.Epoch) {
			evictions++
			if evicted > oldestRetained {
				t.Fatalf("seed %d pattern %q: evicted run anchored at %d but retained older run anchored at %d",
					seed, src, evicted, oldestRetained)
			}
		}
		feedEngine(e, genStream(g), 0)
	}
}

// TestPropertyBoundedChurn: engine state stays bounded under a
// 10^5-subscription subscribe/unsubscribe churn with live traffic. A
// concurrent reader hammers the stats and match accessors so the run
// also exercises lock coverage under -race.
func TestPropertyBoundedChurn(t *testing.T) {
	const (
		total = 100_000
		live  = 64 // subscriptions kept live at any moment
	)
	e := NewEngine(Config{maxRuns: 8, maxMatches: 16})
	rng := rand.New(rand.NewSource(7))

	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			st := e.engineStats()
			if st.Runs < 0 || st.Queued < 0 {
				panic("negative stats")
			}
			for _, s := range e.Subscriptions() {
				e.Matches(s.ID)
			}
		}
	}()

	objs, _ := genTags()
	var ids []int
	now := model.Epoch(1)
	patterns := []string{
		"SEQ(missing(), NOT start()) WITHIN 5",
		"SEQ(start(0..4), end(@1)) WITHIN 7",
		"SEQ(any(), NOT any()) WITHIN 3",
		"SEQ(start() & level(case), start(1..3)) WITHIN 9",
	}
	for i := 0; i < total; i++ {
		id, err := e.Subscribe(patterns[i%len(patterns)])
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, id)
		if len(ids) > live {
			k := rng.Intn(len(ids))
			e.Unsubscribe(ids[k])
			ids[k] = ids[len(ids)-1]
			ids = ids[:len(ids)-1]
		}
		if i%4 == 0 {
			now++
			obj := objs[rng.Intn(len(objs))]
			e.Epoch(now, []event.Event{
				event.NewMissing(obj, model.LocationID(rng.Intn(5)), now),
				event.NewStartLocation(obj, model.LocationID(rng.Intn(5)), now),
			})
		}
	}
	close(stop)
	wg.Wait()

	st := e.engineStats()
	if st.Subs != live {
		t.Fatalf("want %d live subscriptions after churn, got %d", live, st.Subs)
	}
	// Every live subscription holds at most maxRuns runs; the deadline
	// FIFOs may additionally hold lazily-dead entries not yet popped, but
	// they can never exceed the total number of runs ever pushed and
	// still pending — bound it generously by live*maxRuns plus the dead
	// backlog cap.
	if st.Runs > live*8 {
		t.Fatalf("runs unbounded: %d live subs cap 8 but %d runs", live, st.Runs)
	}
	if st.Queued > st.Runs+live*8*2 {
		t.Fatalf("deadline FIFOs retain too many dead entries: runs=%d queued=%d", st.Runs, st.Queued)
	}
}
