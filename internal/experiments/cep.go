package experiments

import (
	"fmt"

	"spire/internal/cep"
	"spire/internal/core"
	"spire/internal/inference"
	"spire/internal/model"
	"spire/internal/query"
	"spire/internal/sim"
)

// The subscription-quality experiment scores the three built-in
// detectors (theft, misroute, cold-chain excursion) against the
// simulator's ground-truth anomaly logs, sweeping reader dropout to show
// how absence-based patterns degrade: dropout bursts manufacture
// spurious Missing reports, which the trailing NOT must absorb by
// waiting out the window. Detection windows are fixed per detector, so
// the sweep isolates the input-noise effect the paper's Expt 4 alludes
// to.
const (
	cepTheftWindow    = 120 // > worst dropout burst + shelf scan cycle
	cepMisrouteWindow = 30  // uncontain → shelf detection lag
	cepColdWindow     = 40  // > shuffle dwell + scan lag, < excursion dwell
)

// cepSim is the anomaly workload: a busy warehouse with all four
// injectors on. Shelf dwell is short so stolen cases would be re-sighted
// quickly if present, and the cold share is high enough for excursions
// to always find cargo.
func cepSim(o Options) sim.Config {
	c := sim.DefaultConfig()
	c.Seed = 11
	c.Duration = 5200
	c.PalletInterval = 60
	c.CasesMin, c.CasesMax = 2, 4
	c.ItemsPerCase = 2
	c.ReadRate = 0.96
	c.ShelfPeriod = 10
	c.NumShelves = 6
	c.ShelfTime = 200
	c.TheftInterval = 150
	c.MisrouteInterval = 180
	c.ColdCasePeriod = 3
	c.ExcursionInterval = 260
	c.ExcursionDwell = 70
	c.ColdShuffleInterval = 140
	c.ColdShuffleDwell = 6
	if o.Quick {
		c.Duration = 2600
	}
	return c
}

// cepDropout is one sweep row: a reader-dropout fault schedule.
type cepDropout struct {
	label      string
	every, len model.Epoch
}

func cepDropouts() []cepDropout {
	return []cepDropout{
		{"none", 0, 0},
		{"200x5", 200, 5},
		{"120x8", 120, 8},
		{"60x12", 60, 12},
	}
}

// cepMatches collects each detector's matches from one replay.
type cepMatches struct {
	theft, misroute, cold []cep.Match
	final                 model.Epoch
}

// runCEPRow replays the shared clean trace (faulted per the row's
// schedule) through a fresh substrate with the three detectors attached
// behind the watcher, exactly as cmd/spire -subscribe wires them.
func runCEPRow(trace []*model.Batch, s *sim.Simulator, d cepDropout) (*cepMatches, error) {
	sub, err := core.New(core.Config{
		Readers:     s.Readers(),
		Locations:   s.Locations(),
		Inference:   inference.DefaultConfig(),
		Compression: core.Level2,
	})
	if err != nil {
		return nil, err
	}
	first, last := s.ShelfRange()
	layout := cep.Layout{
		ShelfFirst: first, ShelfLast: last,
		InboundFirst: s.EntryLocation(), InboundLast: first - 1,
		Packaging:   s.PackagingLocation(),
		ColdShelf:   s.ColdShelf(),
		ColdCompany: sim.ColdCompany,
	}
	engine := cep.NewEngine(cep.Config{})
	out := &cepMatches{}
	subscribe := func(src string, sink *[]cep.Match) error {
		_, err := engine.SubscribeFunc(src, func(m cep.Match) { *sink = append(*sink, m) })
		return err
	}
	if err := subscribe(cep.TheftPattern(cepTheftWindow), &out.theft); err != nil {
		return nil, err
	}
	if err := subscribe(cep.MisroutePattern(layout, cepMisrouteWindow), &out.misroute); err != nil {
		return nil, err
	}
	if err := subscribe(cep.ColdChainPattern(layout, cepColdWindow), &out.cold); err != nil {
		return nil, err
	}
	w := query.NewWatcher()
	engine.Attach(w)
	sub.Watch(w)

	// The injector clones every batch; for the clean row we must clone
	// too, since the substrate consumes batches destructively and the
	// trace is shared across rows.
	var delivery []*model.Batch
	if d.every > 0 {
		inj := sim.NewFaultInjector(sim.FaultConfig{
			Seed:         31 + int64(d.every),
			DropoutEvery: d.every,
			DropoutLen:   d.len,
		})
		delivery = inj.Apply(trace)
	} else {
		delivery = make([]*model.Batch, len(trace))
		for i, b := range trace {
			delivery[i] = b.Clone()
		}
	}
	for _, b := range delivery {
		if _, err := sub.ProcessBatch(b); err != nil {
			return nil, err
		}
	}
	out.final = trace[len(trace)-1].Time
	sub.Close(out.final + 1)
	return out, nil
}

// cepScore is unique-object precision/recall: an anomaly object is
// detected iff the detector has a match for it completing at or after
// the ground-truth epoch; matched objects outside the full truth log are
// false positives. Anomalies too close to the end of the trace to finish
// a window are excluded from scoring (but never counted against
// precision).
func cepScore(truth, lateTruth map[model.Tag]model.Epoch, ms []cep.Match) (p, r, f1, delay float64) {
	tp, fp, fn := 0, 0, 0
	var delaySum float64
	for obj, at := range truth {
		best := model.Epoch(-1)
		for _, m := range ms {
			if m.Object == obj && m.At >= at && (best < 0 || m.At < best) {
				best = m.At
			}
		}
		if best >= 0 {
			tp++
			delaySum += float64(best - at)
		} else {
			fn++
		}
	}
	seen := make(map[model.Tag]bool)
	for _, m := range ms {
		if seen[m.Object] {
			continue
		}
		seen[m.Object] = true
		if _, ok := truth[m.Object]; ok {
			continue
		}
		if _, ok := lateTruth[m.Object]; ok {
			continue
		}
		fp++
	}
	p, r = 1, 1
	if tp+fp > 0 {
		p = float64(tp) / float64(tp+fp)
	}
	if tp+fn > 0 {
		r = float64(tp) / float64(tp+fn)
	}
	if p+r > 0 {
		f1 = 2 * p * r / (p + r)
	}
	if tp > 0 {
		delay = delaySum / float64(tp)
	}
	return p, r, f1, delay
}

// cepTruth splits an anomaly log into scorable truth (window can finish
// before the trace ends) and late truth (excluded both ways), keyed by
// the first anomaly per object.
func cepTruth(final, window model.Epoch, log func(add func(model.Tag, model.Epoch))) (truth, late map[model.Tag]model.Epoch) {
	truth = make(map[model.Tag]model.Epoch)
	late = make(map[model.Tag]model.Epoch)
	cutoff := final - window - 4*10 // window + detection slack (shelf scans)
	log(func(obj model.Tag, at model.Epoch) {
		m := truth
		if at > cutoff {
			m = late
		}
		if prev, ok := m[obj]; !ok || at < prev {
			m[obj] = at
		}
	})
	// An object anomalous both early and late scores on the early epoch.
	for obj := range truth {
		delete(late, obj)
	}
	return truth, late
}

// CEPQuality scores the built-in detectors against ground truth across
// reader-dropout schedules: precision, recall, F1 and mean detection
// delay (epochs from the true anomaly to the completing match).
func CEPQuality(o Options) (*Table, error) {
	sc := cepSim(o)
	s, err := sim.New(sc)
	if err != nil {
		return nil, err
	}
	var trace []*model.Batch
	for !s.Done() {
		b, err := s.Step()
		if err != nil {
			return nil, err
		}
		trace = append(trace, b)
	}
	final := trace[len(trace)-1].Time

	theftTruth, theftLate := cepTruth(final, cepTheftWindow, func(add func(model.Tag, model.Epoch)) {
		for _, th := range s.Thefts() {
			add(th.Case, th.At)
		}
	})
	misTruth, misLate := cepTruth(final, cepMisrouteWindow, func(add func(model.Tag, model.Epoch)) {
		for _, m := range s.Misroutes() {
			add(m.Case, m.At)
		}
	})
	coldTruth, coldLate := cepTruth(final, cepColdWindow, func(add func(model.Tag, model.Epoch)) {
		for _, e := range s.Excursions() {
			add(e.Case, e.At)
		}
	})

	drops := cepDropouts()
	rows := make([]*cepMatches, len(drops))
	if err := runCells(len(drops), o.Workers, func(i int) error {
		var err error
		rows[i], err = runCEPRow(trace, s, drops[i])
		return err
	}); err != nil {
		return nil, err
	}

	t := &Table{
		ID:        "cep",
		Title:     "Detector precision/recall vs reader dropout (subscription engine)",
		RowHeader: "dropout/detector",
		Columns:   []string{"precision", "recall", "F1", "delay"},
	}
	for i, d := range drops {
		type det struct {
			name        string
			truth, late map[model.Tag]model.Epoch
			ms          []cep.Match
		}
		for _, dd := range []det{
			{"theft", theftTruth, theftLate, rows[i].theft},
			{"misroute", misTruth, misLate, rows[i].misroute},
			{"cold", coldTruth, coldLate, rows[i].cold},
		} {
			p, r, f1, delay := cepScore(dd.truth, dd.late, dd.ms)
			t.AddRow(fmt.Sprintf("%s %s", d.label, dd.name), p, r, f1, delay)
		}
	}
	t.Notes = append(t.Notes,
		fmt.Sprintf("ground truth: %d thefts, %d misroutes, %d excursions (%d benign shuffles as the cold negative class)",
			len(theftTruth), len(misTruth), len(coldTruth), len(s.ColdShuffles())),
		fmt.Sprintf("windows: theft %d, misroute %d, cold %d epochs; delay is mean epochs from anomaly to alarm",
			cepTheftWindow, cepMisrouteWindow, cepColdWindow),
		"dropout ExL silences one random reader for L epochs every E; spurious Missing reports must be absorbed by the trailing NOT",
		"anomalies whose window cannot finish before the trace ends are excluded from scoring")
	return t, nil
}
