package sim

import (
	"slices"
	"testing"

	"spire/internal/epc"
	"spire/internal/model"
)

func fastConfig() Config {
	c := DefaultConfig()
	c.Duration = 400
	c.PalletInterval = 40
	c.ItemsPerCase = 3
	c.ShelfTime = 60
	c.ShelfPeriod = 10
	return c
}

func TestConfigValidate(t *testing.T) {
	if err := DefaultConfig().Validate(); err != nil {
		t.Fatalf("default config: %v", err)
	}
	bad := []func(*Config){
		func(c *Config) { c.Duration = 0 },
		func(c *Config) { c.PalletInterval = 0 },
		func(c *Config) { c.PalletsPerArrival = 0 },
		func(c *Config) { c.CasesMin = 0 },
		func(c *Config) { c.CasesMax = 1; c.CasesMin = 3 },
		func(c *Config) { c.ItemsPerCase = -1 },
		func(c *Config) { c.ReadRate = 1.5 },
		func(c *Config) { c.NonShelfInterrogations = 0 },
		func(c *Config) { c.ShelfPeriod = 0 },
		func(c *Config) { c.NumShelves = 0 },
		func(c *Config) { c.ShelfTime = 0 },
		func(c *Config) { c.EntryDwell = 0 },
		func(c *Config) { c.TheftInterval = -1 },
	}
	for i, mutate := range bad {
		c := DefaultConfig()
		mutate(&c)
		if err := c.Validate(); err == nil {
			t.Errorf("bad config %d accepted", i)
		}
	}
	c := DefaultConfig()
	c.ReadRate = -0.1
	if _, err := New(c); err == nil {
		t.Error("New must validate")
	}
}

func TestLifecycleFlowsThroughAllStages(t *testing.T) {
	s, err := New(fastConfig())
	if err != nil {
		t.Fatal(err)
	}
	visited := make(map[model.LocationID]bool)
	departures := 0
	for !s.Done() {
		if _, err := s.Step(); err != nil {
			t.Fatal(err)
		}
		for _, g := range s.World().Objects() {
			visited[s.World().LocationOf(g)] = true
		}
		departures += len(s.Departed())
	}
	for _, loc := range s.Locations() {
		if !visited[loc.ID] {
			t.Errorf("no object ever visited %s", loc.Name)
		}
	}
	if departures == 0 {
		t.Error("objects must complete the lifecycle and depart")
	}
}

func TestDeterministicUnderSeed(t *testing.T) {
	run := func() []model.Reading {
		s, err := New(fastConfig())
		if err != nil {
			t.Fatal(err)
		}
		var all []model.Reading
		for !s.Done() {
			o, err := s.Step()
			if err != nil {
				t.Fatal(err)
			}
			all = append(all, o.Readings()...)
		}
		return all
	}
	a, b := run(), run()
	if len(a) != len(b) {
		t.Fatalf("lengths differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("reading %d differs: %+v vs %+v", i, a[i], b[i])
		}
	}
}

func TestReadRateControlsVolume(t *testing.T) {
	volume := func(rr float64) int {
		c := fastConfig()
		c.ReadRate = rr
		s, err := New(c)
		if err != nil {
			t.Fatal(err)
		}
		total := 0
		for !s.Done() {
			o, err := s.Step()
			if err != nil {
				t.Fatal(err)
			}
			total += o.Total()
		}
		return total
	}
	low, high := volume(0.5), volume(1.0)
	if low >= high {
		t.Errorf("read rate 0.5 volume (%d) must be below read rate 1.0 volume (%d)", low, high)
	}
	if low == 0 {
		t.Error("read rate 0.5 must still produce readings")
	}
}

func TestPerfectReadRateSeesEverything(t *testing.T) {
	c := fastConfig()
	c.ReadRate = 1
	s, err := New(c)
	if err != nil {
		t.Fatal(err)
	}
	for !s.Done() {
		o, err := s.Step()
		if err != nil {
			t.Fatal(err)
		}
		// Every object at a location whose reader interrogated this epoch
		// must be read.
		for _, r := range s.Readers() {
			if !r.Active(s.Now()) {
				continue
			}
			want := s.World().At(r.Location)
			got := readerTags(o, r.ID)
			if len(got) != len(want) {
				t.Fatalf("epoch %d reader %d: read %d of %d objects",
					s.Now(), r.ID, len(got), len(want))
			}
		}
	}
}

func TestContainmentGroundTruth(t *testing.T) {
	s, err := New(fastConfig())
	if err != nil {
		t.Fatal(err)
	}
	sawContainedItem := false
	sawPackedCase := false
	for !s.Done() {
		if _, err := s.Step(); err != nil {
			t.Fatal(err)
		}
		res := s.TrueResult()
		for g, p := range res.Parents {
			if p == model.NoTag {
				continue
			}
			lvl, _ := epc.LevelOf(g)
			plvl, _ := epc.LevelOf(p)
			if plvl <= lvl {
				t.Fatalf("containment %d→%d does not descend levels", p, g)
			}
			if res.Locations[g] != res.Locations[p] {
				t.Fatalf("contained object %d at %v but container %d at %v",
					g, res.Locations[g], p, res.Locations[p])
			}
			if lvl == model.LevelItem {
				sawContainedItem = true
			}
			if lvl == model.LevelCase && plvl == model.LevelPallet {
				sawPackedCase = true
			}
		}
	}
	if !sawContainedItem || !sawPackedCase {
		t.Error("ground truth must exhibit both item→case and case→pallet containment")
	}
}

func TestTheftsProduceUnknownLocations(t *testing.T) {
	c := fastConfig()
	c.TheftInterval = 50
	s, err := New(c)
	if err != nil {
		t.Fatal(err)
	}
	for !s.Done() {
		if _, err := s.Step(); err != nil {
			t.Fatal(err)
		}
	}
	thefts := s.Thefts()
	if len(thefts) == 0 {
		t.Fatal("expected theft events")
	}
	for _, th := range thefts {
		if got := s.World().LocationOf(th.Case); got != model.LocationUnknown {
			t.Errorf("stolen case %d location = %v, want unknown", th.Case, got)
		}
		if st := s.World().Lookup(th.Case); st != nil {
			for item := range st.Children {
				if got := s.World().LocationOf(item); got != model.LocationUnknown {
					t.Errorf("stolen case's item %d location = %v, want unknown", item, got)
				}
			}
		}
	}
	// A stolen case is never read again.
	stolen := thefts[0].Case
	s2, err := New(c)
	if err != nil {
		t.Fatal(err)
	}
	for !s2.Done() {
		o, err := s2.Step()
		if err != nil {
			t.Fatal(err)
		}
		if s2.Now() <= thefts[0].At {
			continue
		}
		if slices.Contains(o.Tags, stolen) {
			t.Fatalf("stolen case %d read at epoch %d", stolen, s2.Now())
		}
	}
}

func TestItemDrops(t *testing.T) {
	c := fastConfig()
	c.ItemDropRate = 0.5
	c.Duration = 600
	s, err := New(c)
	if err != nil {
		t.Fatal(err)
	}
	for !s.Done() {
		if _, err := s.Step(); err != nil {
			t.Fatal(err)
		}
	}
	drops := s.Drops()
	if len(drops) == 0 {
		t.Fatal("expected item drops at rate 0.5")
	}
	for _, d := range drops {
		st := s.World().Lookup(d.Item)
		if st == nil {
			// The item may have departed if... dropped items never
			// depart, so it must still be present.
			t.Fatalf("dropped item %d vanished from the world", d.Item)
		}
		if st.Parent != model.NoTag {
			t.Errorf("dropped item %d still contained in %d", d.Item, st.Parent)
		}
	}
	// Validate the drop-rate knob end to end: zero rate drops nothing.
	c.ItemDropRate = 0
	s2, err := New(c)
	if err != nil {
		t.Fatal(err)
	}
	for !s2.Done() {
		if _, err := s2.Step(); err != nil {
			t.Fatal(err)
		}
	}
	if len(s2.Drops()) != 0 {
		t.Error("zero drop rate must produce no drops")
	}
	bad := fastConfig()
	bad.ItemDropRate = 1.5
	if _, err := New(bad); err == nil {
		t.Error("drop rate out of range must fail validation")
	}
}

func TestShelfReaderPeriodicity(t *testing.T) {
	c := fastConfig()
	c.ShelfPeriod = 10
	s, err := New(c)
	if err != nil {
		t.Fatal(err)
	}
	for !s.Done() {
		o, err := s.Step()
		if err != nil {
			t.Fatal(err)
		}
		for _, g := range o.Groups {
			if r := g.Reader; r >= readerShelfBase && g.Len() > 0 && s.Now()%10 != 0 {
				t.Fatalf("shelf reader %d read off its period at epoch %d", r, s.Now())
			}
		}
	}
}

func TestBeltScansOneCaseAtATime(t *testing.T) {
	s, err := New(fastConfig())
	if err != nil {
		t.Fatal(err)
	}
	for !s.Done() {
		if _, err := s.Step(); err != nil {
			t.Fatal(err)
		}
		cases := 0
		for _, g := range s.World().At(model.LocationID(1)) { // receiving belt
			if lvl, _ := epc.LevelOf(g); lvl == model.LevelCase {
				cases++
			}
		}
		if cases > 1 {
			t.Fatalf("epoch %d: %d cases on the receiving belt", s.Now(), cases)
		}
	}
}

func TestPalletsPerArrival(t *testing.T) {
	c := fastConfig()
	c.PalletsPerArrival = 3
	c.Duration = 10
	s, err := New(c)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Step(); err != nil {
		t.Fatal(err)
	}
	pallets := 0
	for _, g := range s.World().Objects() {
		if lvl, _ := epc.LevelOf(g); lvl == model.LevelPallet {
			pallets++
		}
	}
	if pallets != 3 {
		t.Errorf("pallets after first arrival = %d, want 3", pallets)
	}
	bad := fastConfig()
	bad.PalletsPerArrival = 0
	if _, err := New(bad); err == nil {
		t.Error("zero pallets per arrival must fail validation")
	}
}

func TestAccessors(t *testing.T) {
	s, err := New(fastConfig())
	if err != nil {
		t.Fatal(err)
	}
	if s.EntryLocation() != 0 {
		t.Errorf("EntryLocation = %v, want L0", s.EntryLocation())
	}
	if s.Now() != 0 || s.Done() {
		t.Error("fresh simulator must be at epoch 0 and not done")
	}
	if len(s.Readers()) != 5+fastConfig().NumShelves {
		t.Errorf("reader count = %d", len(s.Readers()))
	}
	names := map[string]bool{}
	for _, l := range s.Locations() {
		names[l.Name] = true
	}
	for _, want := range []string{"entry-door", "receiving-belt", "packaging-area", "shipping-belt", "exit-door"} {
		if !names[want] {
			t.Errorf("missing location %q", want)
		}
	}
	tr := s.TrueResult()
	if len(tr.Locations) != 0 {
		t.Error("empty world must yield an empty truth snapshot")
	}
}

func TestPopulationReachesSteadyState(t *testing.T) {
	c := fastConfig()
	c.Duration = 1200
	s, err := New(c)
	if err != nil {
		t.Fatal(err)
	}
	peak := 0
	for !s.Done() {
		if _, err := s.Step(); err != nil {
			t.Fatal(err)
		}
		if n := s.SteadyStateCount(); n > peak {
			peak = n
		}
	}
	if peak == 0 {
		t.Fatal("world never populated")
	}
	// After cases start departing the population must stop growing
	// without bound: the peak stays bounded by a few pallet groups.
	perPallet := 1 + 5*(1+3)
	if peak > 12*perPallet {
		t.Errorf("population peak %d suggests objects never depart", peak)
	}
}

// readerTags returns the tags reader r read in b (nil if r has no group).
func readerTags(b *model.Batch, r model.ReaderID) []model.Tag {
	for i, g := range b.Groups {
		if g.Reader == r {
			return b.GroupTags(i)
		}
	}
	return nil
}
