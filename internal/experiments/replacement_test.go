package experiments

import (
	"math"
	"testing"

	"repro/internal/campaign"
	"repro/internal/train"
)

// TestStoppedTrialsMatchFullHorizon is the oracle for the early stop:
// every seed-42 unit of Fig. 10 and Fig. 11 builds its session twice,
// runs one copy until it holds the events it reads and the other to
// its horizon, and both must read the same value, bit for bit. The
// full run holds the counts over the whole horizon: exactly one join
// in Fig. 10's 400 s, at least two checkpoints in Fig. 11's 4 h. The
// test names the kind each figure reads, so a trial that stops on
// another kind fails it too. The stopped copy must end before its
// horizon.
func TestStoppedTrialsMatchFullHorizon(t *testing.T) {
	skipShort(t)
	for _, c := range []struct {
		id       string
		specs    []trialSpec
		kind     string // the events the figure reads
		min, max int    // how many of them a full run records
	}{
		{"fig10", figure10Specs(), train.EventJoin, 1, 1},
		{"fig11", figure11Specs(), train.EventCheckpoint, 2, math.MaxInt},
	} {
		r, ok := ByID(c.id)
		if !ok {
			t.Fatalf("experiment %q not registered", c.id)
		}
		p := r.Plan(42)
		if len(p.Units) != len(c.specs) {
			t.Fatalf("%s: plan has %d units, specs list %d", c.id, len(p.Units), len(c.specs))
		}
		for i, s := range c.specs {
			key := p.Units[i].Key
			if key != s.key {
				t.Fatalf("%s: unit %d is %q, spec %d is %q", c.id, i, key, i, s.key)
			}
			seed := campaign.Derive(p.Seed, uint64(i), key)
			stopped, err := s.build(seed)
			if err != nil {
				t.Fatal(err)
			}
			got, err := stopped.run()
			if err != nil {
				t.Errorf("%s: %v", key, err)
				continue
			}
			if stopped.k.Now() >= stopped.horizon {
				t.Errorf("%s: ran to its %v s horizon", key, stopped.horizon.Seconds())
			}
			full, err := s.build(seed)
			if err != nil {
				t.Fatal(err)
			}
			full.k.RunUntil(full.horizon)
			events := full.rec.EventsOf(c.kind)
			if n := len(events); n < c.min || n > c.max {
				t.Errorf("%s: %d %s events over the full horizon, want %d to %d", key, n, c.kind, c.min, c.max)
				continue
			}
			want, err := full.read(events)
			if err != nil {
				t.Errorf("%s: over the full horizon: %v", key, err)
				continue
			}
			if math.Float64bits(got) != math.Float64bits(want) {
				t.Errorf("%s: stopped trial reads %v, full run reads %v", key, got, want)
			}
		}
	}
}
