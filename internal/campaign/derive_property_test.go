package campaign

import (
	"context"
	"fmt"
	"math/rand"
	"testing"
)

// TestDeriveNoCollisionsAcrossUnitGrids drives Derive over a realistic
// campaign cross-product — many experiment-style keys × many unit
// indices × several campaign seeds — and requires every derived seed
// to be unique. The space is 2^63, so any collision in a few tens of
// thousands of draws means the mixer is broken, not unlucky.
func TestDeriveNoCollisionsAcrossUnitGrids(t *testing.T) {
	keys := []string{""}
	for _, exp := range []string{"table1", "fig8", "sweep", "speed"} {
		for _, gpu := range []string{"K80", "P100", "V100"} {
			for _, suffix := range []string{"", "/ResNet-15", "/us-central1 transient"} {
				keys = append(keys, fmt.Sprintf("%s/%s%s", exp, gpu, suffix))
			}
		}
	}
	seen := make(map[int64]string)
	for _, seed := range []int64{0, 1, 42, -7, 1 << 40} {
		for _, key := range keys {
			for i := uint64(0); i < 200; i++ {
				s := Derive(seed, i, key)
				if s < 0 {
					t.Fatalf("Derive(%d, %d, %q) = %d, want non-negative", seed, i, key, s)
				}
				id := fmt.Sprintf("seed=%d i=%d key=%q", seed, i, key)
				if prev, dup := seen[s]; dup {
					t.Fatalf("seed collision: %s and %s both derive %d", prev, id, s)
				}
				seen[s] = id
			}
		}
	}
}

// TestDeriveSeedsStableAcrossWorkerCounts is the engine-level property
// behind every determinism guarantee in this repo: the seed a unit
// receives is a pure function of (plan seed, unit index, unit key),
// never of scheduling. Random plan shapes run at several worker counts
// must hand every unit the same seed, and a unit run alone on a shared
// Pool gets the seed it would get as a one-unit plan.
func TestDeriveSeedsStableAcrossWorkerCounts(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	pool := NewPool(3, 4)
	defer pool.Close()
	for trial := 0; trial < 10; trial++ {
		n := 1 + rng.Intn(40)
		planSeed := rng.Int63()
		mk := func() *Plan {
			p := &Plan{Seed: planSeed}
			for i := 0; i < n; i++ {
				p.Units = append(p.Units, Unit{
					Key: fmt.Sprintf("prop/%d", i%7), // deliberately repeating keys
					Run: func(s int64) (any, error) { return s, nil },
				})
			}
			return p
		}
		want, err := Engine{Workers: 1}.Run(mk())
		if err != nil {
			t.Fatal(err)
		}
		for i, s := range want.([]any) {
			if s.(int64) != Derive(planSeed, uint64(i), fmt.Sprintf("prop/%d", i%7)) {
				t.Fatalf("trial %d: unit %d got a seed that is not Derive(plan seed, index, key)", trial, i)
			}
		}
		for _, workers := range []int{2, 8} {
			got, err := Engine{Workers: workers}.Run(mk())
			if err != nil {
				t.Fatal(err)
			}
			for i := range want.([]any) {
				if got.([]any)[i] != want.([]any)[i] {
					t.Fatalf("trial %d: unit %d seed depends on scheduling (workers=%d)", trial, i, workers)
				}
			}
		}
		// The pool runs a unit as index 0 of a plan with its seed.
		u := mk().Units[n-1]
		got, err := pool.Run(context.Background(), planSeed, u)
		if err != nil {
			t.Fatal(err)
		}
		if got != Derive(planSeed, 0, u.Key) || (n == 1 && got != want.([]any)[0]) {
			t.Fatalf("trial %d: pool seed %v is not Derive(plan seed, 0, %q)", trial, got, u.Key)
		}
	}
}
