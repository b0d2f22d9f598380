package model

import (
	"fmt"
	"math"
	"sort"
	"strconv"
	"strings"
)

// WorkerGroup is one homogeneous slice of a training cluster: Count
// workers of one GPU type.
type WorkerGroup struct {
	GPU   GPU
	Count int
}

// ClusterSpec describes a (possibly mixed-GPU) worker composition as
// an ordered list of homogeneous groups — the paper's Table III
// (x, y, z) notation generalized to any catalog. The zero value (nil)
// means "unspecified"; callers normalize it to a homogeneous spec.
type ClusterSpec []WorkerGroup

// HomogeneousCluster is the single-group spec n × g.
func HomogeneousCluster(g GPU, n int) ClusterSpec {
	return ClusterSpec{{GPU: g, Count: n}}
}

// Validate rejects empty specs, invalid GPUs, and non-positive counts.
func (c ClusterSpec) Validate() error {
	if len(c) == 0 {
		return fmt.Errorf("model: empty cluster spec")
	}
	for i, grp := range c {
		if !grp.GPU.Valid() {
			return fmt.Errorf("model: cluster group %d has invalid GPU %d", i, int(grp.GPU))
		}
		if grp.Count <= 0 {
			return fmt.Errorf("model: cluster group %d has non-positive count %d", i, grp.Count)
		}
	}
	return nil
}

// TotalWorkers sums the group counts.
func (c ClusterSpec) TotalWorkers() int {
	var n int
	for _, grp := range c {
		n += grp.Count
	}
	return n
}

// GPUs expands the spec to one GPU per worker, in group order.
func (c ClusterSpec) GPUs() []GPU {
	out := make([]GPU, 0, c.TotalWorkers())
	for _, grp := range c {
		for i := 0; i < grp.Count; i++ {
			out = append(out, grp.GPU)
		}
	}
	return out
}

// Heterogeneous reports whether the spec mixes GPU types.
func (c ClusterSpec) Heterogeneous() bool {
	for _, grp := range c[1:] {
		if grp.GPU != c[0].GPU {
			return true
		}
	}
	return false
}

// Canonical returns the spec with duplicate groups merged and groups
// sorted in catalog (ascending capability) order — the normalized form
// String renders and cache keys embed, so "1xV100+2xK80" and
// "2xK80+1xV100" mean (and key as) the same cluster.
func (c ClusterSpec) Canonical() ClusterSpec {
	counts := make(map[GPU]int, len(c))
	for _, grp := range c {
		counts[grp.GPU] += grp.Count
	}
	out := make(ClusterSpec, 0, len(counts))
	for _, g := range AllGPUs() {
		if n := counts[g]; n > 0 {
			out = append(out, WorkerGroup{GPU: g, Count: n})
		}
	}
	// GPUs outside the catalog order (future additions) keep a stable
	// tail order by enum value.
	var rest []GPU
	for g, n := range counts {
		if n > 0 && !g.Valid() {
			rest = append(rest, g)
		}
	}
	sort.Slice(rest, func(i, j int) bool { return rest[i] < rest[j] })
	for _, g := range rest {
		out = append(out, WorkerGroup{GPU: g, Count: counts[g]})
	}
	return out
}

// String renders the canonical "2xK80+1xV100" form.
func (c ClusterSpec) String() string {
	parts := make([]string, 0, len(c))
	for _, grp := range c.Canonical() {
		parts = append(parts, fmt.Sprintf("%dx%s", grp.Count, grp.GPU))
	}
	return strings.Join(parts, "+")
}

// ParseClusterSpec parses the "2xK80+1xV100" notation String renders.
// A nil error means a non-empty canonical spec whose counts are
// positive and whose total fits in an int.
func ParseClusterSpec(s string) (ClusterSpec, error) {
	if strings.TrimSpace(s) == "" {
		return nil, fmt.Errorf("model: empty cluster spec")
	}
	var out ClusterSpec
	total := 0
	for _, part := range strings.Split(s, "+") {
		part = strings.TrimSpace(part)
		n, gpuName, ok := strings.Cut(part, "x")
		if !ok {
			return nil, fmt.Errorf("model: cluster group %q: want <count>x<gpu>", part)
		}
		count, err := strconv.Atoi(strings.TrimSpace(n))
		if err != nil || count <= 0 {
			return nil, fmt.Errorf("model: cluster group %q: bad count", part)
		}
		// Bounding the total also bounds every merged group, so
		// Canonical and TotalWorkers cannot wrap.
		if count > math.MaxInt-total {
			return nil, fmt.Errorf("model: cluster spec %q: worker count overflows", s)
		}
		total += count
		g, err := ParseGPU(strings.TrimSpace(gpuName))
		if err != nil {
			return nil, err
		}
		out = append(out, WorkerGroup{GPU: g, Count: count})
	}
	return out.Canonical(), nil
}

// BatchShares splits a global minibatch of `global` samples across
// workers proportionally to their weights (throughputs for dynamic
// batching, all-ones for an equal split), clamped per worker to
// [min, max] where the clamp is feasible. The exact global sum is the
// invariant — synchronous SGD's effective batch size is a
// hyperparameter, so rebalancing on membership changes must never
// drift it — and therefore wins over the clamps when the live worker
// count makes both unsatisfiable (e.g. the cluster shrank below
// global/max workers). Allocation is deterministic: waterfill the
// clamps, then largest-remainder round with index-order ties.
func BatchShares(global int, weights []float64, min, max int) []int {
	n := len(weights)
	if n == 0 {
		return nil
	}
	if min < 1 {
		min = 1
	}
	if max < min {
		max = min
	}
	w := make([]float64, n)
	var sum float64
	for i, x := range weights {
		if x > 0 {
			w[i] = x
			sum += x
		}
	}
	if sum == 0 { // degenerate weights: equal split
		for i := range w {
			w[i] = 1
		}
	}

	shares := make([]int, n)
	active := make([]int, 0, n)
	for i := range w {
		active = append(active, i)
	}
	remaining := global
	// Waterfill: freeze workers whose proportional share violates a
	// clamp, re-split the rest, repeat until stable.
	for {
		var totalW float64
		for _, i := range active {
			totalW += w[i]
		}
		if len(active) == 0 || totalW == 0 {
			break
		}
		clamped := false
		next := active[:0]
		for _, i := range active {
			ideal := float64(remaining) * w[i] / totalW
			switch {
			case ideal < float64(min):
				shares[i] = min
				remaining -= min
				clamped = true
			case ideal > float64(max):
				shares[i] = max
				remaining -= max
				clamped = true
			default:
				next = append(next, i)
			}
		}
		active = next
		if !clamped {
			break
		}
	}
	// Floor the still-active workers' proportional shares; their
	// fractional parts order the remainder distribution
	// (largest-remainder rounding, index-order ties).
	order := make([]int, 0, n)
	if len(active) > 0 {
		var totalW float64
		for _, i := range active {
			totalW += w[i]
		}
		fracOf := make(map[int]float64, len(active))
		for _, i := range active {
			ideal := float64(remaining) * w[i] / totalW
			if ideal < 0 {
				ideal = 0
			}
			shares[i] = int(ideal)
			fracOf[i] = ideal - float64(shares[i])
		}
		order = append(order, active...)
		sort.SliceStable(order, func(a, b int) bool { return fracOf[order[a]] > fracOf[order[b]] })
	}
	for i := 0; i < n; i++ {
		frozen := true
		for _, a := range active {
			if a == i {
				frozen = false
				break
			}
		}
		if frozen {
			order = append(order, i)
		}
	}
	leftover := global
	for _, s := range shares {
		leftover -= s
	}
	// Place the leftover one sample at a time: first respecting the
	// max clamp, then — only when the clamps cannot carry the exact
	// global batch — past it; the sum is the invariant.
	for _, respectMax := range []bool{true, false} {
		for leftover > 0 {
			moved := false
			for _, i := range order {
				if leftover == 0 {
					break
				}
				if respectMax && shares[i] >= max {
					continue
				}
				shares[i]++
				leftover--
				moved = true
			}
			if !moved {
				break
			}
		}
	}
	// Negative leftover (the clamp waterfill overshot the global
	// batch): walk shares back down — first only those above min,
	// which suffices whenever the clamps are feasible, then past the
	// min clamp but never below one sample.
	for _, floor := range []int{min, 1} {
		for leftover < 0 {
			moved := false
			for _, i := range order {
				if leftover == 0 {
					break
				}
				if shares[i] > floor {
					shares[i]--
					leftover++
					moved = true
				}
			}
			if !moved {
				break
			}
		}
	}
	return shares
}
