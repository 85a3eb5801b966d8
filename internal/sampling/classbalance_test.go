package sampling

import (
	"math"
	"math/rand"
	"testing"

	"github.com/mach-fl/mach/internal/dataset"
)

// oneHot returns a distribution fully concentrated on class c.
func oneHot(classes, c int) []float64 {
	d := make([]float64, classes)
	d[c] = 1
	return d
}

func TestClassBalanceSelectsComplementaryDevices(t *testing.T) {
	// 6 devices: three hold only class 0, three hold classes 0/1/2
	// one-hot each. Selecting 3 devices, the balanced group is {class0,
	// class1, class2} — never three copies of class 0.
	dists := [][]float64{
		oneHot(3, 0), oneHot(3, 0), oneHot(3, 0),
		oneHot(3, 0), oneHot(3, 1), oneHot(3, 2),
	}
	cb := NewClassBalance()
	ctx := &EdgeContext{
		Capacity:  3,
		Members:   []int{0, 1, 2, 3, 4, 5},
		RNG:       rand.New(rand.NewSource(1)),
		ClassDist: func(m int) []float64 { return dists[m] },
	}
	q := probabilities(cb, ctx)
	// Devices 4 and 5 (the only holders of classes 1 and 2) must always be
	// chosen.
	if q[4] != 1 || q[5] != 1 {
		t.Fatalf("complementary devices not selected: %v", q)
	}
	chosen := 0
	for _, v := range q {
		if v == 1 {
			chosen++
		} else if v != 0 {
			t.Fatalf("class-balance probability %v not in {0,1}", v)
		}
	}
	if chosen != 3 {
		t.Fatalf("chose %d devices, want 3", chosen)
	}
}

func TestClassBalanceBeatsRandomGroupsOnImbalance(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	classes := 5
	n := 12
	dists := make([][]float64, n)
	for i := range dists {
		law := dataset.LongTailed(classes, 0.3)
		perm := rng.Perm(classes)
		d := make([]float64, classes)
		for c, p := range perm {
			d[p] = law[c]
		}
		dists[i] = d
	}
	members := make([]int, n)
	for i := range members {
		members[i] = i
	}
	cb := NewClassBalance()
	ctx := &EdgeContext{
		Capacity:  4,
		Members:   members,
		RNG:       rng,
		ClassDist: func(m int) []float64 { return dists[m] },
	}
	q := probabilities(cb, ctx)
	cbImb := groupImbalance(q, dists)
	// Compare against the average imbalance of random 4-subsets.
	randTotal := 0.0
	const trials = 50
	for trial := 0; trial < trials; trial++ {
		sel := make([]float64, n)
		for _, i := range rng.Perm(n)[:4] {
			sel[i] = 1
		}
		randTotal += groupImbalance(sel, dists)
	}
	if cbImb >= randTotal/trials {
		t.Fatalf("class-balance imbalance %.4f not better than random %.4f", cbImb, randTotal/trials)
	}
}

func TestClassBalanceAllFitWhenCapacityCoversEdge(t *testing.T) {
	cb := NewClassBalance()
	ctx := &EdgeContext{
		Capacity:  10,
		Members:   []int{0, 1, 2},
		RNG:       rand.New(rand.NewSource(3)),
		ClassDist: func(m int) []float64 { return oneHot(2, m%2) },
	}
	q := probabilities(cb, ctx)
	for i, v := range q {
		if v != 1 {
			t.Fatalf("q[%d] = %v, want 1", i, v)
		}
	}
}

func TestClassBalanceWithoutClassInfoPicksRandomGroup(t *testing.T) {
	cb := NewClassBalance()
	ctx := &EdgeContext{
		Capacity: 2,
		Members:  []int{0, 1, 2, 3, 4},
		RNG:      rand.New(rand.NewSource(4)),
	}
	q := probabilities(cb, ctx)
	chosen := 0
	for _, v := range q {
		if v == 1 {
			chosen++
		}
	}
	if chosen != 2 {
		t.Fatalf("chose %d devices, want 2", chosen)
	}
}

func TestClassBalanceIsBiasedStrategy(t *testing.T) {
	if NewClassBalance().Unbiased() {
		t.Fatal("class-balance must report biased (active selection) aggregation")
	}
}

func TestClassBalanceGreedyIsDeterministic(t *testing.T) {
	// Fed-CBS-style greedy selection depends only on the member set: with
	// identical members, identical groups are selected — diversity in the
	// simulator comes from mobility changing the member set.
	dists := make([][]float64, 8)
	for i := range dists {
		dists[i] = oneHot(4, i%4)
	}
	cb := NewClassBalance()
	members := []int{0, 1, 2, 3, 4, 5, 6, 7}
	var first []float64
	for seed := int64(0); seed < 5; seed++ {
		ctx := &EdgeContext{
			Capacity:  2,
			Members:   members,
			RNG:       rand.New(rand.NewSource(seed)),
			ClassDist: func(m int) []float64 { return dists[m] },
		}
		q := probabilities(cb, ctx)
		if first == nil {
			first = q
			continue
		}
		for i := range q {
			if q[i] != first[i] {
				t.Fatalf("greedy selection varied with RNG seed: %v vs %v", q, first)
			}
		}
	}
	// A different member set must be able to produce a different group.
	ctx := &EdgeContext{
		Capacity:  2,
		Members:   []int{4, 5, 6, 7},
		RNG:       rand.New(rand.NewSource(1)),
		ClassDist: func(m int) []float64 { return dists[m] },
	}
	q := probabilities(cb, ctx)
	chosen := 0
	for _, v := range q {
		if v == 1 {
			chosen++
		}
	}
	if chosen != 2 {
		t.Fatalf("chose %d devices from the smaller edge, want 2", chosen)
	}
}

func TestGroupImbalanceUniformGroupIsZero(t *testing.T) {
	dists := [][]float64{oneHot(2, 0), oneHot(2, 1)}
	if got := groupImbalance([]float64{1, 1}, dists); math.Abs(got) > 1e-12 {
		t.Fatalf("balanced pair imbalance = %v, want 0", got)
	}
}
