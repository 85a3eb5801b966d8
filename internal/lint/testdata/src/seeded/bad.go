// Package seeded exists to prove the machlint pipeline exits nonzero:
// every check in the suite has at least one live violation below. It is
// loaded only by internal/lint tests — `machlint ./...` skips testdata
// directories while walking patterns.
package seeded

import (
	"math/rand"
	"time"
)

func mayFail() error { return nil }

func violations(m map[string]float64) float64 {
	total := 0.0
	for _, v := range m { // maprange
		total += v
	}
	if total == 0.5 { // floateq
		total = rand.Float64() // globalrand
	}
	mayFail()                                 // errdrop
	total += float64(time.Now().Nanosecond()) // walltime
	return total
}

func moreViolations() int {
	r := rand.New(rand.NewSource(42)) // randshare: constant seed
	out := make(chan int)
	go func() { out <- r.Intn(10) }()
	go func() { out <- r.Intn(10) }() // randshare: shared stream; selectdet: two producers
	return <-out + <-out
}

func copyInto(dst, src []float64) { // intoalias: no aliasing contract
	copy(dst, src)
}
