package sampling_test

import (
	"fmt"
	"math/rand"

	"github.com/mach-fl/mach/internal/sampling"
)

// ExampleNewUniform shows the contract every Strategy fills: the
// probabilities of an edge's members, here K_n/|M| each.
func ExampleNewUniform() {
	var s sampling.Strategy = sampling.NewUniform()
	q := s.ProbabilitiesInto(&sampling.EdgeContext{
		Capacity: 2,
		Members:  []int{4, 7, 9, 11},
		RNG:      rand.New(rand.NewSource(1)),
	}, nil)
	fmt.Println(q)
	// Output: [0.5 0.5 0.5 0.5]
}

// ExampleMACHConfig_Transfer shows the transfer function S(·) of Eq. (17)
// starting at 1 and staying below 1+α/2 however large q̂ grows.
func ExampleMACHConfig_Transfer() {
	cfg := sampling.MACHConfig{Alpha: 1, Beta: -2}
	fmt.Printf("S(0)=%.3f S(0.5)=%.3f S(10)=%.3f\n",
		cfg.Transfer(0), cfg.Transfer(0.5), cfg.Transfer(10))
	// Output: S(0)=1.000 S(0.5)=1.231 S(10)=1.500
}
