// Package fixture exercises the globalrand analyzer: global math/rand
// draws are hazards; seeded sources and constructors are not. Wall-clock
// reads are walltime's (see its fixture), so none is reported here.
package fixture

import (
	"math/rand"
	"time"
)

func hazards() {
	_ = rand.Intn(10)                  // want "shared global source"
	_ = rand.Float64()                 // want "shared global source"
	rand.Shuffle(3, func(i, j int) {}) // want "shared global source"
	_ = time.Now()                     // walltime's, not globalrand's
}

func fine(seed int64) float64 {
	r := rand.New(rand.NewSource(seed)) // constructors build explicit state
	v := r.Float64()                    // methods on a seeded source
	var rng *rand.Rand                  // type references
	_ = rng
	return v
}

func waived() int {
	return rand.Intn(6) //machlint:allow globalrand fixture die roll, never enters simulation state
}
