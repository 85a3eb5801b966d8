// Package fixture exercises the globalrand analyzer: global math/rand
// draws and wall-clock reads are hazards; seeded sources, constructors and
// non-clock time functions are not.
package fixture

import (
	"math/rand"
	"time"
)

func hazards() time.Duration {
	_ = rand.Intn(10)                  // want "shared global source"
	_ = rand.Float64()                 // want "shared global source"
	rand.Shuffle(3, func(i, j int) {}) // want "shared global source"
	start := time.Now()                // want "wall-clock read"
	_ = time.Now()                     // want "wall-clock read"
	return time.Since(start)           // want "wall-clock read"
}

func fine(seed int64) float64 {
	r := rand.New(rand.NewSource(seed)) // constructors build explicit state
	v := r.Float64()                    // methods on a seeded source
	var rng *rand.Rand                  // type references
	_ = rng
	d := 3 * time.Second // constants and types
	t := time.Unix(0, 0) // non-clock time functions
	_ = t.Add(d)
	return v
}

func waived() time.Time {
	return time.Now() //machlint:allow globalrand boot-time stamp for logs, never enters simulation state
}
