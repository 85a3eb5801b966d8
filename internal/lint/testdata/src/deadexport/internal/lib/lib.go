// Package lib is the deadexport fixture's internal package: one exported
// identifier of each kind that only tests use, next to ones that
// production code reaches.
package lib

// Used is called from cmd/use.
func Used() int { return helper() + Limit }

// Limit is used inside the package only, which counts.
const Limit = 3

// OnlyTests is called from lib_test.go alone.
func OnlyTests() int { return 1 }

// Orphan is a type whose only mentions are its own methods' receivers.
type Orphan struct{ n int }

// Get is exempt as a method, and its receiver is no use of Orphan.
func (o *Orphan) Get() int { return o.n }

// Ledgered is dead too, but the fixture ledger already lists it.
var Ledgered = 7

// Revived is listed in the fixture ledger although cmd/use reads it.
var Revived = 9

// Recursive refers to itself only.
func Recursive(n int) int {
	if n == 0 {
		return 0
	}
	return Recursive(n - 1)
}

func helper() int { return 2 }
