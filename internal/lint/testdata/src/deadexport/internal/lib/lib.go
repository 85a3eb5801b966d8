// Package lib is the deadexport fixture's internal package: one exported
// identifier of each kind that only tests use, next to ones that
// production code reaches, and methods reached only through an interface
// or a net/rpc registration.
package lib

// Used is called from cmd/use.
func Used() int { return helper() + Limit }

// Limit is used inside the package only, which counts.
const Limit = 3

// OnlyTests is called from lib_test.go alone.
func OnlyTests() int { return 1 }

// Orphan is a type whose only mentions are its own methods' receivers.
type Orphan struct{ n int }

// Get is dead with its type; the fixture ledger lists it without a reason.
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

// Measurer is an interface the module declares.
type Measurer interface{ Area() int }

// Measure is called from cmd/use.
func Measure(m Measurer) int { return m.Area() }

// Shape is used by cmd/use through Measure and fmt.
type Shape struct{ w, h int }

// Area satisfies Measurer: no selector names it outside this file.
func (s Shape) Area() int { return s.w * s.h }

// String satisfies fmt.Stringer, an interface of the import closure.
func (s Shape) String() string { return "shape" }

// Unused satisfies no interface and nothing calls it.
func (s Shape) Unused() int { return s.w }

// Service is registered with net/rpc by cmd/use.
type Service struct{}

// Echo is reached by net/rpc's reflection.
func (*Service) Echo(args int, reply *int) error {
	*reply = args
	return nil
}

// Faced is re-exported by the fixture's root package.
type Faced struct{}

// Hello is dead although the facade re-exports its type: no program of
// the module calls it.
func (Faced) Hello() string { return "hello" }
