// Package deadexport is the fixture's facade: its aliases re-export
// internal types, and cmd/use reaches one of them through it.
package deadexport

import "github.com/mach-fl/mach/internal/lint/testdata/src/deadexport/internal/lib"

// Faced re-exports lib.Faced; cmd/use uses it.
type Faced = lib.Faced

// Spare re-exports lib.Shape, but no program uses it.
type Spare = lib.Shape
