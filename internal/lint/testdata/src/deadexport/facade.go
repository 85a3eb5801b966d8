// Package deadexport is the fixture's facade: an alias here re-exports an
// internal type, so its methods are public API.
package deadexport

import "github.com/mach-fl/mach/internal/lint/testdata/src/deadexport/internal/lib"

// Faced re-exports lib.Faced.
type Faced = lib.Faced
