//go:build amd64 && !purego

package buildtags

// kernelPath is declared once per build: here for amd64, in twin_generic.go
// for every other platform and for the purego tag.
const kernelPath = "asm"

// fold has no body here: an assembly file would supply it.
//
//go:noescape
func fold(d *float64, n int)
