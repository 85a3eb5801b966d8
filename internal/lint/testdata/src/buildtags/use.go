// Package buildtags is the loader's build-constraint fixture: twin_amd64.go
// and twin_generic.go declare the same symbols under complementary
// constraints, so exactly one of them belongs to any build.
package buildtags

// Path reports which twin this build selected.
func Path(xs []float64) string {
	if len(xs) > 0 {
		fold(&xs[0], len(xs))
	}
	return kernelPath
}
