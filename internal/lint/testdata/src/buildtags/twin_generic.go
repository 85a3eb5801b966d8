//go:build !amd64 || purego

package buildtags

const kernelPath = "go"

func fold(d *float64, n int) {}
