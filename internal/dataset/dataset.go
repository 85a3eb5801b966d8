// Package dataset provides the learning tasks of the evaluation: synthetic
// class-conditional image datasets standing in for MNIST, FMNIST and
// CIFAR-10, plus the long-tailed non-IID partitioning across mobile devices
// that the paper's experiment section describes.
//
// The real datasets are not required: device sampling interacts with the
// *label* heterogeneity of devices and with the gradient-norm spread it
// induces, not with pixel semantics. The three synthetic tasks are ordered in
// difficulty exactly as the paper's tasks are (MNIST < FMNIST < CIFAR-10),
// which preserves the relative shapes of every figure (see DESIGN.md §1).
package dataset

import (
	"fmt"

	"github.com/mach-fl/mach/internal/tensor"
)

// Dataset is an in-memory labelled image dataset. Images are stored as flat
// float64 slices of length InC·InH·InW.
type Dataset struct {
	Name    string
	InC     int
	InH     int
	InW     int
	Classes int

	images [][]float64
	labels []int
}

// NewDataset returns an empty dataset with the given geometry.
func NewDataset(name string, inC, inH, inW, classes int) *Dataset {
	return &Dataset{Name: name, InC: inC, InH: inH, InW: inW, Classes: classes}
}

// Append adds one sample. The image slice is retained, not copied.
func (d *Dataset) Append(image []float64, label int) error {
	if len(image) != d.SampleLen() {
		return fmt.Errorf("dataset: image length %d, want %d", len(image), d.SampleLen())
	}
	if label < 0 || label >= d.Classes {
		return fmt.Errorf("dataset: label %d out of range [0,%d)", label, d.Classes)
	}
	d.images = append(d.images, image)
	d.labels = append(d.labels, label)
	return nil
}

// SampleLen returns the flat length of one image.
func (d *Dataset) SampleLen() int { return d.InC * d.InH * d.InW }

// Len returns the number of samples.
func (d *Dataset) Len() int { return len(d.images) }

// Label returns the label of sample i.
func (d *Dataset) Label(i int) int { return d.labels[i] }

// Batch assembles the samples at the given indices into a [B, InC, InH, InW]
// tensor and a label slice.
func (d *Dataset) Batch(indices []int) (*tensor.Tensor, []int) {
	b := len(indices)
	x := tensor.New(b, d.InC, d.InH, d.InW)
	labels := make([]int, b)
	sl := d.SampleLen()
	for i, idx := range indices {
		copy(x.Data()[i*sl:(i+1)*sl], d.images[idx])
		labels[i] = d.labels[idx]
	}
	return x, labels
}

// BatchInto assembles the samples at the given indices into caller-owned
// buffers. x must be [len(indices), InC, InH, InW] and labels must have
// length len(indices); both are fully overwritten. The hot path keeps one
// pair of buffers per device so every local step reuses the same storage.
//
//machlint:noalias labels,indices
func (d *Dataset) BatchInto(x *tensor.Tensor, labels []int, indices []int) {
	b := len(indices)
	sl := d.SampleLen()
	if x.Len() != b*sl || len(labels) != b {
		panic(fmt.Sprintf("dataset: BatchInto buffers (%d elems, %d labels) do not fit %d samples of length %d",
			x.Len(), len(labels), b, sl))
	}
	for i, idx := range indices {
		copy(x.Data()[i*sl:(i+1)*sl], d.images[idx])
		labels[i] = d.labels[idx]
	}
}

// RandomBatchInto draws a uniform random minibatch with replacement,
// matching the ξ sampling of the local update rule (Eq. 4), into
// caller-owned buffers sized as for BatchInto. idx is index scratch of
// length equal to the batch size; rng — a *det.Stream on the training path,
// or a *rand.Rand — draws exactly one Intn per sample in slot order.
//
//machlint:noalias labels,idx
func (d *Dataset) RandomBatchInto(rng interface{ Intn(n int) int }, x *tensor.Tensor, labels, idx []int) {
	for i := range idx {
		idx[i] = rng.Intn(len(d.images))
	}
	d.BatchInto(x, labels, idx)
}

// All returns the entire dataset as one batch.
func (d *Dataset) All() (*tensor.Tensor, []int) {
	idx := make([]int, d.Len())
	for i := range idx {
		idx[i] = i
	}
	return d.Batch(idx)
}

// ClassHistogram returns the sample count of each class.
func (d *Dataset) ClassHistogram() []int {
	h := make([]int, d.Classes)
	for _, l := range d.labels {
		h[l]++
	}
	return h
}

// ClassDistribution returns the empirical label distribution.
func (d *Dataset) ClassDistribution() []float64 {
	h := d.ClassHistogram()
	out := make([]float64, d.Classes)
	if d.Len() == 0 {
		return out
	}
	inv := 1.0 / float64(d.Len())
	for c, n := range h {
		out[c] = float64(n) * inv
	}
	return out
}
