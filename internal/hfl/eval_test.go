package hfl

import (
	"math"
	"math/rand"
	"reflect"
	"runtime"
	"testing"

	"github.com/mach-fl/mach/internal/dataset"
	"github.com/mach-fl/mach/internal/metrics"
	"github.com/mach-fl/mach/internal/mobility"
	"github.com/mach-fl/mach/internal/nn"
	"github.com/mach-fl/mach/internal/parallel"
)

// evalCloud is a fresh Cloud whose test set is n side×side MNIST-like
// images, scored by the paper's MNIST CNN at its seeded initial model.
func evalCloud(t *testing.T, n, side int) *Cloud {
	t.Helper()
	task, err := dataset.NewTask(dataset.MNISTLike(side, side))
	if err != nil {
		t.Fatal(err)
	}
	test, err := task.Generate(rand.New(rand.NewSource(int64(n))), n, nil)
	if err != nil {
		t.Fatal(err)
	}
	sched, err := mobility.GenerateSchedule(1, 2, 4, 1, 2)
	if err != nil {
		t.Fatal(err)
	}
	arch := func(rng *rand.Rand) (*nn.Network, error) { return nn.NewCNN(nn.MNISTCNNConfig(side, side), rng) }
	c, err := NewCloud(tinyConfig(1, 5), arch, sched, test)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

// wholeShardEval is the evaluator before chunking, kept as the oracle: each
// of the evalShards shards forwards its whole slice of the test set in one
// batch, and the shards' sums reduce in shard order.
func wholeShardEval(t *testing.T, c *Cloud) (acc, loss float64, preds []int) {
	t.Helper()
	n := c.test.Len()
	shards := min(evalShards, n)
	preds = make([]int, n)
	correct, lossSum := 0, 0.0
	for s := 0; s < shards; s++ {
		start, end := n*s/shards, n*(s+1)/shards
		net := c.evalNet.Clone()
		if err := net.SetParamVector(c.global); err != nil {
			t.Fatal(err)
		}
		idx := make([]int, end-start)
		for i := range idx {
			idx[i] = start + i
		}
		x, y := c.test.Batch(idx)
		cs, ls := net.EvaluateSums(x, y)
		correct += cs
		lossSum += ls
		logits := net.Forward(x, false)
		classes := logits.Dim(1)
		for i := range idx {
			row := logits.Data()[i*classes : (i+1)*classes]
			for j, v := range row {
				if v > row[preds[start+i]] {
					preds[start+i] = j
				}
			}
		}
	}
	return float64(correct) / float64(n), lossSum * (1 / float64(n)), preds
}

// TestChunkedEvaluationMatchesWholeShards: scoring each shard in evalChunk
// rows, with a padded last chunk, gives evaluate's accuracy and loss and
// EvaluateConfusion's matrix bit for bit as the whole-shard oracle, for test
// sets smaller than one chunk per shard, on chunk boundaries and off them.
func TestChunkedEvaluationMatchesWholeShards(t *testing.T) {
	for _, n := range []int{1, 7, 8, 9, 16, 17, 125, 1000, 1003} {
		c := evalCloud(t, n, 8)
		// Move the model off its initialization so predictions spread.
		rng := rand.New(rand.NewSource(int64(n)))
		for j := range c.global {
			c.global[j] += 0.1 * rng.NormFloat64()
		}
		wantAcc, wantLoss, wantPreds := wholeShardEval(t, c)
		for pass := 0; pass < 2; pass++ { // the second pass reuses the shard buffers
			acc, loss, err := c.evaluate()
			if err != nil {
				t.Fatal(err)
			}
			if math.Float64bits(acc) != math.Float64bits(wantAcc) || math.Float64bits(loss) != math.Float64bits(wantLoss) {
				t.Fatalf("n=%d pass %d: chunked (acc %v, loss %v), whole shards (acc %v, loss %v)", n, pass, acc, loss, wantAcc, wantLoss)
			}
		}
		conf, err := c.EvaluateConfusion()
		if err != nil {
			t.Fatal(err)
		}
		labels := make([]int, n)
		for i := range labels {
			labels[i] = c.test.Label(i)
		}
		want, err := metrics.NewConfusion(c.test.Classes, wantPreds, labels)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(conf, want) {
			t.Fatalf("n=%d: chunked confusion %v, whole shards %v", n, conf.Counts, want.Counts)
		}
	}
}

// TestEvaluatorFootprintIsConstant: the first evaluation of a fresh CNN
// cloud allocates the same at 1,000 and 10,000 test images, give or take the
// 8 B-per-image index list — the shard networks' activations and batch
// buffers are sized by evalChunk, not by the test set.
func TestEvaluatorFootprintIsConstant(t *testing.T) {
	firstEval := func(n int) uint64 {
		c := evalCloud(t, n, 8)
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		if _, _, err := c.evaluate(); err != nil {
			t.Fatal(err)
		}
		runtime.ReadMemStats(&after)
		return after.TotalAlloc - before.TotalAlloc
	}
	small, large := firstEval(1000), firstEval(10000)
	t.Logf("first evaluate allocates %d B at 1,000 test images, %d B at 10,000", small, large)
	if max(small, large)-min(small, large) >= 1<<20 {
		t.Fatalf("first evaluate allocates %d B at 10,000 test images, %d B at 1,000: more than 1 MiB apart", large, small)
	}
}

// TestWarmEvaluationAllocatesNothing: on a warm 16×16 CNN cloud with a run's
// pool installed, an evaluation allocates nothing — the shard sums live in
// the shard states and the shards go out as index tasks of one reused group.
func TestWarmEvaluationAllocatesNothing(t *testing.T) {
	c := evalCloud(t, 200, 16)
	pool := parallel.NewPool(2)
	defer pool.Close()
	c.evalGroup = pool.Group()
	evaluate := func() {
		if _, _, err := c.evaluate(); err != nil {
			t.Fatal(err)
		}
	}
	evaluate() // builds the shard networks and buffers
	if allocs := testing.AllocsPerRun(20, evaluate); allocs != 0 {
		t.Fatalf("a warm evaluation allocates %v objects", allocs)
	}
}
