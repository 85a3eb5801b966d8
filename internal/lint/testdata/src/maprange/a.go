// Package fixture exercises the maprange analyzer: positives, negatives,
// and suppression. `// want "rx"` comments are matched by the test harness.
package fixture

import "net/rpc"

func floatAccumulation(m map[string]float64) float64 {
	total := 0.0
	for _, v := range m { // want "accumulates floating-point"
		total += v
	}
	sum := 0.0
	for _, v := range m { // want "accumulates floating-point"
		sum = sum + v
	}
	counts := map[int]float64{}
	src := map[int]int{1: 2, 3: 4}
	for k := range src { // want "accumulates floating-point"
		counts[k]++
	}
	return total + sum
}

func sliceAppend(m map[string]float64) []string {
	var keys []string
	for k := range m { // want "appends to a slice"
		keys = append(keys, k)
	}
	return keys
}

func closureHazard(m map[string]float64) float64 {
	total := 0.0
	add := func(v float64) { total += v }
	for _, v := range m { // want "accumulates floating-point"
		add(v)
		_ = func() { total += v }
	}
	return total
}

func rpcDispatch(clients map[string]*rpc.Client) {
	for addr, c := range clients { // want "issues RPCs"
		_ = c.Call(addr, nil, nil)
	}
}

// client has the shape of fed's RPC client.
type client struct{}

func (*client) call(method string, args, reply any) error { return nil }
func (*client) send(method string, args any) error        { return nil }
func (*client) close() error                              { return nil }

func fedDispatch(clients map[string]*client) {
	for addr, c := range clients { // want "issues RPCs"
		_ = c.call(addr, nil, nil)
	}
	for addr, c := range clients { // want "issues RPCs"
		_ = c.send(addr, nil)
	}
	for _, c := range clients { // closing is order-blind
		_ = c.close()
	}
}

func negatives(m map[string]float64, ints map[string]int) int {
	n := 0
	for range m { // integer counting is order-blind
		n++
	}
	for k, v := range m { // independent per-key writes are order-blind
		ints[k] = int(v)
	}
	total := 0.0
	for _, v := range []float64{1, 2} { // slice ranges are ordered
		total += v
	}
	var keys []string
	for _, s := range []string{"a", "b"} {
		keys = append(keys, s)
	}
	for _, c := range map[string]*rpc.Client{} { // non-Call methods are fine
		defer c.Close()
	}
	return n + int(total) + len(keys)
}

func suppressed(m map[string]float64) []string {
	var keys []string
	//machlint:allow maprange keys are sorted by the caller before use
	for k := range m {
		keys = append(keys, k)
	}
	return keys
}

func unjustifiedSuppression(m map[string]float64) []string {
	var keys []string
	/* want "no justification" */ //machlint:allow maprange
	for k := range m {            // want "appends to a slice"
		keys = append(keys, k)
	}
	return keys
}
