// Command machnode runs one node of a distributed MACH deployment: a device
// host, an edge server, or the cloud coordinator. All nodes derive the same
// synthetic task, partition and mobility schedule from the shared flags
// (-task/-seed/-devices/-edges/-steps), so a deployment needs no shared
// storage — start the device hosts, then the edges, then the cloud:
//
//	machnode -role device -listen 127.0.0.1:7001 -host-index 0 -num-hosts 2 &
//	machnode -role device -listen 127.0.0.1:7002 -host-index 1 -num-hosts 2 &
//	machnode -role edge   -listen 127.0.0.1:7101 -edge-index 0 \
//	         -device-hosts 127.0.0.1:7001,127.0.0.1:7002 &
//	machnode -role edge   -listen 127.0.0.1:7102 -edge-index 1 \
//	         -device-hosts 127.0.0.1:7001,127.0.0.1:7002 &
//	machnode -role cloud  -edge-addrs 127.0.0.1:7101,127.0.0.1:7102 \
//	         -device-hosts 127.0.0.1:7001,127.0.0.1:7002 -edges 2
//
// The roles are the CI preset's deployment (DESIGN.md §6): on one device host
// the cloud prints the CSV machsim -out writes for the same flags.
package main

import (
	"flag"
	"fmt"
	"os"
	"os/signal"
	"strings"
	"syscall"

	"github.com/mach-fl/mach/internal/bench"
	"github.com/mach-fl/mach/internal/codec"
	"github.com/mach-fl/mach/internal/telemetry"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "machnode:", err)
		os.Exit(1)
	}
}

func run() error {
	var (
		role    = flag.String("role", "", "node role: device | edge | cloud")
		task    = flag.String("task", "mnist", "task: mnist | fmnist | cifar10")
		seed    = flag.Int64("seed", 1, "shared experiment seed")
		devices = flag.Int("devices", 20, "total logical devices")
		edges   = flag.Int("edges", 2, "number of edges")
		steps   = flag.Int("steps", 60, "time steps")

		listen    = flag.String("listen", "127.0.0.1:0", "device/edge: listen address")
		hostIndex = flag.Int("host-index", 0, "device: index of this host")
		numHosts  = flag.Int("num-hosts", 1, "device: total device hosts")
		edgeIndex = flag.Int("edge-index", 0, "edge: index of this edge")
		hostList  = flag.String("device-hosts", "", "edge/cloud: comma-separated device host addresses")
		edgeList  = flag.String("edge-addrs", "", "cloud: comma-separated edge addresses")
		codecName = flag.String("codec", codec.SchemeDelta.String(),
			"cloud: codec of every model transfer, one protocol for all: delta (lossless) | raw (8 B/param, no baseline) | float32 | int8")
		debugAddr = flag.String("debug-addr", "",
			"serve /debug/*, /metrics, /healthz and /readyz on this address (watch with machtop)")
	)
	flag.Parse()
	fmt.Fprintf(os.Stderr, "machnode: build %s\n", telemetry.BuildVersion())

	// Every role can expose its telemetry; without -debug-addr the servers
	// keep their zero-overhead nil sinks. Spans ride along with the debug
	// server: they feed /debug/spans and the span_*_ns percentile families,
	// and the RPC span context in every call stitches the cloud, edge and
	// device rings into one tree. /readyz stays 503 until the role's own
	// serving surface is actually up (markReady below).
	var tel *telemetry.Telemetry
	var dbg *telemetry.DebugServer
	if *debugAddr != "" {
		tel = telemetry.New()
		tel.EnableSpans(true)
		srv, err := telemetry.StartDebugServer(*debugAddr, tel)
		if err != nil {
			return err
		}
		dbg = srv
		defer srv.Close() //machlint:allow errdrop process is exiting; the listener dies with it
		fmt.Fprintf(os.Stderr, "machnode: debug server on http://%s/debug/\n", srv.Addr)
	}
	markReady := func() { dbg.SetReady(true) } // nil-safe
	scheme, err := codec.ParseScheme(*codecName)
	if err != nil {
		return err
	}

	cfg := bench.TaskPreset(bench.Task(*task), bench.ScaleCI)
	cfg.Seed = *seed
	cfg.Devices = *devices
	cfg.Edges = *edges
	cfg.Steps = *steps

	// Only the device and cloud roles read the world, so only they build it.
	switch *role {
	case "device":
		env, err := cfg.BuildEnvironment(0)
		if err != nil {
			return err
		}
		srv, err := cfg.DeviceHost(env, *hostIndex, *numHosts)
		if err != nil {
			return err
		}
		srv.SetTelemetry(tel)
		addr, err := srv.Serve(*listen)
		if err != nil {
			return err
		}
		fmt.Printf("machnode: device host %d/%d serving on %s\n", *hostIndex, *numHosts, addr)
		markReady()
		waitForSignal()
		return srv.Close()

	case "edge":
		e, err := cfg.Edge(*edgeIndex, splitAddrs(*hostList))
		if err != nil {
			return err
		}
		e.SetTelemetry(tel)
		addr, err := e.Serve(*listen)
		if err != nil {
			return err
		}
		fmt.Printf("machnode: edge %d serving on %s\n", *edgeIndex, addr)
		markReady()
		waitForSignal()
		return e.Close()

	case "cloud":
		env, err := cfg.BuildEnvironment(0)
		if err != nil {
			return err
		}
		cloud, err := cfg.Cloud(env, scheme, splitAddrs(*edgeList), splitAddrs(*hostList))
		if err != nil {
			return err
		}
		defer cloud.Close() //machlint:allow errdrop best-effort teardown at process exit; run errors already surfaced
		cloud.SetTelemetry(tel)
		markReady() // all edges and hosts dialed: the run is observable from here
		hist, err := cloud.Run()
		if err != nil {
			return err
		}
		if err := hist.WriteCSV(os.Stdout); err != nil {
			return err
		}
		fmt.Fprintf(os.Stderr, "machnode: cloud finished, final accuracy %.4f\n", hist.FinalAccuracy())
		if comm, err := cloud.CommStats(); err == nil {
			fmt.Fprintf(os.Stderr,
				"machnode: comm (%s, measured): device up %d B, down %d B, cloud %d B, total %d B\n",
				scheme, comm.DeviceUplinkBytes, comm.DeviceDownlinkBytes, comm.CloudBytes, comm.Total())
		}
		return nil

	default:
		return fmt.Errorf("unknown role %q (want device | edge | cloud)", *role)
	}
}

func splitAddrs(s string) []string {
	if s == "" {
		return nil
	}
	parts := strings.Split(s, ",")
	out := make([]string, 0, len(parts))
	for _, p := range parts {
		if p = strings.TrimSpace(p); p != "" {
			out = append(out, p)
		}
	}
	return out
}

func waitForSignal() {
	ch := make(chan os.Signal, 1)
	signal.Notify(ch, os.Interrupt, syscall.SIGTERM)
	<-ch
}
