// Command cosma multiplies two random matrices on the simulated
// distributed machine through the engine API and reports the
// decomposition and the measured communication against the Theorem 2
// lower bound.
//
// Usage:
//
//	cosma -m 512 -n 512 -k 512 -p 16 -S 1048576
//	      [-algo cosma|summa|2.5d|carma|cannon|all]
//	      [-network pizdaint|ethernet|sharedmem] [-calibrate]
//	      [-overlap=false]
//
// The algorithm is looked up by name in the table of algorithms (aliases
// like "scalapack" and "ctf" work too); -algo list prints it. The round
// loops pipeline wherever S has room for a second panel pair (§7.3);
// -overlap=false runs the synchronous reference schedule. With
// -network the run executes on the timed α-β-γ transport and the table
// gains predicted and critical-path runtime columns; adding -calibrate
// first measures the local packed kernel and replaces the preset's γ
// with the measured seconds-per-flop, so the predictions charge compute
// at the rate this machine actually achieves.
//
// With -transport wire the multiplication is genuinely distributed:
// the p ranks are spread over -wire-procs OS processes connected by
// Unix-domain sockets (or TCP with -wire-net tcp). Run without
// WIRE_RANK in the environment, the command is the launcher — it
// re-executes itself once per extra process with the WIRE_RANK /
// WIRE_PEERS bootstrap handshake set, joins as the process hosting
// rank 0, and prints the result; with WIRE_RANK set it joins an
// existing cluster as a worker. The product is bitwise-identical to
// the in-process transports; -checksum prints a FNV-64a digest of the
// result bytes so scripts can compare the two:
//
//	cosma -m 256 -n 256 -k 256 -p 4 -checksum
//	cosma -m 256 -n 256 -k 256 -p 4 -transport wire -wire-procs 4 -checksum
package main

import (
	"context"
	"encoding/binary"
	"errors"
	"flag"
	"fmt"
	"hash/fnv"
	"log"
	"math"
	"os"
	"os/exec"
	"strings"
	"time"

	"cosma"
	"cosma/internal/report"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("cosma: ")
	m := flag.Int("m", 512, "rows of A and C")
	n := flag.Int("n", 512, "columns of B and C")
	k := flag.Int("k", 512, "columns of A / rows of B")
	p := flag.Int("p", 16, "number of simulated processors")
	s := flag.Int("S", 1<<20, "local memory per processor in words")
	algoName := flag.String("algo", "cosma", "algorithm registry name or alias, \"all\", or \"list\"")
	seed := flag.Int64("seed", 1, "random seed for the input matrices")
	netName := flag.String("network", "", "timed α-β-γ preset: pizdaint, ethernet or sharedmem (empty counts only)")
	calibrate := flag.Bool("calibrate", false, "measure the local kernel and substitute its γ into -network")
	overlap := flag.Bool("overlap", true,
		"pipeline the round loops where S has room for a second panel pair (§7.3)")
	transport := flag.String("transport", "inprocess",
		"rank transport: inprocess (simulated machine) or wire (real OS processes over sockets)")
	wireProcs := flag.Int("wire-procs", 0, "wire: OS processes to spread the p ranks over (0 = p)")
	wireNet := flag.String("wire-net", "unix", "wire: unix (sockets in a temp dir) or tcp")
	wireHost := flag.String("wire-host", "127.0.0.1", "wire: host for -wire-net tcp")
	wirePort := flag.Int("wire-port", 7650, "wire: first TCP port for -wire-net tcp")
	recvTimeout := flag.Duration("recv-timeout", 2*time.Minute,
		"wire: abort a run whose receive waits longer than this (0 = wait forever)")
	checksum := flag.Bool("checksum", false, "print a FNV-64a digest of each result matrix")
	flag.Parse()

	if *algoName == "list" {
		for _, info := range cosma.AlgorithmInfos() {
			alias := ""
			if len(info.Aliases) > 0 {
				alias = " (aliases: " + strings.Join(info.Aliases, ", ") + ")"
			}
			fmt.Printf("  %-8s %s%s\n", info.Name, info.Summary, alias)
		}
		return
	}

	opts := []cosma.Option{
		cosma.WithProcs(*p), cosma.WithMemory(*s), cosma.WithOverlap(*overlap),
	}
	if *netName != "" {
		net, err := cosma.NetworkByName(*netName)
		if err != nil {
			log.Fatal(err)
		}
		if *calibrate {
			cal := cosma.Calibrate(0, 0)
			fmt.Println(cal)
			net = net.WithGamma(cal.Gamma)
		}
		opts = append(opts, cosma.WithNetwork(net))
	} else if *calibrate {
		log.Fatal("-calibrate needs -network: the measured γ replaces the preset's compute constant")
	}

	if *transport == "wire" {
		if *netName != "" {
			log.Fatal("-transport wire measures real traffic; it cannot run on the timed -network transport")
		}
		if *algoName == "all" || *algoName == "list" {
			log.Fatal("-transport wire runs one algorithm; pick one, e.g. -algo cosma, summa or 2.5d")
		}
		err := runWire(wireRun{
			algo: *algoName, m: *m, n: *n, k: *k, p: *p,
			opts: opts, seed: *seed, checksum: *checksum,
			procs: *wireProcs, net: *wireNet, host: *wireHost, port: *wirePort,
			recvTimeout: *recvTimeout,
		})
		if err != nil {
			log.Fatal(err)
		}
		return
	} else if *transport != "inprocess" {
		log.Fatalf("unknown -transport %q (inprocess or wire)", *transport)
	}

	names := []string{*algoName}
	if *algoName == "all" {
		names = cosma.Algorithms()
	}

	ctx := context.Background()
	a := cosma.RandomMatrix(*m, *k, *seed)
	b := cosma.RandomMatrix(*k, *n, *seed+1)

	fmt.Printf("Theorem 2 lower bound: %.0f words/rank\n\n",
		cosma.ParallelLowerBound(*m, *n, *k, *p, *s))

	headers := []string{"algorithm", "grid", "ranks used", "avg recv words/rank", "max recv", "max msgs", "model msgs", "model words/rank"}
	timed := *netName != ""
	if timed {
		headers = append(headers, "predicted", "critical path")
	}
	t := report.NewTable("measured communication", headers...)
	for _, name := range names {
		eng, err := cosma.NewEngine(append(opts, cosma.WithAlgorithm(name))...)
		if err != nil {
			log.Fatal(err)
		}
		plan, err := eng.Plan(ctx, *m, *n, *k)
		if errors.Is(err, cosma.ErrUnsupportedShape) {
			log.Printf("%s: %v", name, err) // a restriction of the algorithm: skip its row
			continue
		} else if err != nil {
			log.Fatalf("%s: %v", name, err)
		}
		fmt.Printf("%s plan: %v\n", plan.Algorithm(), plan)
		c, rep, err := eng.Exec(ctx, a, b)
		if err != nil {
			log.Fatalf("%s: %v", name, err)
		}
		if *checksum {
			fmt.Printf("%s checksum %016x\n", rep.Model.Name, digest(c))
		}
		row := []interface{}{rep.Model.Name, rep.Model.Grid, rep.Model.Used, rep.AvgRecv, rep.MaxRecv, rep.MaxMsgs, int64(rep.Model.MaxMsgs), rep.Model.AvgRecv}
		if timed {
			row = append(row, report.Seconds(rep.PredictedAsExecuted()), report.Seconds(rep.CritPathTime))
		}
		t.AddRow(row...)
	}
	if t.Rows() == 0 {
		log.Fatal("no algorithm matched or ran; see -algo list")
	}
	fmt.Println()
	fmt.Print(t.String())
}

// wireRun bundles the -transport wire parameters.
type wireRun struct {
	algo        string
	m, n, k, p  int
	opts        []cosma.Option
	seed        int64
	checksum    bool
	procs       int
	net, host   string
	port        int
	recvTimeout time.Duration
}

// runWire executes one genuinely distributed multiplication. Without
// WIRE_RANK in the environment this process is the launcher: it builds
// the peer list, re-executes itself once per extra OS process with the
// bootstrap handshake set, hosts rank 0, and prints the result. With
// WIRE_RANK set it joins the cluster described by the environment as a
// worker and exits silently on success.
func runWire(r wireRun) error {
	cfg, joined, err := cosma.WireFromEnv()
	if err != nil {
		return err
	}
	var children []*exec.Cmd
	if !joined {
		procs := r.procs
		if procs <= 0 || procs > r.p {
			procs = r.p
		}
		var procAddrs []string
		switch r.net {
		case "unix":
			dir, err := os.MkdirTemp("", "cosma-wire-")
			if err != nil {
				return err
			}
			defer os.RemoveAll(dir)
			procAddrs = cosma.WireSocketAddrs(dir, procs)
		case "tcp":
			procAddrs = cosma.WireTCPAddrs(r.host, r.port, procs)
		default:
			return fmt.Errorf("unknown -wire-net %q (unix or tcp)", r.net)
		}

		// Block-distribute the p ranks over the processes: ranks sharing
		// an address share an OS process.
		peers := make([]string, r.p)
		for rank := range peers {
			peers[rank] = procAddrs[rank*procs/r.p]
		}
		for pi := 1; pi < procs; pi++ {
			first := (pi*r.p + procs - 1) / procs // lowest rank hosted by process pi
			cmd := exec.Command(os.Args[0], os.Args[1:]...)
			cmd.Env = append(os.Environ(), cosma.WireEnv(first, peers)...)
			cmd.Stdout = os.Stdout
			cmd.Stderr = os.Stderr
			if err := cmd.Start(); err != nil {
				for _, c := range children {
					c.Process.Kill()
					c.Wait()
				}
				return fmt.Errorf("spawning wire process %d: %w", pi, err)
			}
			children = append(children, cmd)
		}
		cfg = cosma.WireConfig{Rank: 0, Peers: peers}
	}

	eng, err := cosma.NewEngine(append(append([]cosma.Option{}, r.opts...),
		cosma.WithAlgorithm(r.algo),
		cosma.WithWireTransport(cfg),
		cosma.WithRecvTimeout(r.recvTimeout))...)
	if err != nil {
		return err
	}
	defer eng.Close()

	ctx := context.Background()
	rank, _ := eng.WireRank()
	// Every process builds the same inputs from the shared seed; only
	// each rank's own blocks are ever touched.
	a := cosma.RandomMatrix(r.m, r.k, r.seed)
	b := cosma.RandomMatrix(r.k, r.n, r.seed+1)
	plan, err := eng.Plan(ctx, r.m, r.n, r.k)
	if err != nil {
		return err
	}
	if rank == 0 {
		fmt.Printf("%s plan: %v\n", plan.Algorithm(), plan)
	}
	c, rep, err := eng.Exec(ctx, a, b)
	if err != nil {
		return fmt.Errorf("wire rank %d: %w", rank, err)
	}
	if rank == 0 {
		fmt.Printf("%s over %d ranks: grid %s, avg recv %.0f words/rank, max recv %d, max msgs %d\n",
			rep.Model.Name, rep.P, rep.Model.Grid, rep.AvgRecv, rep.MaxRecv, rep.MaxMsgs)
		if r.checksum {
			fmt.Printf("%s checksum %016x\n", rep.Model.Name, digest(c))
		}
	}

	failed := 0
	for i, cmd := range children {
		if err := cmd.Wait(); err != nil {
			log.Printf("wire process %d: %v", i+1, err)
			failed++
		}
	}
	if failed > 0 {
		return fmt.Errorf("%d wire processes failed", failed)
	}
	return nil
}

// digest is a FNV-64a hash over the little-endian bytes of the result
// matrix, printed by -checksum so scripts (and CI) can check that the
// wire and in-process transports produce bitwise-identical products.
func digest(c *cosma.Matrix) uint64 {
	h := fnv.New64a()
	var buf [8]byte
	for i := 0; i < c.Rows; i++ {
		for _, v := range c.Data[i*c.Stride : i*c.Stride+c.Cols] {
			binary.LittleEndian.PutUint64(buf[:], math.Float64bits(v))
			h.Write(buf[:])
		}
	}
	return h.Sum64()
}
