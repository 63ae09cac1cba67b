package main

import (
	"context"
	"encoding/json"
	"fmt"
	"log"
	"net"
	"net/http"
	"os"
	"os/signal"
	"path/filepath"
	"sort"
	"strings"
	"syscall"
	"time"

	"bilsh/internal/core"
	"bilsh/internal/dataset"
	"bilsh/internal/durable"
	"bilsh/internal/httpx"
	"bilsh/internal/knn"
	"bilsh/internal/lshfunc"
	"bilsh/internal/metrics"
	"bilsh/internal/router"
	"bilsh/internal/server"
	"bilsh/internal/vec"
	"bilsh/internal/xrand"
)

// The sharding commands (docs/sharding.md):
//
//	shard-split  cut a built index into per-shard datasets + a shard map
//	shard-serve  serve one shard (serve.go; cmdShardServe)
//	router       scatter-gather front end over running shards
//	shard-bench  in-process cluster benchmark -> BENCH_shard.json

// cmdShardSplit cuts a built index into S shard datasets along its
// level-1 leaves (LPT-balanced), writing per shard an fvecs file and an
// id map ("local global" lines), plus the shard map the router loads. A
// PartitionNone index has no leaves; its rows are dealt round-robin and
// the map is the full-scatter map.
func cmdShardSplit(args []string) error {
	fs := newFlagSet("shard-split")
	indexPath := fs.String("index", "", "index file from 'bilsh build' (required)")
	outDir := fs.String("out", "shards", "output directory")
	shards := fs.Int("shards", 2, "number of shards")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *indexPath == "" {
		return fmt.Errorf("shard-split: -index is required")
	}
	if *shards < 1 {
		return fmt.Errorf("shard-split: -shards must be >= 1, got %d", *shards)
	}
	f, err := os.Open(*indexPath)
	if err != nil {
		return err
	}
	ix, err := core.ReadIndex(f)
	f.Close()
	if err != nil {
		return err
	}
	d := ix.Describe()
	if d.PendingInserts > 0 || d.PendingDeletes > 0 {
		return fmt.Errorf("shard-split: index has %d pending inserts and %d pending deletes; compact and save it first",
			d.PendingInserts, d.PendingDeletes)
	}
	if err := os.MkdirAll(*outDir, 0o755); err != nil {
		return err
	}

	// Global ids per shard. With a level-1 tree, leaves are the unit of
	// placement (a query's probe set is a set of leaves, so co-locating a
	// leaf keeps its fan-out contribution to one shard); without one,
	// round-robin spreads rows evenly and every query scatters.
	perShard := make([][]int, *shards)
	var m *router.ShardMap
	if tree := ix.Tree(); tree != nil {
		sizes := make([]int, d.Groups)
		for g := 0; g < d.Groups; g++ {
			sizes[g] = len(ix.GroupMembers(g))
		}
		leafToShard := router.AssignLeaves(sizes, *shards)
		m, err = router.NewShardMap(tree, leafToShard, *shards)
		if err != nil {
			return err
		}
		for g := 0; g < d.Groups; g++ {
			s := leafToShard[g]
			perShard[s] = append(perShard[s], ix.GroupMembers(g)...)
		}
	} else {
		m, err = router.ScatterMap(*shards)
		if err != nil {
			return err
		}
		for id := 0; id < ix.Len(); id++ {
			perShard[id%*shards] = append(perShard[id%*shards], id)
		}
	}

	mapPath := filepath.Join(*outDir, "shardmap.bin")
	if err := router.SaveShardMap(mapPath, m); err != nil {
		return err
	}
	for s := 0; s < *shards; s++ {
		gids := perShard[s]
		sort.Ints(gids)
		mat := vec.NewMatrix(len(gids), d.Dim)
		for local, gid := range gids {
			copy(mat.Row(local), ix.Vector(gid))
		}
		fv := filepath.Join(*outDir, fmt.Sprintf("shard%d.fvecs", s))
		if err := dataset.SaveFvecsFile(fv, mat); err != nil {
			return err
		}
		idPath := filepath.Join(*outDir, fmt.Sprintf("shard%d.ids", s))
		err := durable.AtomicWrite(idPath, func(f *os.File) error {
			for local, gid := range gids {
				if _, err := fmt.Fprintf(f, "%d %d\n", local, gid); err != nil {
					return err
				}
			}
			return nil
		})
		if err != nil {
			return err
		}
		fmt.Printf("shard %d: %6d vectors -> %s, %s\n", s, len(gids), fv, idPath)
	}
	kind := "leaf-aware"
	if !m.LeafAware() {
		kind = "scatter"
	}
	fmt.Printf("shard map (%s, %d leaves) -> %s\n", kind, m.NumLeaves(), mapPath)
	fmt.Printf("next: build each shard with 'bilsh build -data %s/shard<i>.fvecs -bilevel=false' and start 'bilsh shard-serve'\n", *outDir)
	return nil
}

// parseShardAddrs parses the router's -shards flag: shard sets separated
// by ';', replica addresses within a set by ',', the first address being
// the primary. "http://a:1,http://a:2;http://b:1" is two shards, the
// first with one replica.
func parseShardAddrs(s string) ([]router.ShardSet, error) {
	if strings.TrimSpace(s) == "" {
		return nil, fmt.Errorf("no shard addresses given")
	}
	var sets []router.ShardSet
	for i, part := range strings.Split(s, ";") {
		var addrs []string
		for _, a := range strings.Split(part, ",") {
			a = strings.TrimRight(strings.TrimSpace(a), "/")
			if a == "" {
				continue
			}
			if !strings.Contains(a, "://") {
				a = "http://" + a
			}
			addrs = append(addrs, a)
		}
		if len(addrs) == 0 {
			return nil, fmt.Errorf("shard %d has no addresses", i)
		}
		sets = append(sets, router.ShardSet{Addrs: addrs})
	}
	return sets, nil
}

// cmdRouter runs the scatter-gather front end over running shard
// servers.
func cmdRouter(args []string) error {
	fs := newFlagSet("router")
	mapPath := fs.String("map", "", "shard map from 'bilsh shard-split' (empty = full scatter over all shards)")
	shardsFlag := fs.String("shards", "", "shard addresses: ';' between shards, ',' between a shard's replicas, primary first (required)")
	addr := fs.String("addr", "127.0.0.1:8090", "listen address (use :0 for an ephemeral port; the bound address is printed)")
	spill := fs.Int("spill", 1, "level-1 leaves probed per query (1 = home leaf only; more trades fan-out for recall)")
	timeout := fs.Duration("timeout", 2*time.Second, "per-attempt shard request timeout")
	hedge := fs.Duration("hedge", 0, "launch a hedged attempt on the next replica after this much silence (0 disables)")
	retries := fs.Int("retries", 1, "extra read attempts on other replicas after a failure")
	healthEvery := fs.Duration("health-interval", 2*time.Second, "background shard health-probe cadence")
	shutdownTimeout := fs.Duration("shutdown-timeout", 30*time.Second, "in-flight request drain budget on SIGINT/SIGTERM")
	adaptive := fs.Bool("adaptive", false, "re-tune the forwarded default query plan online from shard replies (docs/adaptive.md)")
	adaptiveRecall := fs.Float64("adaptive-recall", 0.9, "recall SLO the adaptive forwarded plan targets, in (0,1)")
	adaptiveEvery := fs.Duration("adaptive-interval", 10*time.Second, "re-tune cadence for -adaptive")
	if err := fs.Parse(args); err != nil {
		return err
	}
	sets, err := parseShardAddrs(*shardsFlag)
	if err != nil {
		return fmt.Errorf("router: -shards: %v", err)
	}
	var m *router.ShardMap
	if *mapPath != "" {
		if m, err = router.LoadShardMap(*mapPath); err != nil {
			return err
		}
	} else {
		if m, err = router.ScatterMap(len(sets)); err != nil {
			return err
		}
	}
	rt, err := router.New(router.Options{
		Map:            m,
		Shards:         sets,
		Spill:          *spill,
		Timeout:        *timeout,
		HedgeDelay:     *hedge,
		Retries:        *retries,
		HealthInterval: *healthEvery,
	})
	if err != nil {
		return err
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	rt.Start(ctx)
	defer rt.Stop()
	if *adaptive {
		rt.StartAdaptive(ctx, router.AdaptiveConfig{
			TargetRecall: *adaptiveRecall,
			Interval:     *adaptiveEvery,
			Log:          log.Default(),
		})
		fmt.Printf("adaptive: re-tuning forwarded plan every %v toward recall %.2f\n", *adaptiveEvery, *adaptiveRecall)
	}
	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		return err
	}
	defer ln.Close()
	kind := "scatter"
	if m.LeafAware() {
		kind = fmt.Sprintf("leaf-aware (%d leaves, spill %d)", m.NumLeaves(), *spill)
	}
	fmt.Printf("routing %d shards, %s, on http://%s (hedge=%v timeout=%v)\n",
		m.NumShards(), kind, ln.Addr(), *hedge, *timeout)
	srv := httpx.NewServer(rt.Handler())
	go func() {
		<-ctx.Done()
		sctx, cancel := context.WithTimeout(context.Background(), *shutdownTimeout)
		defer cancel()
		srv.Shutdown(sctx)
	}()
	err = srv.Serve(ln)
	if err == http.ErrServerClosed {
		fmt.Println("shutdown: in-flight requests drained")
		err = nil
	}
	return err
}

// shardBenchSide is one side of the BENCH_shard.json comparison.
type shardBenchSide struct {
	QPS        float64 `json:"qps"`
	P50Millis  float64 `json:"p50_ms"`
	P99Millis  float64 `json:"p99_ms"`
	Recall     float64 `json:"recall"`
	MeanFanout float64 `json:"mean_fanout,omitempty"`
}

// cmdShardBench benchmarks an in-process cluster against a single node:
// it builds one bi-level index, splits it along its leaves into S shard
// servers on loopback ports, fronts them with a router, and measures
// q/s, latency percentiles and recall over the same queries for both
// deployments, plus the router's mean shard fan-out (the leaf-aware
// routing win: fan-out < S means most shards never saw the query).
func cmdShardBench(args []string) error {
	fs := newFlagSet("shard-bench")
	n := fs.Int("n", 8000, "dataset size")
	d := fs.Int("d", 32, "dimensionality")
	nq := fs.Int("queries", 200, "query count")
	k := fs.Int("k", 10, "neighbors per query")
	shards := fs.Int("shards", 4, "shard count")
	spill := fs.Int("spill", 2, "router leaf probe budget")
	seed := fs.Int64("seed", 1, "random seed")
	out := fs.String("out", "BENCH_shard.json", "output JSON path")
	if err := fs.Parse(args); err != nil {
		return err
	}
	rng := xrand.New(*seed)
	data, _, err := dataset.Clustered(dataset.DefaultClusteredSpec(*n+*nq, *d), rng)
	if err != nil {
		return err
	}
	train, queries := dataset.Split(data, *nq, rng)
	truth := knn.ExactAll(train, queries, *k)

	opts := core.Options{
		Partitioner: core.PartitionRPTree,
		Groups:      4 * *shards, // a few leaves per shard so LPT can balance
		AutoTuneW:   true,
		Params:      lshfunc.Params{M: 8, L: 10, W: 1},
	}
	mono, err := core.Build(train, opts, xrand.New(*seed+1))
	if err != nil {
		return err
	}

	// Split along leaves, exactly as shard-split does on disk.
	md := mono.Describe()
	sizes := make([]int, md.Groups)
	for g := range sizes {
		sizes[g] = len(mono.GroupMembers(g))
	}
	leafToShard := router.AssignLeaves(sizes, *shards)
	smap, err := router.NewShardMap(mono.Tree(), leafToShard, *shards)
	if err != nil {
		return err
	}
	perShard := make([][]int, *shards)
	for g := 0; g < md.Groups; g++ {
		s := leafToShard[g]
		perShard[s] = append(perShard[s], mono.GroupMembers(g)...)
	}

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	shardOpts := opts
	shardOpts.Partitioner = core.PartitionNone
	sets := make([]router.ShardSet, *shards)
	for s := 0; s < *shards; s++ {
		gids := perShard[s]
		sort.Ints(gids)
		six, err := core.Build(train.Subset(gids), shardOpts, xrand.New(*seed+2+int64(s)))
		if err != nil {
			return err
		}
		locals := make([]int, len(gids))
		for i := range locals {
			locals[i] = i
		}
		im, err := server.NewIDMap(locals, gids)
		if err != nil {
			return err
		}
		api := server.New(six, false)
		api.SetShardID(s)
		api.SetIDMap(im)
		api.SetRegistry(metrics.NewRegistry())
		addr, err := serveInProcess(ctx, api)
		if err != nil {
			return err
		}
		sets[s] = router.ShardSet{Addrs: []string{addr}}
		fmt.Printf("shard %d: %d vectors on %s\n", s, len(gids), addr)
	}
	single := server.New(mono, false)
	single.SetRegistry(metrics.NewRegistry())
	singleAddr, err := serveInProcess(ctx, single)
	if err != nil {
		return err
	}

	rt, err := router.New(router.Options{
		Map: smap, Shards: sets, Spill: *spill, Registry: metrics.NewRegistry(),
	})
	if err != nil {
		return err
	}
	routerAddr, err := serveHandlerInProcess(ctx, rt.Handler())
	if err != nil {
		return err
	}
	fmt.Printf("router on %s (spill %d), single node on %s\n", routerAddr, *spill, singleAddr)

	singleSide, err := benchQueries(singleAddr, queries, *k, 0, truth)
	if err != nil {
		return err
	}
	routerSide, err := benchQueries(routerAddr, queries, *k, *spill, truth)
	if err != nil {
		return err
	}

	report := map[string]interface{}{
		"bench": "shard",
		"config": map[string]interface{}{
			"n": *n, "d": *d, "queries": *nq, "k": *k,
			"shards": *shards, "spill": *spill, "seed": *seed,
			"m": opts.Params.M, "l": opts.Params.L, "leaves": md.Groups,
		},
		"single": singleSide,
		"router": routerSide,
	}
	blob, err := json.MarshalIndent(report, "", "  ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(*out, append(blob, '\n'), 0o644); err != nil {
		return err
	}
	fmt.Printf("\n%-8s %10s %10s %10s %8s %8s\n", "side", "q/s", "p50 ms", "p99 ms", "recall", "fanout")
	fmt.Printf("%-8s %10.0f %10.3f %10.3f %8.3f %8s\n", "single",
		singleSide.QPS, singleSide.P50Millis, singleSide.P99Millis, singleSide.Recall, "-")
	fmt.Printf("%-8s %10.0f %10.3f %10.3f %8.3f %8.2f\n", "router",
		routerSide.QPS, routerSide.P50Millis, routerSide.P99Millis, routerSide.Recall, routerSide.MeanFanout)
	fmt.Printf("wrote %s\n", *out)
	return nil
}

// serveInProcess starts api on a loopback ephemeral port, returning its
// base URL; the server dies with ctx.
func serveInProcess(ctx context.Context, api *server.Server) (string, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	go api.Serve(ctx, ln)
	return "http://" + ln.Addr().String(), nil
}

func serveHandlerInProcess(ctx context.Context, h http.Handler) (string, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	srv := &http.Server{Handler: h}
	go srv.Serve(ln)
	go func() { <-ctx.Done(); srv.Close() }()
	return "http://" + ln.Addr().String(), nil
}

// benchQueries runs the query set once over HTTP (sequentially — both
// sides pay the same per-request overhead) and aggregates throughput,
// latency percentiles, recall against truth, and mean fan-out when the
// responses carry one.
func benchQueries(base string, queries *vec.Matrix, k, spill int, truth []knn.Result) (*shardBenchSide, error) {
	hc := &http.Client{Timeout: 30 * time.Second}
	durs := make([]float64, 0, queries.N)
	var recallSum, fanoutSum float64
	fanouts := 0
	wall := time.Now()
	for i := 0; i < queries.N; i++ {
		req := map[string]interface{}{"vector": queries.Row(i), "k": k}
		if spill > 0 {
			req["spill"] = spill
		}
		blob, _ := json.Marshal(req)
		t0 := time.Now()
		resp, err := hc.Post(base+"/query", "application/json", strings.NewReader(string(blob)))
		if err != nil {
			return nil, err
		}
		var body struct {
			Neighbors []struct {
				ID int `json:"id"`
			} `json:"neighbors"`
			ShardsContacted int `json:"shards_contacted"`
		}
		err = json.NewDecoder(resp.Body).Decode(&body)
		resp.Body.Close()
		if err != nil {
			return nil, err
		}
		durs = append(durs, time.Since(t0).Seconds()*1000)
		got := make([]int, len(body.Neighbors))
		for j, nb := range body.Neighbors {
			got[j] = nb.ID
		}
		recallSum += knn.Recall(truth[i].IDs, got)
		if body.ShardsContacted > 0 {
			fanoutSum += float64(body.ShardsContacted)
			fanouts++
		}
	}
	elapsed := time.Since(wall).Seconds()
	sort.Float64s(durs)
	side := &shardBenchSide{
		QPS:       float64(queries.N) / elapsed,
		P50Millis: percentile(durs, 0.50),
		P99Millis: percentile(durs, 0.99),
		Recall:    recallSum / float64(queries.N),
	}
	if fanouts > 0 {
		side.MeanFanout = fanoutSum / float64(fanouts)
	}
	return side, nil
}

func percentile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	i := int(q * float64(len(sorted)-1))
	return sorted[i]
}
