// Command jumpstartd runs one simulated HHVM web server against the
// synthetic website, in any of the three Figure 3 modes, printing the
// per-tick time series (time, RPS, latency, code size, phase).
//
// Usage:
//
//	jumpstartd -mode nojumpstart -seconds 600
//	jumpstartd -mode seeder -package /tmp/profile.pkg         # seed, validate, write
//	jumpstartd -mode consumer -package /tmp/profile.pkg       # read a package
//	jumpstartd -mode consumer -package /tmp/profile.pkg \
//	           -warmup-mode lazy                              # serve immediately, page
//	                                                          # translations in on first call
//
// Networked profile store (two-process handoff over localhost):
//
//	jumpstartd -serve-store 127.0.0.1:8099                    # store daemon
//	jumpstartd -mode seeder   -store-url http://127.0.0.1:8099  # validate, upload
//	jumpstartd -mode consumer -store-url http://127.0.0.1:8099  # fetch + boot
//
// Seeder aggregation (merge N seeder packages into one consensus package):
//
//	jumpstartd -aggregate a.pkg,b.pkg,c.pkg -package merged.pkg   # merge only
//	jumpstartd -mode consumer -aggregate a.pkg,b.pkg              # merge, then boot
//
// Telemetry (all optional, zero simulation perturbation):
//
//	-trace out.jsonl        # structured event trace
//	-metrics out.json       # metrics registry snapshot
//	-cycleprof out.folded   # virtual-cycle flame profile (folded stacks)
//	-spans boot.json        # causal boot-span trace; .json = Chrome
//	                        # trace_event (load in ui.perfetto.dev),
//	                        # any other extension = JSONL
//	-http :8080             # live /metrics endpoint + net/http/pprof
package main

import (
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/pprof"
	"os"
	"strings"
	"time"

	"jumpstart/internal/jumpstart"
	"jumpstart/internal/jumpstart/transport"
	"jumpstart/internal/obs"
	"jumpstart/internal/prof"
	"jumpstart/internal/server"
	"jumpstart/internal/telemetry"
	"jumpstart/internal/workload"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "jumpstartd:", err)
		os.Exit(1)
	}
}

// run executes the simulation; main is only flag-error plumbing so
// tests can drive the binary end to end in-process.
func run(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("jumpstartd", flag.ContinueOnError)
	mode := fs.String("mode", "nojumpstart", "nojumpstart | seeder | consumer")
	seconds := fs.Float64("seconds", 600, "virtual seconds to simulate")
	pkgPath := fs.String("package", "", "profile package path (written by seeder, read by consumer)")
	aggregatePkgs := fs.String("aggregate", "", "comma-separated seeder package files to merge into one consensus package (written to -package; -mode consumer boots from the merge)")
	region := fs.Int("region", 0, "data-center region")
	bucket := fs.Int("bucket", 0, "semantic bucket")
	seed := fs.Uint64("seed", 1, "traffic seed")
	rps := fs.Float64("rps", 0, "offered RPS (0 = default)")
	sinks := obs.NewSinks(fs)
	httpAddr := fs.String("http", "", "serve /metrics and /debug/pprof on this address while simulating")
	serveStore := fs.String("serve-store", "", "run as a networked profile-store server on this address instead of simulating")
	serveSeconds := fs.Float64("serve-seconds", 0, "wall seconds to serve the store before exiting (0 = forever)")
	storeURL := fs.String("store-url", "", "networked profile store base URL (seeder uploads to it, consumer fetches from it)")
	fetchBudget := fs.Float64("fetch-budget", 30, "consumer per-boot fetch deadline budget, wall seconds")
	revision := fs.Uint64("revision", 0, "build revision checksum: seeders stamp uploaded packages with it, consumers reject mismatched packages (0 disables checking)")
	quick := fs.Bool("quick", false, "reduced-scale site and server config (fast demos and tests)")
	warmupMode := fs.String("warmup-mode", "eager", "consumer package materialization: eager | lazy (lazy serves immediately and pages translations in on first call; with -store-url page-ins re-fetch chunks over the transport)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	wmode, err := jumpstart.ParseWarmupMode(*warmupMode)
	if err != nil {
		return fmt.Errorf("%v (see jumpstartd -h for usage)", err)
	}
	switch *mode {
	case "nojumpstart", "seeder", "consumer":
	default:
		return fmt.Errorf("-mode must be nojumpstart, seeder or consumer, got %q (see jumpstartd -h for usage)", *mode)
	}
	for _, c := range []struct {
		bad  bool
		name string
		msg  string
	}{
		{*seconds <= 0, "-seconds", "must be > 0"},
		{*region < 0, "-region", "must be >= 0"},
		{*bucket < 0, "-bucket", "must be >= 0"},
		{*rps < 0, "-rps", "must be >= 0"},
		{*fetchBudget <= 0, "-fetch-budget", "must be > 0"},
		{*serveSeconds < 0, "-serve-seconds", "must be >= 0"},
		{wmode == jumpstart.WarmupLazy && *mode != "consumer", "-warmup-mode lazy", "requires -mode consumer"},
		{*mode == "consumer" && *pkgPath == "" && *aggregatePkgs == "" && *storeURL == "",
			"consumer mode", "requires -package, -aggregate, or -store-url"},
	} {
		if c.bad {
			return fmt.Errorf("%s %s (see jumpstartd -h for usage)", c.name, c.msg)
		}
	}
	if *aggregatePkgs != "" && *mode != "consumer" {
		// Merge-only invocation: combine seeder packages into a
		// consensus package without running a server.
		_, err := mergePackages(*aggregatePkgs, *pkgPath, stdout)
		return err
	}

	// Telemetry is allocated whenever any sink or the live endpoint
	// wants it; the simulation output is byte-identical either way.
	tel := sinks.NewSet()
	if tel == nil && *httpAddr != "" {
		tel = telemetry.NewSet()
	}

	if *serveStore != "" {
		if err := runStoreServer(*serveStore, *serveSeconds, *pkgPath, *region, *bucket, tel, stdout); err != nil {
			return err
		}
		return sinks.Write(tel, stdout)
	}

	scfg := workload.DefaultSiteConfig()
	cfg := server.DefaultConfig()
	if *quick {
		scfg.Units, scfg.HelpersPerUnit, scfg.EndpointsPerUnit = 5, 6, 3
		cfg.OfferedRPS = 150
		cfg.TickSeconds = 2
		cfg.ProfileWindow = 300
		cfg.SeederCollectWindow = 250
		cfg.InitCycles = 10e6
		cfg.UnitPreloadCycles = 100e3
		cfg.WarmupRequests = 4
		cfg.MicroSampleEvery = 16
	}
	site, err := workload.GenerateSite(scfg)
	if err != nil {
		return err
	}

	cfg.Region, cfg.Bucket, cfg.Seed = *region, *bucket, *seed
	if *rps > 0 {
		cfg.OfferedRPS = *rps
	}
	cfg.Telem = tel

	var s *server.Server
	var pager *transport.LazyPager
	switch *mode {
	case "nojumpstart":
		cfg.Mode = server.ModeNoJumpStart
	case "consumer":
		cfg = consumerConfig(cfg)
		cfg.LazyWarmup = wmode == jumpstart.WarmupLazy
		if *storeURL != "" {
			// Networked boot: fetch a package through the retrying
			// transport client; BootConsumer handles the pick/decode
			// retries and the automatic no-Jump-Start fallback.
			srv, info, pg, err := bootFromStore(site, cfg, *storeURL, *fetchBudget, *seed, *revision, wmode, tel)
			if err != nil {
				return err
			}
			fmt.Fprintf(stdout, "# boot: jumpstart=%v attempts=%d package=%d reason=%q\n",
				info.UsedJumpStart, info.Attempts, info.PackageID, info.FallbackReason)
			s, pager = srv, pg
		} else if *aggregatePkgs != "" {
			pkg, err := mergePackages(*aggregatePkgs, *pkgPath, stdout)
			if err != nil {
				return err
			}
			cfg.Package = pkg
		} else {
			data, err := os.ReadFile(*pkgPath)
			if err != nil {
				return err
			}
			pkg, err := prof.Decode(data)
			if err != nil {
				return err
			}
			cfg.Package = pkg
		}
	}

	if *httpAddr != "" {
		go func() {
			// Telemetry instruments are atomic, so serving reads
			// concurrently with the simulation is safe.
			if err := http.ListenAndServe(*httpAddr, telemetryMux(tel)); err != nil {
				fmt.Fprintln(os.Stderr, "jumpstartd: http:", err)
			}
		}()
	}

	var ticks []server.TickStats
	var seeded jumpstart.SeedResult
	var seedStore *jumpstart.Store
	if *mode == "seeder" {
		// Section VI-A1's loop. The process-local store is the
		// "database" that keeps the packages failing validation.
		seedStore = jumpstart.NewStore()
		v := &jumpstart.Validator{Site: site, ConsumerConfig: consumerConfig(cfg),
			Revision: *revision, Telem: tel}
		if seeded, err = jumpstart.SeedAndPublish(site, cfg, *seconds, v, seedStore); err != nil {
			return err
		}
		ticks = seeded.Ticks
	} else {
		if s == nil {
			if s, err = server.New(site, cfg); err != nil {
				return err
			}
		}
		ticks = s.Run(*seconds)
	}
	fmt.Fprintf(stdout, "# %s server, region %d bucket %d, offered %.0f RPS\n",
		*mode, *region, *bucket, cfg.OfferedRPS)
	fmt.Fprintln(stdout, "t_seconds,completed,avg_latency_ms,code_bytes,phase,faults")
	for _, tk := range ticks {
		fmt.Fprintf(stdout, "%.0f,%d,%.1f,%d,%s,%d\n",
			tk.T, tk.Completed, tk.AvgLatencyMS, tk.CodeBytes, tk.Phase, tk.Faults)
	}
	if wmode == jumpstart.WarmupLazy {
		ls := s.LazyStats()
		fmt.Fprintf(stdout, "# lazy: armed=%d paged=%d misses=%d", ls.Armed, ls.Paged, ls.Misses)
		if pager != nil {
			ins, misses := pager.Stats()
			fmt.Fprintf(stdout, " (transport page-ins=%d misses=%d)", ins, misses)
		}
		fmt.Fprintln(stdout)
	}
	if *mode == "seeder" {
		fmt.Fprintf(stdout, "# seed: attempts=%d quarantined=%d\n",
			seeded.Attempts, seedStore.QuarantinedCount())
		c := seeded.Package.Coverage()
		fmt.Fprintf(stdout, "# package: %d funcs, %d hot blocks, %d requests profiled\n",
			c.Funcs, c.Blocks, c.RequestCount)
		// File and upload carry the published, stamped and validated
		// bytes; Get cannot miss an id SeedAndPublish just returned.
		entry, _ := seedStore.Get(seeded.Published)
		if *pkgPath != "" {
			if err := os.WriteFile(*pkgPath, entry.Data, 0o644); err != nil {
				return err
			}
			fmt.Fprintf(stdout, "# wrote %s (%d bytes)\n", *pkgPath, len(entry.Data))
		}
		if *storeURL != "" {
			cli := storeClient(*storeURL, *fetchBudget, *seed, transport.NewWallClock(), tel)
			id, err := cli.Publish(*region, *bucket, *revision, entry.Data)
			if err != nil {
				return fmt.Errorf("publish to %s: %w", *storeURL, err)
			}
			fmt.Fprintf(stdout, "# published package id=%d (%d bytes) to %s\n",
				id, len(entry.Data), *storeURL)
		}
	}

	return sinks.Write(tel, stdout)
}

// consumerConfig is cfg as a Jump-Start consumer with every Section V
// optimization: -mode consumer and the seeder's validation trial boot.
func consumerConfig(cfg server.Config) server.Config {
	cfg.Mode = server.ModeConsumer
	cfg.UsePropertyOrder = true
	cfg.JITOpts.UseVasmCounters = true
	cfg.JITOpts.UseSeededCallGraph = true
	return cfg
}

// mergePackages decodes the comma-separated seeder package files, merges
// them into one consensus package via prof.Aggregate, optionally writes
// the result to outPath, and reports the merge stats.
func mergePackages(list, outPath string, stdout io.Writer) (*prof.Profile, error) {
	var pkgs []*prof.Profile
	for _, p := range strings.Split(list, ",") {
		p = strings.TrimSpace(p)
		if p == "" {
			continue
		}
		data, err := os.ReadFile(p)
		if err != nil {
			return nil, err
		}
		pkg, err := prof.Decode(data)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", p, err)
		}
		pkgs = append(pkgs, pkg)
	}
	merged, stats, err := prof.Aggregate(pkgs)
	if err != nil {
		return nil, err
	}
	fmt.Fprintf(stdout, "# consensus merge: seeders=%d funcs=%d checksum_conflicts=%d type_sites_kept=%d type_sites_dropped=%d vasm_dropped=%d\n",
		stats.Seeders, stats.Funcs, stats.ChecksumConflicts,
		stats.TypeSitesKept, stats.TypeSitesDropped, stats.VasmDropped)
	if outPath != "" {
		enc := merged.Encode()
		if err := os.WriteFile(outPath, enc, 0o644); err != nil {
			return nil, err
		}
		fmt.Fprintf(stdout, "# wrote %s (%d bytes)\n", outPath, len(enc))
	}
	return merged, nil
}

// storeClient builds a retrying transport client against a real store
// over HTTP, with the wall clock driving timeouts and the per-fetch
// deadline budget.
func storeClient(url string, budget float64, seed uint64, wall *transport.WallClock, tel *telemetry.Set) *transport.Client {
	ccfg := transport.DefaultClientConfig()
	ccfg.Budget = budget
	ccfg.Seed = seed
	cli := transport.NewClient(transport.NewHTTPConn(url, ccfg.RPCTimeout), wall, ccfg)
	cli.SetTelemetry(tel)
	return cli
}

// bootFromStore boots a consumer from the networked store: the
// transport client is the package source, so fetch retries, chunk
// resume, and the deadline budget all apply; budget exhaustion surfaces
// as BootInfo.FallbackReason and the server comes up without Jump-Start.
// In lazy warmup mode the same client doubles as the pager: the pager
// is built before the boot (so the server config can carry it) and
// armed with the boot fetch's manifest afterwards, before any request
// is served.
func bootFromStore(site *workload.Site, cfg server.Config, url string,
	budget float64, seed, revision uint64, wmode jumpstart.WarmupMode,
	tel *telemetry.Set) (*server.Server, jumpstart.BootInfo, *transport.LazyPager, error) {
	// One wall clock for both the transport client and the boot
	// protocol: the boot span and its nested fetch spans must share a
	// timebase or the children would escape the parent's window.
	wall := transport.NewWallClock()
	cli := storeClient(url, budget, seed, wall, tel)
	var pager *transport.LazyPager
	if wmode == jumpstart.WarmupLazy {
		pager = transport.NewLazyPager(cli, nil)
		cfg.Pager = pager
	}
	rnd := seed
	srv, info, err := jumpstart.BootConsumer(site, cli, jumpstart.BootConfig{
		Server:   cfg,
		Telem:    tel,
		Clock:    wall.Now,
		Revision: revision,
		Rand: func() uint64 {
			rnd = rnd*6364136223846793005 + 1442695040888963407
			return rnd
		},
	})
	if err == nil && pager != nil {
		pager.SetManifest(cli.LastManifest())
	}
	return srv, info, pager, err
}

// runStoreServer runs the networked profile store: a jumpstart.Store
// fronted by the chunked HTTP protocol. An optional -package file is
// preloaded into (-region, -bucket) so a consumer can fetch it without
// a live seeder.
func runStoreServer(addr string, seconds float64, preload string,
	region, bucket int, tel *telemetry.Set, stdout io.Writer) error {
	store := jumpstart.NewStore()
	srv := transport.NewServer(store, 0)
	if tel != nil {
		wall := transport.NewWallClock()
		store.SetTelemetry(tel, wall.Now)
		srv.SetTelemetry(tel)
	}
	if preload != "" {
		data, err := os.ReadFile(preload)
		if err != nil {
			return err
		}
		id := store.Publish(region, bucket, data)
		fmt.Fprintf(stdout, "# preloaded %s as package id=%d (region %d bucket %d)\n",
			preload, id, region, bucket)
	}
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return err
	}
	fmt.Fprintf(stdout, "# store listening on http://%s\n", ln.Addr())
	hs := &http.Server{Handler: srv.Handler()}
	if seconds <= 0 {
		return hs.Serve(ln)
	}
	errc := make(chan error, 1)
	go func() { errc <- hs.Serve(ln) }()
	select {
	case err := <-errc:
		return err
	case <-time.After(time.Duration(seconds * float64(time.Second))):
	}
	if err := hs.Close(); err != nil {
		return err
	}
	fmt.Fprintf(stdout, "# store shut down after %.2fs\n", seconds)
	return nil
}

// telemetryMux serves the live metrics snapshot and the standard Go
// profiling endpoints. Exposed as a function so tests can exercise the
// endpoints via httptest without binding a port.
func telemetryMux(tel *telemetry.Set) *http.ServeMux {
	mux := http.NewServeMux()
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		if tel == nil {
			fmt.Fprintln(w, "{}")
			return
		}
		if err := tel.Metrics.WriteJSON(w); err != nil {
			http.Error(w, err.Error(), http.StatusInternalServerError)
		}
	})
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	return mux
}
