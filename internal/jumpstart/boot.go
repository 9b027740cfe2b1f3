package jumpstart

import (
	"errors"

	"jumpstart/internal/prof"
	"jumpstart/internal/server"
	"jumpstart/internal/telemetry"
	"jumpstart/internal/workload"
)

// PackageSource is where BootConsumer draws packages from: the
// in-memory *Store directly, or a transport client that fetches over
// the (real or simulated) network.
type PackageSource interface {
	Pick(region, bucket int, rnd uint64, exclude ...PackageID) (*StoredPackage, bool)
}

// pickFailureReporter is optionally implemented by a PackageSource
// that can explain why its last Pick returned no package (e.g. the
// transport client's "fetch budget exhausted"). The reason becomes the
// consumer's FallbackReason.
type pickFailureReporter interface {
	PickFailure() string
}

// spanParented is optionally implemented by a PackageSource that
// records its own causal spans (the transport client, the multi-store
// hierarchy). BootConsumer hands it the current pick span's ID so the
// source's spans nest under the boot tree instead of floating as
// roots.
type spanParented interface {
	SetSpanParent(id uint64)
}

// BootInfo describes how a consumer came up.
type BootInfo struct {
	// UsedJumpStart reports whether the server booted from a package.
	UsedJumpStart bool
	// PackageID is the package used (when UsedJumpStart).
	PackageID PackageID
	// Attempts counts package selections tried.
	Attempts int
	// FallbackReason is non-empty when the no-Jump-Start fallback was
	// taken (Section VI-A3).
	FallbackReason string
}

// BootConfig parameterizes BootConsumer.
type BootConfig struct {
	// Server is the consumer configuration; Mode/Package are managed
	// by BootConsumer.
	Server server.Config
	// MaxAttempts bounds how many packages are tried before falling
	// back to collecting a fresh profile (default 3).
	MaxAttempts int
	// Rand supplies randomness for package selection; consecutive
	// calls must differ (any PRNG works; determinism is up to the
	// caller).
	Rand func() uint64
	// Telem observes the boot protocol (may be nil). It is NOT passed
	// to the booted server — set Server.Telem for that.
	Telem *telemetry.Set
	// Clock supplies the virtual time stamped onto boot events (nil
	// stamps 0, like Store.SetTelemetry's clock).
	Clock func() float64
	// Revision is the consumer's build checksum (0 disables revision
	// checking). A picked package whose decoded Meta.Revision differs
	// is skipped, and records the distinct "package revision mismatch"
	// fallback reason if boot ultimately falls back.
	Revision uint64
	// Warmup selects eager (the zero value) or lazy package
	// materialization for the booted consumer. Lazy maps onto
	// Server.LazyWarmup: the consumer serves as soon as init work is
	// paid and pages translations in on first call through
	// Server.Pager (set one — e.g. transport.NewLazyPager — or
	// page-ins are local and instant).
	Warmup WarmupMode
}

// now reads the boot clock for event timestamps.
func (c *BootConfig) now() float64 {
	if c.Clock == nil {
		return 0
	}
	return c.Clock()
}

// BootConsumer implements the consumer start sequence with the
// Section VI-A2/A3 protections: pick a random package for the server's
// (region, bucket); if it cannot be decoded or the server cannot be
// built from it, pick another (excluding failed ones); if no suitable
// package exists or attempts run out, automatically restart with
// Jump-Start disabled — i.e. a ModeNoJumpStart server that collects
// its own profile.
func BootConsumer(site *workload.Site, source PackageSource, cfg BootConfig) (*server.Server, BootInfo, error) {
	info := BootInfo{}
	maxAttempts := cfg.MaxAttempts
	if maxAttempts <= 0 {
		maxAttempts = 3
	}
	rnd := cfg.Rand
	if rnd == nil {
		var x uint64 = 88172645463325252
		rnd = func() uint64 {
			x ^= x << 13
			x ^= x >> 7
			x ^= x << 17
			return x
		}
	}

	// The boot is the root of this consumer's causal span tree; every
	// pick and validation lands as a child, and a span-recording
	// source nests its own fetch spans under the pick span.
	bootSpan := cfg.Telem.BeginSpan()
	bootStart := cfg.now()
	sp, _ := source.(spanParented)
	if sp != nil {
		defer sp.SetSpanParent(0)
	}
	var failed []PackageID
	for attempt := 1; attempt <= maxAttempts; attempt++ {
		pickSpan := cfg.Telem.BeginSpan()
		if sp != nil {
			sp.SetSpanParent(pickSpan)
		}
		pickStart := cfg.now()
		pkg, ok := source.Pick(cfg.Server.Region, cfg.Server.Bucket, rnd(), failed...)
		cfg.Telem.EndSpan(pickSpan, bootSpan, pickStart, cfg.now(), "boot", "store.pick",
			telemetry.I("attempt", int64(attempt)),
			telemetry.B("ok", ok))
		if !ok {
			// No package: either the store has none left to offer
			// (every candidate already failed this consumer — fall
			// back immediately rather than retrying a known-bad
			// package), or a networked source gave up and can say why.
			// A reason recorded on an earlier attempt (revision
			// mismatch, undecodable package) explains why the store ran
			// out of candidates — don't let the generic empty-store
			// reason clobber it.
			if info.FallbackReason == "" {
				if pf, okr := source.(pickFailureReporter); okr {
					if r := pf.PickFailure(); r != "" {
						info.FallbackReason = r
					}
				}
			}
			if info.FallbackReason == "" {
				info.FallbackReason = "no package available"
			}
			break
		}
		info.Attempts = attempt
		// The validate span covers decode + revision check.
		vSpan := cfg.Telem.BeginSpan()
		vStart := cfg.now()
		p, err := prof.Decode(pkg.Data)
		if err != nil {
			// Corrupted package: never crash, try another (VI-A3).
			cfg.Telem.EndSpan(vSpan, bootSpan, vStart, cfg.now(), "boot", "validate",
				telemetry.B("ok", false), telemetry.S("reason", "undecodable"))
			failed = append(failed, pkg.ID)
			info.FallbackReason = "packages undecodable"
			continue
		}
		if cfg.Revision != 0 && uint64(p.Meta.Revision) != cfg.Revision {
			// A package from a different build would silently warm the
			// server from arbitrarily different code; the distinct
			// reason makes these fallbacks visible.
			cfg.Telem.EndSpan(vSpan, bootSpan, vStart, cfg.now(), "boot", "validate",
				telemetry.B("ok", false), telemetry.S("reason", "revision-mismatch"))
			failed = append(failed, pkg.ID)
			info.FallbackReason = "package revision mismatch"
			continue
		}
		cfg.Telem.EndSpan(vSpan, bootSpan, vStart, cfg.now(), "boot", "validate",
			telemetry.B("ok", true))
		sc := cfg.Server
		sc.Mode = server.ModeConsumer
		sc.Package = p
		if cfg.Warmup == WarmupLazy {
			sc.LazyWarmup = true
		}
		srv, err := server.New(site, sc)
		if err != nil {
			failed = append(failed, pkg.ID)
			info.FallbackReason = "consumer boot failed"
			continue
		}
		info.UsedJumpStart = true
		info.PackageID = pkg.ID
		info.FallbackReason = ""
		cfg.Telem.Event(cfg.now(), "boot", "jumpstart",
			telemetry.I("package", int64(pkg.ID)),
			telemetry.I("attempts", int64(info.Attempts)))
		cfg.Telem.EndSpan(bootSpan, 0, bootStart, cfg.now(), "boot", "boot",
			telemetry.S("outcome", "jumpstart"),
			telemetry.I("attempts", int64(info.Attempts)))
		return srv, info, nil
	}

	// Automatic no-Jump-Start fallback.
	sc := cfg.Server
	sc.Mode = server.ModeNoJumpStart
	sc.Package = nil
	srv, err := server.New(site, sc)
	if err != nil {
		cfg.Telem.EndSpan(bootSpan, 0, bootStart, cfg.now(), "boot", "boot",
			telemetry.S("outcome", "error"))
		return nil, info, errors.New("jumpstart: fallback boot failed: " + err.Error())
	}
	if info.FallbackReason == "" {
		info.FallbackReason = "attempts exhausted"
	}
	cfg.Telem.Counter("boot.fallback_total").Inc()
	cfg.Telem.Event(cfg.now(), "boot", "fallback",
		telemetry.S("reason", info.FallbackReason),
		telemetry.I("attempts", int64(info.Attempts)))
	cfg.Telem.EndSpan(bootSpan, 0, bootStart, cfg.now(), "boot", "boot",
		telemetry.S("outcome", "fallback"),
		telemetry.S("reason", info.FallbackReason),
		telemetry.I("attempts", int64(info.Attempts)))
	return srv, info, nil
}
