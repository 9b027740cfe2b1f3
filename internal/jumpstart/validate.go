package jumpstart

import (
	"errors"
	"fmt"

	"jumpstart/internal/prof"
	"jumpstart/internal/server"
	"jumpstart/internal/telemetry"
	"jumpstart/internal/workload"
)

// Validator implements the seeder-side health check of Section VI-A1:
// before publishing, the seeder restarts HHVM in Jump-Start consumer
// mode using the profile data it just collected, and only publishes if
// the restart stays healthy.
type Validator struct {
	// Site is the website the package must serve.
	Site *workload.Site
	// ConsumerConfig is the configuration used for the trial boot.
	// Its Mode, Package and Telem fields are overwritten.
	ConsumerConfig server.Config
	// Requests is the validation traffic volume ("remains healthy for
	// a few minutes", scaled).
	Requests int
	// MaxFaultRate bounds the tolerated error rate during validation.
	MaxFaultRate float64
	// Thresholds is the coverage floor of Section VI-B.
	Thresholds prof.Thresholds
	// Revision is the build checksum of the source revision this
	// validator serves (0 disables revision checking, for callers that
	// predate revision stamping). A package whose Meta.Revision differs
	// is rejected with ErrRevision.
	Revision uint64
	// Telem observes validation outcomes (may be nil). The trial server
	// itself runs without telemetry so validation cost stays identical
	// with observation on or off.
	Telem *telemetry.Set
}

// validateWarmupDeadline bounds the trial boot's virtual seconds to serving.
const validateWarmupDeadline = 3600

// Validation errors.
var (
	ErrCoverage  = errors.New("jumpstart: profile coverage below thresholds")
	ErrCorrupt   = errors.New("jumpstart: package failed decode")
	ErrBoot      = errors.New("jumpstart: consumer trial boot failed")
	ErrUnhealthy = errors.New("jumpstart: consumer trial unhealthy")
	ErrRevision  = errors.New("jumpstart: " + FallbackRevisionMismatch.String())
)

// Validate checks a serialized package end to end: decodability,
// coverage thresholds, and a real consumer-mode trial boot serving
// validation traffic. It returns nil only for publishable packages.
func (v *Validator) Validate(data []byte) error {
	err := v.validate(data)
	if err != nil {
		v.Telem.Counter("validate.fail_total").Inc()
		v.Telem.Event(0, "validate", "fail", telemetry.S("err", err.Error()))
	} else {
		v.Telem.Counter("validate.ok_total").Inc()
		v.Telem.Event(0, "validate", "ok", telemetry.I("bytes", int64(len(data))))
	}
	return err
}

func (v *Validator) validate(data []byte) error {
	p, err := prof.Decode(data)
	if err != nil {
		return fmt.Errorf("%w: %v", ErrCorrupt, err)
	}
	if v.Revision != 0 && uint64(p.Meta.Revision) != v.Revision {
		return fmt.Errorf("%w: package %x, build %x",
			ErrRevision, uint64(p.Meta.Revision), v.Revision)
	}
	if !p.MeetsThresholds(v.Thresholds) {
		c := p.Coverage()
		return fmt.Errorf("%w: funcs=%d blocks=%d requests=%d",
			ErrCoverage, c.Funcs, c.Blocks, c.RequestCount)
	}

	cfg := v.ConsumerConfig
	cfg.Mode = server.ModeConsumer
	cfg.Package = p
	cfg.Telem = nil
	trial, err := server.New(v.Site, cfg)
	if err != nil {
		return fmt.Errorf("%w: %v", ErrBoot, err)
	}
	if err := trial.WarmToServing(validateWarmupDeadline); err != nil {
		return fmt.Errorf("%w: %v", ErrBoot, err)
	}
	n := v.Requests
	if n == 0 {
		n = 500
	}
	stats := trial.MeasureSteady(n)
	faultRate := float64(stats.Faults) / float64(n)
	if faultRate > v.MaxFaultRate {
		return fmt.Errorf("%w: fault rate %.4f > %.4f",
			ErrUnhealthy, faultRate, v.MaxFaultRate)
	}
	return nil
}

// SeedResult reports a seed-validate-publish run.
type SeedResult struct {
	Attempts  int
	Published PackageID
	Package   *prof.Profile
	// Ticks is the accepted attempt's tick series, from process start
	// through the tick in which the seeder exited.
	Ticks []server.TickStats
}

// SeedAndPublish runs a seeder server for at most seconds of virtual
// time, validates the collected package and publishes it, retrying the
// full seed-validate cycle on failure up to MaxAttempts times
// ("Otherwise, the server restarts in seeder mode and repeats the
// entire process" — Section VI-A1). Failed packages are quarantined.
// The published entry holds the validated, v.Revision-stamped bytes.
func SeedAndPublish(site *workload.Site, seederCfg server.Config, seconds float64,
	v *Validator, store *Store) (SeedResult, error) {
	res := SeedResult{}
	var lastErr error
	for attempt := 1; attempt <= MaxAttempts; attempt++ {
		res.Attempts = attempt
		cfg := seederCfg
		cfg.Mode = server.ModeSeeder
		cfg.Seed = seederCfg.Seed + uint64(attempt-1)*1_000_003
		srv, err := server.New(site, cfg)
		if err != nil {
			return res, err
		}
		var ticks []server.TickStats
		for srv.Phase() != server.PhaseExited && srv.Now() < seconds {
			ticks = append(ticks, srv.Tick())
		}
		pkg, ok := srv.SeederPackage()
		if !ok {
			lastErr = fmt.Errorf("jumpstart: seeder did not finish within %v virtual seconds", seconds)
			continue
		}
		if v.Revision != 0 {
			// Stamp the collected profile with the seeder's build; the
			// store entry carries the same stamp so consumers can check
			// compatibility before decoding.
			pkg.Meta.Revision = int64(v.Revision)
		}
		data := pkg.Encode()
		if err := v.Validate(data); err != nil {
			store.Quarantine(cfg.Region, cfg.Bucket, data)
			lastErr = err
			continue
		}
		res.Published = store.PublishRevision(cfg.Region, cfg.Bucket, data, v.Revision)
		res.Package = pkg
		res.Ticks = ticks
		return res, nil
	}
	return res, lastErr
}
