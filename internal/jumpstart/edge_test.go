package jumpstart

import (
	"errors"
	"strings"
	"testing"

	"jumpstart/internal/telemetry"
)

// TestValidatorUnhealthyTrial drives the last validation stage to
// failure: a fault-rate bound below zero makes even a fault-free trial
// unhealthy, proving the trial boot runs for real and its verdict is
// enforced.
func TestValidatorUnhealthyTrial(t *testing.T) {
	site, data := siteAndPackageBytes(t)
	v := &Validator{
		Site:           site,
		ConsumerConfig: fastServerConfig(),
		Requests:       50,
		MaxFaultRate:   -1,
	}
	err := v.Validate(data)
	if !errors.Is(err, ErrUnhealthy) {
		t.Fatalf("err = %v, want ErrUnhealthy", err)
	}
}

// TestValidatorTrialBootFailures covers both ErrBoot paths: a consumer
// config the server rejects outright, and a trial whose init cannot
// finish within the warmup deadline.
func TestValidatorTrialBootFailures(t *testing.T) {
	site, data := siteAndPackageBytes(t)

	bad := fastServerConfig()
	bad.Cores = 0 // invalid hardware config
	v := &Validator{Site: site, ConsumerConfig: bad}
	if err := v.Validate(data); !errors.Is(err, ErrBoot) {
		t.Fatalf("invalid config: err = %v, want ErrBoot", err)
	}

	slow := fastServerConfig()
	slow.InitCycles = 1e15 // init runs far past the trial's warmup deadline
	v = &Validator{Site: site, ConsumerConfig: slow}
	if err := v.Validate(data); !errors.Is(err, ErrBoot) {
		t.Fatalf("init past the deadline: err = %v, want ErrBoot", err)
	}
}

// TestValidatorEmitsTelemetry checks that validation outcomes are
// observable: failures and successes land in the counters and the
// event trace.
func TestValidatorEmitsTelemetry(t *testing.T) {
	site, data := siteAndPackageBytes(t)
	tel := telemetry.NewSet()
	v := &Validator{
		Site:           site,
		ConsumerConfig: fastServerConfig(),
		Requests:       50,
		Telem:          tel,
	}
	if err := v.Validate(data); err != nil {
		t.Fatal(err)
	}
	if err := v.Validate([]byte("garbage")); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("err = %v, want ErrCorrupt", err)
	}
	if tel.Metrics.Counter("validate.ok_total").Value() != 1 ||
		tel.Metrics.Counter("validate.fail_total").Value() != 1 {
		t.Fatalf("counters: ok=%d fail=%d",
			tel.Metrics.Counter("validate.ok_total").Value(),
			tel.Metrics.Counter("validate.fail_total").Value())
	}
	var sawFail bool
	for _, ev := range tel.Trace.Events() {
		if ev.Cat == "validate" && ev.Name == "fail" {
			sawFail = true
		}
	}
	if !sawFail {
		t.Fatal("no validate/fail event recorded")
	}
}

// TestBootConsumerEmptyStoreUsesFallback pins the VI-A3 behaviour for
// a brand-new deployment: nothing published yet, so the consumer comes
// up in no-Jump-Start mode with the reason recorded — and the boot is
// observable through the telemetry set.
func TestBootConsumerEmptyStoreUsesFallback(t *testing.T) {
	site, _ := siteAndPackageBytes(t)
	tel := telemetry.NewSet()
	srv, info, err := BootConsumer(site, NewStore(), BootConfig{
		Server: fastServerConfig(),
		Telem:  tel,
	})
	if err != nil {
		t.Fatal(err)
	}
	if srv == nil || info.UsedJumpStart {
		t.Fatalf("expected fallback boot, got %+v", info)
	}
	if info.FallbackReason != FallbackNoPackage {
		t.Fatalf("reason = %q", info.FallbackReason)
	}
	if tel.Metrics.Counter("boot.fallback_total").Value() != 1 {
		t.Fatal("fallback not counted")
	}
}

// TestBootConsumerFallbackBootFailure covers the terminal error path:
// when even the no-Jump-Start fallback server cannot be constructed,
// BootConsumer must surface the error rather than return a nil server.
func TestBootConsumerFallbackBootFailure(t *testing.T) {
	site, _ := siteAndPackageBytes(t)
	bad := fastServerConfig()
	bad.Cores = 0
	_, _, err := BootConsumer(site, NewStore(), BootConfig{Server: bad})
	if err == nil || !strings.Contains(err.Error(), "fallback boot failed") {
		t.Fatalf("err = %v, want fallback boot failure", err)
	}
}

// TestBootEventsStampVirtualTime pins the boot-clock fix: with a clock
// threaded through BootConfig, boot/jumpstart and boot/fallback events
// carry the restart's virtual time instead of a hard-coded 0.
func TestBootEventsStampVirtualTime(t *testing.T) {
	site, data := siteAndPackageBytes(t)

	// Jump-started boot at t=123.
	store := NewStore()
	store.Publish(0, 0, data)
	tel := telemetry.NewSet()
	_, info, err := BootConsumer(site, store, BootConfig{
		Server: fastServerConfig(),
		Telem:  tel,
		Clock:  func() float64 { return 123 },
	})
	if err != nil || !info.UsedJumpStart {
		t.Fatalf("boot: err=%v info=%+v", err, info)
	}
	ev := findEvent(tel, "jumpstart")
	if ev == nil || ev.T != 123 {
		t.Fatalf("jumpstart event = %+v", ev)
	}
	// The boot also lands as a causal span tree: a root "boot" span
	// with the pick and validation as children.
	boot := findEvent(tel, "boot")
	if boot == nil || boot.T != 123 || boot.Parent != 0 {
		t.Fatalf("boot span = %+v", boot)
	}
	for _, name := range []string{"store.pick", "validate"} {
		child := findEvent(tel, name)
		if child == nil || child.Parent != boot.Seq {
			t.Fatalf("%s span = %+v, want child of %d", name, child, boot.Seq)
		}
	}

	// Fallback boot at t=456.
	tel = telemetry.NewSet()
	_, info, err = BootConsumer(site, NewStore(), BootConfig{
		Server: fastServerConfig(),
		Telem:  tel,
		Clock:  func() float64 { return 456 },
	})
	if err != nil || info.UsedJumpStart {
		t.Fatalf("fallback boot: err=%v info=%+v", err, info)
	}
	ev = findEvent(tel, "fallback")
	if ev == nil || ev.T != 456 {
		t.Fatalf("fallback event = %+v", ev)
	}
}

// findEvent returns the first buffered trace event with the name.
func findEvent(tel *telemetry.Set, name string) *telemetry.Event {
	for _, ev := range tel.Trace.Events() {
		if ev.Name == name {
			return &ev
		}
	}
	return nil
}

// failingSource is a PackageSource that never delivers and reports why
// — the shape of a transport client whose fetch budget ran out.
type failingSource struct{ reason Fallback }

func (f *failingSource) Pick(region, bucket int, rnd uint64, exclude ...PackageID) (*StoredPackage, bool) {
	return nil, false
}
func (f *failingSource) PickFailure() Fallback { return f.reason }

// TestBootConsumerSourceFailureReason checks that a source's pick
// failure explanation (e.g. the transport's deadline budget) surfaces
// as the consumer's FallbackReason.
func TestBootConsumerSourceFailureReason(t *testing.T) {
	site, _ := siteAndPackageBytes(t)
	src := &failingSource{reason: FallbackFetchBudget}
	srv, info, err := BootConsumer(site, src, BootConfig{Server: fastServerConfig()})
	if err != nil || srv == nil {
		t.Fatalf("fallback boot failed: %v", err)
	}
	if info.UsedJumpStart || info.FallbackReason != FallbackFetchBudget {
		t.Fatalf("info = %+v", info)
	}
}

// TestStoreTelemetryEvents checks the store's publish / pick /
// quarantine / remove instrumentation, including the virtual-clock
// timestamps.
func TestStoreTelemetryEvents(t *testing.T) {
	st := NewStore()
	tel := telemetry.NewSet()
	now := 0.0
	st.SetTelemetry(tel, func() float64 { return now })

	now = 10
	id := st.Publish(0, 0, []byte{1, 2, 3})
	now = 20
	st.Quarantine(0, 0, []byte{4})
	now = 30
	if _, ok := st.Pick(0, 0, 12345); !ok {
		t.Fatal("pick failed")
	}
	now = 40
	if !st.Remove(id) {
		t.Fatal("remove failed")
	}

	if tel.Metrics.Counter("store.published_total").Value() != 1 ||
		tel.Metrics.Counter("store.quarantined_total").Value() != 1 ||
		tel.Metrics.Counter("store.picks_total").Value() != 1 {
		t.Fatal("store counters wrong")
	}
	evs := tel.Trace.Events()
	if len(evs) != 4 {
		t.Fatalf("events = %d, want 4", len(evs))
	}
	wantNames := []string{"publish", "quarantine", "pick", "remove"}
	wantTimes := []float64{10, 20, 30, 40}
	for i, ev := range evs {
		if ev.Name != wantNames[i] || ev.T != wantTimes[i] {
			t.Fatalf("event %d = %s@%v, want %s@%v", i, ev.Name, ev.T, wantNames[i], wantTimes[i])
		}
	}
}
