package core

import (
	"testing"

	"jumpstart/internal/server"
	"jumpstart/internal/workload"
)

func scenarioForTest(t *testing.T) *Scenario {
	t.Helper()
	siteCfg := workload.DefaultSiteConfig()
	siteCfg.Units = 4
	siteCfg.HelpersPerUnit = 6
	siteCfg.EndpointsPerUnit = 3
	srvCfg := server.DefaultConfig()
	srvCfg.OfferedRPS = 120
	srvCfg.TickSeconds = 2
	srvCfg.ProfileWindow = 300
	srvCfg.SeederCollectWindow = 250
	srvCfg.InitCycles = 10e6
	srvCfg.WarmupRequests = 4
	srvCfg.MicroSampleEvery = 16
	sc, err := NewScenario(siteCfg, srvCfg)
	if err != nil {
		t.Fatal(err)
	}
	return sc
}

func TestScenarioSeedAndVariants(t *testing.T) {
	sc := scenarioForTest(t)
	pkg, err := sc.SeedPackage()
	if err != nil {
		t.Fatal(err)
	}
	if len(pkg.Funcs) == 0 || len(pkg.FuncOrder) == 0 {
		t.Fatal("incomplete package")
	}

	// Every variant must boot and serve.
	variants := []Variant{
		{},
		{JumpStart: true},
		FullJumpStart(),
	}
	for i, v := range variants {
		srv, err := sc.ServerFor(v, pkg)
		if err != nil {
			t.Fatalf("variant %d: %v", i, err)
		}
		if err := srv.WarmToServing(7200); err != nil {
			t.Fatalf("variant %d: %v", i, err)
		}
	}
	// JumpStart variant without a package must fail loudly.
	if _, err := sc.ServerFor(Variant{JumpStart: true}, nil); err == nil {
		t.Fatal("package-less jump-start accepted")
	}
}

func TestScenarioWarmupAndSteady(t *testing.T) {
	sc := scenarioForTest(t)
	pkg, err := sc.SeedPackage()
	if err != nil {
		t.Fatal(err)
	}
	ticks, err := sc.WarmupRun(FullJumpStart(), pkg, 120)
	if err != nil {
		t.Fatal(err)
	}
	if len(ticks) == 0 {
		t.Fatal("no ticks")
	}
	st, err := sc.SteadyState(FullJumpStart(), pkg, 300)
	if err != nil {
		t.Fatal(err)
	}
	if st.CapacityRPS <= 0 || st.Faults > 0 {
		t.Fatalf("steady = %+v", st)
	}
}

func TestScenarioCalibrate(t *testing.T) {
	sc := scenarioForTest(t)
	capacity, err := sc.Calibrate(0.85, 240)
	if err != nil {
		t.Fatal(err)
	}
	if capacity <= 0 {
		t.Fatal("no capacity measured")
	}
	if got := sc.ServerCfg.OfferedRPS; got <= 0 || got >= capacity {
		t.Fatalf("offered %f vs capacity %f", got, capacity)
	}
	if sc.ServerCfg.ProfileWindow < 1000 {
		t.Fatalf("profile window = %d", sc.ServerCfg.ProfileWindow)
	}
	if sc.ServerCfg.SeederCollectWindow <= 0 {
		t.Fatal("collect window")
	}
}
