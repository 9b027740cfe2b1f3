// Package workload generates the synthetic website the simulation
// serves and the request traffic that drives it.
//
// The generator aims for the workload properties the paper leans on
// (Section II-B/II-C): many units and functions with a *flat* hotness
// profile and a long tail; classes with inheritance, hot and cold
// properties, and both monomorphic and polymorphic call sites; traffic
// that differs per data-center region but is similar within a
// (region, semantic-bucket) pair. Everything derives deterministically
// from a seed.
package workload

import (
	"fmt"
	"strings"

	"jumpstart/internal/bytecode"
	"jumpstart/internal/hackc"
	"jumpstart/internal/netsim"
)

// SiteConfig sizes the generated website.
type SiteConfig struct {
	Seed             uint64
	Units            int // source files
	HelpersPerUnit   int // shared library functions per unit
	EndpointsPerUnit int
}

// The site's shape beyond its size is fixed.
const (
	classesPerUnit   = 2     // class families per unit (base + 2 derived)
	partitions       = 10    // semantic partitions (paper: 10)
	loopMin, loopMax = 4, 16 // helper loop trip counts
)

// DefaultSiteConfig returns a website of a few hundred functions —
// large relative to the scaled L1I/LLC, small enough to simulate fast.
func DefaultSiteConfig() SiteConfig {
	return SiteConfig{
		Seed:             1,
		Units:            12,
		HelpersPerUnit:   12,
		EndpointsPerUnit: 6,
	}
}

// Endpoint is one web entry point.
type Endpoint struct {
	Name      string
	Fn        *bytecode.Function
	Partition int
}

// Site is a generated website: compiled program plus endpoint table.
type Site struct {
	Config    SiteConfig
	Prog      *bytecode.Program
	Sources   map[string]string
	UnitNames []string
	Endpoints []Endpoint
}

// GenerateSite builds and compiles a synthetic website.
func GenerateSite(cfg SiteConfig) (*Site, error) {
	r := newRNG(cfg.Seed)
	g := &siteGen{cfg: cfg, r: r}
	g.generate()

	prog, err := hackc.CompileSources(g.sources, g.unitNames, hackc.Options{Optimize: true})
	if err != nil {
		return nil, fmt.Errorf("workload: generated site failed to compile: %w", err)
	}
	site := &Site{
		Config:    cfg,
		Prog:      prog,
		Sources:   g.sources,
		UnitNames: g.unitNames,
	}
	for i, name := range g.endpoints {
		fn, ok := prog.FuncByName(name)
		if !ok {
			return nil, fmt.Errorf("workload: endpoint %s missing after compile", name)
		}
		site.Endpoints = append(site.Endpoints, Endpoint{
			Name:      name,
			Fn:        fn,
			Partition: i % partitions,
		})
	}
	return site, nil
}

type siteGen struct {
	cfg       SiteConfig
	r         *netsim.Stream
	sources   map[string]string
	unitNames []string
	endpoints []string

	helperNames []string // global helper list, in definition order
	classNames  []string // base class per family
}

func (g *siteGen) generate() {
	g.sources = make(map[string]string)
	totalHelpers := g.cfg.Units * g.cfg.HelpersPerUnit
	for i := 0; i < totalHelpers; i++ {
		g.helperNames = append(g.helperNames, fmt.Sprintf("h%d", i))
	}
	for u := 0; u < g.cfg.Units; u++ {
		for k := 0; k < classesPerUnit; k++ {
			g.classNames = append(g.classNames, fmt.Sprintf("C%d_%d", u, k))
		}
	}

	hIdx := 0
	epIdx := 0
	for u := 0; u < g.cfg.Units; u++ {
		var b strings.Builder
		fmt.Fprintf(&b, "// unit %d (generated)\n", u)
		for k := 0; k < classesPerUnit; k++ {
			g.genClassFamily(&b, u, k)
		}
		for k := 0; k < g.cfg.HelpersPerUnit; k++ {
			g.genHelper(&b, hIdx)
			hIdx++
		}
		for k := 0; k < g.cfg.EndpointsPerUnit; k++ {
			name := fmt.Sprintf("ep%d", epIdx)
			g.genEndpoint(&b, name, totalHelpers)
			g.endpoints = append(g.endpoints, name)
			epIdx++
		}
		unit := fmt.Sprintf("unit%03d.mh", u)
		g.unitNames = append(g.unitNames, unit)
		g.sources[unit] = b.String()
	}
}

// genClassFamily emits a base class with 4-8 properties (some hot,
// some cold), a constructor, hot/cold methods, and two derived classes
// overriding val() (the polymorphic dispatch target).
func (g *siteGen) genClassFamily(b *strings.Builder, u, k int) {
	base := fmt.Sprintf("C%d_%d", u, k)
	nprops := rangeInt(g.r, 8, 14)
	fmt.Fprintf(b, "class %s {\n", base)
	for p := 0; p < nprops; p++ {
		fmt.Fprintf(b, "  prop p%d = %d;\n", p, g.r.Intn(10))
	}
	// Constructor touches the first two properties.
	fmt.Fprintf(b, "  fun __construct(a) { this->p0 = a; this->p1 = a * %d; }\n",
		rangeInt(g.r, 2, 5))
	// Hot method: reads/writes early... actually reads *late* declared
	// properties too, so reordering by hotness has something to move.
	hotA := nprops - 1 // declared last but accessed hottest
	fmt.Fprintf(b, "  fun bump(x) { this->p%d += x; return this->p%d + this->p0; }\n",
		hotA, hotA)
	// Cold method touching middle properties.
	fmt.Fprintf(b, "  fun coldSum() { return this->p1 + this->p2 + this->p3; }\n")
	fmt.Fprintf(b, "  fun val() { return this->p0 + this->p1; }\n")
	fmt.Fprintf(b, "}\n")
	fmt.Fprintf(b, "class %sA extends %s { fun val() { return this->p0 * 2; } }\n", base, base)
	fmt.Fprintf(b, "class %sB extends %s { fun val() { return this->p1 + 7; } }\n", base, base)
}

// genHelper emits helper hIdx with one of five body shapes. Helpers
// only call helpers with higher indices, keeping the call graph
// acyclic and recursion-free.
func (g *siteGen) genHelper(b *strings.Builder, hIdx int) {
	name := g.helperNames[hIdx]
	loop := rangeInt(g.r, loopMin, loopMax)
	c1 := rangeInt(g.r, 2, 9)
	c2 := rangeInt(g.r, 11, 97)
	tailCall := ""
	if next := hIdx + 1 + g.r.Intn(7); next < len(g.helperNames) && g.r.Float() < 0.6 {
		tailCall = fmt.Sprintf("  t += %s(t %% 53);\n", g.helperNames[next])
	}

	switch g.r.Intn(5) {
	case 0: // integer arithmetic loop (monomorphic int sites)
		fmt.Fprintf(b, "fun %s(a) {\n  t = 0;\n  for (i = 0; i < %d; i += 1) { t += (a + i * %d) %% %d; }\n%s  return t;\n}\n",
			name, loop, c1, c2, tailCall)
	case 1: // string building
		fmt.Fprintf(b, "fun %s(a) {\n  s = \"\";\n  for (i = 0; i < %d; i += 1) { s = s . chr(65 + (a + i) %% 26); }\n  t = strlen(s) * %d;\n%s  return t;\n}\n",
			name, loop, c1, tailCall)
	case 2: // object workout (monomorphic method + property traffic)
		cls := g.classNames[g.r.Intn(len(g.classNames))]
		fmt.Fprintf(b, "fun %s(a) {\n  o = new %s(a);\n  t = 0;\n  for (i = 0; i < %d; i += 1) { t += o->bump(i); }\n  if (a %% 19 == 0) { t += o->coldSum(); }\n%s  return t;\n}\n",
			name, cls, loop, tailCall)
	case 3: // array workout
		fmt.Fprintf(b, "fun %s(a) {\n  arr = [];\n  for (i = 0; i < %d; i += 1) { push(arr, (a * %d + i) %% %d); }\n  t = 0;\n  foreach (arr as v) { t += v; }\n%s  return t;\n}\n",
			name, loop, c1, c2, tailCall)
	default: // polymorphic dispatch (skewed 7:1 so sites stay guardable)
		cls := g.classNames[g.r.Intn(len(g.classNames))]
		fmt.Fprintf(b, "fun %s(a) {\n  if (a %% 8 == 0) { o = new %sB(a); } else { o = new %sA(a); }\n  t = 0;\n  for (i = 0; i < %d; i += 1) { t += o->val() + i; }\n%s  return t;\n}\n",
			name, cls, cls, loop, tailCall)
	}
}

// genEndpoint emits an endpoint calling 2-4 helpers.
func (g *siteGen) genEndpoint(b *strings.Builder, name string, totalHelpers int) {
	n := rangeInt(g.r, 2, 4)
	fmt.Fprintf(b, "fun %s(seed) {\n  r = 0;\n", name)
	for i := 0; i < n; i++ {
		h := g.helperNames[g.r.Intn(totalHelpers)]
		fmt.Fprintf(b, "  r += %s((seed + %d) %% %d);\n", h, g.r.Intn(1000), rangeInt(g.r, 50, 500))
	}
	fmt.Fprintf(b, "  return r;\n}\n")
}
