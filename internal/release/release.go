// Package release models continuous deployment for the synthetic
// MiniHack site: a deterministic, seed-driven source mutator evolves
// the site across revisions (edit function bodies, add/remove/rename
// functions, reorder class members), and each revision is recompiled
// through hackc into a fresh linked Program with its own build
// checksum.
//
// This is the layer the paper takes as ambient context — Facebook
// pushes new web code several times a day, and every push invalidates
// Jump-Start profile packages ("the profile data collected for one
// source code revision cannot be used for a different revision
// without remapping"). The revision chain produced here is what the
// cross-release remapper (prof.Remap), the revision-keyed package
// store (internal/jumpstart) and the fleet push cadence
// (cluster.Config.PushEvery) are exercised against.
package release

import (
	"fmt"

	"jumpstart/internal/bytecode"
	"jumpstart/internal/hackc"
	"jumpstart/internal/lang"
	"jumpstart/internal/netsim"
	"jumpstart/internal/workload"
)

// ChurnConfig controls the source mutator.
type ChurnConfig struct {
	// Seed drives every mutation draw; revision i forks its own stream
	// via workload.Fork(Seed, i), so revisions are independently
	// reproducible.
	Seed uint64
	// Rate is the fraction of helper functions whose body is edited
	// per revision (the paper's code-churn knob). Structural mutations
	// — add/remove/rename/reorder — fire at a quarter of that volume.
	Rate float64
}

// DefaultChurnConfig models a routine mid-day push: a few percent of
// the site's functions touched.
func DefaultChurnConfig() ChurnConfig { return ChurnConfig{Seed: 1, Rate: 0.05} }

// Revision is one deployed build of the site.
type Revision struct {
	// Index is the revision number; revision 0 is the unmutated site.
	Index int
	// Sources and UnitNames are the revision's compilable source tree.
	Sources   map[string]string
	UnitNames []string
	// Prog is the linked program (fingerprints computed).
	Prog *bytecode.Program
	// Checksum is the build checksum — an FNV-1a hash over the unit
	// names and sources in unit order. Packages are stamped with it,
	// and consumers on a different build reject them.
	Checksum uint64
	// Stats describes the mutations applied relative to the previous
	// revision (zero for revision 0).
	Stats MutationStats
}

// Chain evolves a site through successive revisions.
type Chain struct {
	cfg  ChurnConfig
	base *workload.Site
	revs []*Revision
}

// NewChain starts a revision chain at the given site (revision 0 is
// the site's own sources, recompiled checksummed but unmutated).
func NewChain(site *workload.Site, cfg ChurnConfig) (*Chain, error) {
	if cfg.Rate <= 0 {
		cfg.Rate = DefaultChurnConfig().Rate
	}
	rev0 := &Revision{
		Index:     0,
		Sources:   site.Sources,
		UnitNames: site.UnitNames,
		Prog:      site.Prog,
		Checksum:  SourceChecksum(site.Sources, site.UnitNames),
	}
	return &Chain{cfg: cfg, base: site, revs: []*Revision{rev0}}, nil
}

// Head returns the newest revision.
func (c *Chain) Head() *Revision { return c.revs[len(c.revs)-1] }

// Rev returns revision i (panics if not yet produced).
func (c *Chain) Rev(i int) *Revision { return c.revs[i] }

// Len returns how many revisions exist (including revision 0).
func (c *Chain) Len() int { return len(c.revs) }

// Next mutates the head revision's sources, recompiles, and appends
// the new revision. The mutation stream is forked from (Seed, index),
// so a chain re-built from the same site and config yields
// byte-identical sources at every index.
func (c *Chain) Next() (*Revision, error) {
	prev := c.Head()
	idx := prev.Index + 1
	files := make([]*lang.File, len(prev.UnitNames))
	for i, name := range prev.UnitNames {
		f, err := lang.Parse(name, prev.Sources[name])
		if err != nil {
			return nil, fmt.Errorf("release: rev %d reparse %s: %w", idx, name, err)
		}
		files[i] = f
	}
	// Offset by splitmix64's increment, as workload seeds its own
	// streams; TestChainGoldenChecksums pins the resulting draws.
	r := netsim.NewStream(workload.Fork(c.cfg.Seed, uint64(idx)) + 0x9e3779b97f4a7c15)
	m := newMutator(files, r, idx)
	m.apply(c.cfg.Rate)

	sources := make(map[string]string, len(files))
	names := append([]string(nil), prev.UnitNames...)
	for i, f := range files {
		sources[names[i]] = lang.PrintFile(f)
	}
	prog, err := hackc.CompileSources(sources, names, hackc.Options{Optimize: true})
	if err != nil {
		return nil, fmt.Errorf("release: rev %d failed to compile: %w", idx, err)
	}
	rev := &Revision{
		Index:     idx,
		Sources:   sources,
		UnitNames: names,
		Prog:      prog,
		Checksum:  SourceChecksum(sources, names),
		Stats:     m.stats,
	}
	c.revs = append(c.revs, rev)
	return rev, nil
}

// Site builds a workload.Site serving this revision: same config and
// endpoint set as the base site, but bound to the revision's program.
// Endpoints are never renamed or removed by the mutator, so every
// entry point re-resolves.
func (r *Revision) Site(base *workload.Site) (*workload.Site, error) {
	site := &workload.Site{
		Config:    base.Config,
		Prog:      r.Prog,
		Sources:   r.Sources,
		UnitNames: r.UnitNames,
	}
	for _, ep := range base.Endpoints {
		fn, ok := r.Prog.FuncByName(ep.Name)
		if !ok {
			return nil, fmt.Errorf("release: endpoint %s lost at rev %d", ep.Name, r.Index)
		}
		site.Endpoints = append(site.Endpoints, workload.Endpoint{
			Name: ep.Name, Fn: fn, Partition: ep.Partition,
		})
	}
	return site, nil
}

// SourceChecksum is the build checksum: FNV-1a over unit names and
// their sources, in unit order. It identifies a source tree exactly —
// any mutation, however small, yields a new revision identity.
func SourceChecksum(sources map[string]string, unitNames []string) uint64 {
	h := uint64(14695981039346656037)
	mixStr := func(s string) {
		for i := 0; i < len(s); i++ {
			h ^= uint64(s[i])
			h *= 1099511628211
		}
		h ^= uint64(len(s))
		h *= 1099511628211
	}
	for _, name := range unitNames {
		mixStr(name)
		mixStr(sources[name])
	}
	return h
}
