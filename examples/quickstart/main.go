// Quickstart: compile a MiniHack program, run it through the VM, and
// walk the same code through all three JIT tiers — interpreter,
// profiling translation, and profile-guided optimized translation —
// printing the cycle cost of each (the mechanism behind the paper's
// entire warmup story).
package main

import (
	"fmt"
	"log"
	"os"

	"jumpstart/internal/core"
	"jumpstart/internal/hackc"
	"jumpstart/internal/interp"
	"jumpstart/internal/jit"
	"jumpstart/internal/object"
	"jumpstart/internal/prof"
	"jumpstart/internal/value"
)

const src = `
class Account {
  prop id = 0;
  prop flags = 0;
  prop notes = "";
  prop balance = 0;
  fun __construct(id) { this->id = id; }
  fun deposit(x) { this->balance += x; return this->balance; }
}

fun checksum(n) {
  t = 0;
  for (i = 1; i <= n; i += 1) { t = (t * 31 + i) % 1000003; }
  return t;
}

fun main(n) {
  acct = new Account(42);
  total = 0;
  for (i = 0; i < n; i += 1) {
    total += acct->deposit(i) + checksum(i % 50);
  }
  print("account ", acct->id, " balance ", acct->balance);
  return total;
}`

func main() {
	// 1. The one-call API: compile and run.
	vm, err := core.NewVM(map[string]string{"demo.mh": src}, []string{"demo.mh"}, os.Stdout)
	if err != nil {
		log.Fatal(err)
	}
	result, err := vm.Call("main", value.Int(200))
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("main(200) = %s\n\n", result.String())

	// 2. The same program through the JIT tiers, with cycle accounting.
	prog, err := hackc.CompileSources(map[string]string{"demo.mh": src}, []string{"demo.mh"},
		hackc.Options{Optimize: true})
	if err != nil {
		log.Fatal(err)
	}
	reg, err := object.NewRegistry(prog, nil)
	if err != nil {
		log.Fatal(err)
	}
	ip := interp.New(prog, reg, interp.Config{})
	j := jit.New(prog, jit.DefaultOptions(), jit.NewCodeCache(jit.DefaultCacheConfig()))
	rt := jit.NewRuntime(j, nil)

	cost := func(label string) {
		ip.SetTracer(rt)
		rt.BeginRequest(false)
		if _, err := ip.CallByName("main", value.Int(200)); err != nil {
			log.Fatal(err)
		}
		ip.SetTracer(nil)
		fmt.Printf("%-28s %10d cycles\n", label, rt.TakeCycles())
	}

	cost("tier 0 (interpreter)")

	// Tier 1: profiling translations, instrumented.
	col := prof.NewCollector(prog)
	for _, fn := range prog.Funcs {
		if _, err := j.CompileProfiling(fn); err != nil {
			log.Fatal(err)
		}
	}
	ip.SetTracer(col)
	col.BeginRequest()
	if _, err := ip.CallByName("main", value.Int(200)); err != nil {
		log.Fatal(err)
	}
	cost("tier 1 (profiling)")

	// Tier 2: optimized from the collected profile.
	p := col.Snapshot(prof.Meta{Revision: 1})
	trans := map[string]*jit.Translation{}
	for _, name := range p.HotFunctions() {
		fn, _ := prog.FuncByName(name)
		tr, err := j.CompileOptimized(fn, p)
		if err != nil {
			log.Fatal(err)
		}
		trans[name] = tr
	}
	if err := j.RelocateOptimized(trans, j.FunctionOrder(p, p.HotFunctions())); err != nil {
		log.Fatal(err)
	}
	cost("tier 2 (optimized)")

	// Show what the optimizer did to the hot method.
	fn, _ := prog.FuncByName("Account::deposit")
	tr := j.Active(fn.ID)
	fmt.Printf("\nAccount::deposit optimized: %d vasm blocks, %d specialized sites, hot %dB / cold %dB\n",
		len(tr.CFG.Blocks), len(tr.SpecTypes), tr.HotSize, tr.ColdSize)
}
