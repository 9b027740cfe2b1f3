package lang_test

import (
	"os"
	"testing"

	"jumpstart/internal/lang"
	"jumpstart/internal/workload"
)

// FuzzLangRoundTrip checks that printing is a fixed point of parsing:
// whenever Parse accepts a source, PrintFile's output parses again and
// printing the second tree reproduces it byte for byte. The seeds are
// the sample program and every unit of the default generated site. The
// test is in an external package because workload imports lang (via
// hackc).
func FuzzLangRoundTrip(f *testing.F) {
	fib, err := os.ReadFile("../../testdata/fib.mh")
	if err != nil {
		f.Fatal(err)
	}
	f.Add(string(fib))
	site, err := workload.GenerateSite(workload.DefaultSiteConfig())
	if err != nil {
		f.Fatal(err)
	}
	for _, name := range site.UnitNames {
		f.Add(site.Sources[name])
	}
	f.Fuzz(func(t *testing.T, src string) {
		file, err := lang.Parse("fuzz.mh", src)
		if err != nil {
			return
		}
		printed := lang.PrintFile(file)
		again, err := lang.Parse("printed.mh", printed)
		if err != nil {
			t.Fatalf("printed source does not parse: %v\n%s", err, printed)
		}
		if reprinted := lang.PrintFile(again); reprinted != printed {
			t.Fatalf("printing is not a fixed point:\n%s\nprints again as:\n%s", printed, reprinted)
		}
	})
}
