package jumpstart

import "testing"

// TestFallbackStrings: FallbackNone prints as "" (so a jump-started
// server's reason prints exactly as before the type existed) and every
// other reason has its own non-empty text, so a tally keyed by text
// never merges two causes.
func TestFallbackStrings(t *testing.T) {
	if s := FallbackNone.String(); s != "" {
		t.Fatalf("FallbackNone = %q, want empty", s)
	}
	seen := map[string]Fallback{}
	for f := FallbackNone + 1; f < NumFallbacks; f++ {
		s := f.String()
		if s == "" {
			t.Fatalf("Fallback(%d) has no text", f)
		}
		if g, dup := seen[s]; dup {
			t.Fatalf("Fallback(%d) and Fallback(%d) both print %q", g, f, s)
		}
		seen[s] = f
	}
}
