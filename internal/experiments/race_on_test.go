//go:build race

package experiments

// raceEnabled downscales the shared quick-scale lab: the race
// detector's ~10x slowdown on top of the quick-scale suite blows past
// go test's default 10-minute package timeout on single-core CI
// hosts. The shape assertions hold at the reduced scale, except the
// V-A directions (TestAblations' branch rate, TestFig6Directions'
// RPS), which the 3-unit site reverses; full-scale numbers come from
// non-race runs of cmd/experiments.
const raceEnabled = true
