//go:build race

package embed

// raceEnabled reports that this test binary was built with the race
// detector, whose instrumentation allocates and slows the closed loop;
// allocation gates and quantitative saturation assertions skip themselves
// when it is set (the CI zero-alloc gate and bench job run without -race).
const raceEnabled = true
