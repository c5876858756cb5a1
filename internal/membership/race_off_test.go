//go:build !race

package membership

// raceEnabled reports whether the race detector instruments this build;
// allocation budgets skip under it.
const raceEnabled = false
