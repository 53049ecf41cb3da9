//go:build race

package infer

// raceEnabled: under the race detector sync.Pool drops a share of its puts
// on purpose, so the steady-state allocation pins do not hold there.
const raceEnabled = true
