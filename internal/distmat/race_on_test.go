//go:build race

package distmat

// raceEnabled: under the race detector sync.Pool drops a quarter of its Puts
// on purpose, so the zero-allocation assertions do not hold there.
const raceEnabled = true
