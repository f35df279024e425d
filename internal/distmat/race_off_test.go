//go:build !race

package distmat

const raceEnabled = false
