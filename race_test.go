//go:build race

package cosma

func init() { raceEnabled = true }
