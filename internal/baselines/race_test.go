//go:build race

package baselines

func init() { raceEnabled = true }
