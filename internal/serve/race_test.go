//go:build race

package serve

func init() { raceEnabled = true }
