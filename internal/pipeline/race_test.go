//go:build race

package pipeline

func init() { raceEnabled = true }
