//go:build race

package esd

func init() { raceEnabled = true }
