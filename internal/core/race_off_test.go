//go:build !race

package core

// raceAllocSlack is zero in a normal build: FuzzReadCheckpoint's bound is
// exact. See race_on_test.go.
const raceAllocSlack = 0
