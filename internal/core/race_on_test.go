//go:build race

package core

// raceAllocSlack is what the race detector adds to ReadCheckpoint's
// allocation: instrumented builds do not fuse readFloats'
// append(v, make([]float64, c)...) into one growth, so the make is a
// separate chunk-sized allocation (8·floatChunk bytes) before the copy.
const raceAllocSlack = 8 * floatChunk
