//go:build race

package splitter

// raceEnabled skips byte-count assertions under the race detector, whose
// sync.Pool drops a quarter of the workspaces put back on purpose.
const raceEnabled = true
