//go:build race

package main

// The race detector slows the serving tier enough that the generator's
// backlog grows even in a one-second smoke run.
const raceEnabled = true
