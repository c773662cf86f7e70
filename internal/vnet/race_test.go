//go:build race

package vnet

// raceEnabled reports a -race build, where instrumented loads make the
// exhaustive digest sweep about a hundred times slower.
const raceEnabled = true
