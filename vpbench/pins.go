package main

// Pinned map digests (see digest). The program's byte-identity
// contracts — obsv on or off, any worker count — say these change only
// when the simulated Internet or the measurement semantics change on
// purpose.

// sweepPin is the map digest of every sweep-internet round (b-root,
// internet tier, scenario seed 1). The map does not depend on the
// RoundID: the ID changes the probe order and identifiers, not what
// each block answers.
const sweepPin = "3982ee8d25e86234"

// monitorPins maps each routing state of monitor-internet to the digest
// of every epoch measured under it.
var monitorPins = map[string]string{
	"base":   "851c69d5f5628242",
	"change": "94b62802a8dd6a44",
}

// servePin is the map digest of every serve-medium epoch (b-root,
// medium tier, scenario seed 7, sampled with prediction on). The tenant
// takes no operator action, so the map stays the same.
const servePin = "d797d482c5b45f5d"
