// Package above pins the scope of cachekey exemptions: each exempts the
// field it names and nothing else, even written on the lines directly
// above OptionsKey, where the analyzer reports. So the unkeyed Seed and
// the stale Factory exemption are still reported.
package above

import "fmt"

type Options struct {
	K     int
	Debug bool
	Seed  int64
}

// OptionsKey keys K and exempts Debug, but forgets Seed.
//
//repro:cachekey-exempt Debug — log verbosity only, no result influence (DESIGN.md §9)
//repro:cachekey-exempt Factory — no wire representation (DESIGN.md §9)
func OptionsKey(opt Options) string { // want `does not incorporate Options.Seed` `stale //repro:cachekey-exempt Factory \(line 18\): Options has no field Factory`
	return fmt.Sprintf("k%d", opt.K)
}
