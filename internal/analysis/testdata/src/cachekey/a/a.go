// Package a is the cachekey fixture: OptionsKey reads K and P, exempts
// Debug, reads the Tune pointer and its MinV — but misses Tune.MaxL, and
// keeps an exemption for Factory, a field Options no longer has.
package a

import "fmt"

type Sub struct {
	MinV int
	MaxL int
}

type Options struct {
	K     int
	P     float64
	Debug bool
	Tune  *Sub
}

func OptionsKey(opt Options) string { // want `does not incorporate Options.Tune.MaxL` `stale //repro:cachekey-exempt Factory \(line 22\): Options has no field Factory`
	//repro:cachekey-exempt Debug — log verbosity only, no result influence (DESIGN.md §9)
	//repro:cachekey-exempt Factory — no wire representation (DESIGN.md §9)
	key := fmt.Sprintf("k%d;p%g", opt.K, opt.P)
	if t := opt.Tune; t != nil {
		key += fmt.Sprintf(";t%d", t.MinV)
	}
	return key
}
