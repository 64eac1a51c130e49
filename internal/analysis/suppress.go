package analysis

import (
	"fmt"
	"go/token"
	"sort"
	"strings"
)

// parseDirective recognizes `//repro:<directive> <rest>` comments and
// returns the directive token and the remainder text.
func parseDirective(comment string) (directive, rest string, ok bool) {
	const prefix = "//repro:"
	if !strings.HasPrefix(comment, prefix) {
		return "", "", false
	}
	body := comment[len(prefix):]
	if i := strings.IndexAny(body, " \t"); i >= 0 {
		return body[:i], strings.TrimSpace(body[i:]), true
	}
	return body, "", true
}

// markerDirectives are declarations, not suppressions: they extend an
// analyzer's knowledge (an atomic-discipline field, a deterministic-core
// package) and therefore need no DESIGN.md citation.
var markerDirectives = map[string]bool{
	"atomic":             true,
	"deterministic-core": true,
}

// fieldDirectives are read by their own analyzer, which scopes each one
// to the field it names (cachekey's exemptions). The runner validates
// their citation like any suppression's but never indexes them by line:
// cachekey reports every diagnostic at the OptionsKey name, so an
// exemption written just above it would otherwise silence them all.
var fieldDirectives = map[string]bool{
	"cachekey-exempt": true,
}

// citesDesign reports whether a suppression reason carries the mandatory
// DESIGN.md section citation.
func citesDesign(reason string) bool {
	return strings.Contains(reason, "DESIGN.md §")
}

type suppression struct {
	directive string
	cited     bool
}

// suppressionIndex maps file → line → suppressions declared there. A
// suppression covers its own line (trailing comment) and the next line
// (standalone comment above the flagged statement).
type suppressionIndex struct {
	byFile map[string]map[int][]suppression
}

func (s *suppressionIndex) suppressed(directive string, pos token.Position) bool {
	if directive == "" {
		return false
	}
	lines := s.byFile[pos.Filename]
	for _, ln := range [2]int{pos.Line, pos.Line - 1} {
		for _, sup := range lines[ln] {
			if sup.directive == directive && sup.cited {
				return true
			}
		}
	}
	return false
}

// buildSuppressionIndex scans every comment of every package for repro:
// directives, returning the index plus the validation diagnostics —
// unknown directives and suppressions missing their DESIGN.md citation —
// reported under the analyzer name "reprolint".
func buildSuppressionIndex(fset *token.FileSet, pkgs []*Package, analyzers []*Analyzer) (*suppressionIndex, []Diagnostic) {
	known := map[string]bool{}
	var names []string
	for _, a := range analyzers {
		if a.Directive != "" {
			known[a.Directive] = true
			names = append(names, a.Directive)
		}
	}
	for d := range markerDirectives {
		known[d] = true
		names = append(names, d)
	}
	sort.Strings(names)

	idx := &suppressionIndex{byFile: map[string]map[int][]suppression{}}
	var diags []Diagnostic
	for _, pkg := range pkgs {
		for _, f := range pkg.Files {
			for _, cg := range f.Comments {
				for _, c := range cg.List {
					d, rest, ok := parseDirective(c.Text)
					if !ok {
						continue
					}
					pos := fset.Position(c.Pos())
					if !known[d] {
						diags = append(diags, Diagnostic{
							Analyzer: "reprolint",
							Pos:      pos,
							Message:  fmt.Sprintf("unknown //repro: directive %q (known: %s)", d, strings.Join(names, ", ")),
						})
						continue
					}
					if markerDirectives[d] {
						continue
					}
					cited := citesDesign(rest)
					if !cited {
						diags = append(diags, Diagnostic{
							Analyzer: "reprolint",
							Pos:      pos,
							Message:  fmt.Sprintf("suppression //repro:%s must cite the DESIGN.md section that audits this site (e.g. “DESIGN.md §13”)", d),
						})
					}
					if fieldDirectives[d] {
						continue
					}
					lines := idx.byFile[pos.Filename]
					if lines == nil {
						lines = map[int][]suppression{}
						idx.byFile[pos.Filename] = lines
					}
					lines[pos.Line] = append(lines[pos.Line], suppression{directive: d, cited: cited})
				}
			}
		}
	}
	return idx, diags
}
