package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// CacheKey enforces the cache-key soundness rule of DESIGN.md §9: equal
// keys ⇔ equal effective configurations. The serving tier's result cache,
// coalescer, and durable store all key results by OptionsKey(opt), so a
// result-relevant option field that OptionsKey fails to incorporate makes
// two different configurations share one cache entry — a silent
// wrong-answer bug that no test catches until the exact collision occurs.
//
// Mechanically: in any package declaring a function named OptionsKey
// whose single parameter is a named struct, every exported field of that
// struct — recursing into fields whose type is itself a (pointer to)
// options struct, the way Multilevel rides inside Options — must be read
// somewhere in the function body, or be exempted field-by-field with
//
//	//repro:cachekey-exempt <Field> <reason citing DESIGN.md §9>
//
// in the same file. Exemptions are how the deliberately key-excluded
// fields (Parallelism moves work, never results; Splitter/Observer have
// no wire representation) stay documented at the enforcement point. An
// exemption that names no field of the struct is reported too: it is
// left over from a deleted field, and would silently exempt any field
// later added under that name.
var CacheKey = &Analyzer{
	Name:      "cachekey",
	Doc:       "requires every option-struct field to be incorporated into OptionsKey or explicitly exempted",
	Directive: "cachekey-exempt",
	Run:       runCacheKey,
}

func runCacheKey(pass *Pass) error {
	for _, f := range pass.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Name.Name != "OptionsKey" || fd.Recv != nil || fd.Body == nil {
				continue
			}
			if fd.Type.Params == nil || len(fd.Type.Params.List) != 1 {
				continue
			}
			obj := pass.Info.Defs[fd.Name]
			fn, ok := obj.(*types.Func)
			if !ok {
				continue
			}
			sig := fn.Type().(*types.Signature)
			if sig.Params().Len() != 1 {
				continue
			}
			named := namedOf(sig.Params().At(0).Type())
			if named == nil {
				continue
			}
			if _, ok := named.Underlying().(*types.Struct); !ok {
				continue
			}
			checkOptionsKey(pass, f, fd, named)
		}
	}
	return nil
}

func checkOptionsKey(pass *Pass, file *ast.File, fd *ast.FuncDecl, root *types.Named) {
	// Every struct field read anywhere in the body counts as incorporated
	// — aliasing (m := opt.Multilevel; m.MinVertices) needs no special
	// handling because the read is attributed to the field object, not to
	// the path that reached it.
	read := map[string]bool{}
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		sel, ok := n.(*ast.SelectorExpr)
		if !ok {
			return true
		}
		if key, ok := selectorFieldKey(pass.Info, sel, false); ok {
			read[key] = true
		}
		return true
	})

	exemptions := cachekeyExemptions(file)
	exempt := map[string]bool{}
	for _, e := range exemptions {
		exempt[e.name] = true
	}
	// The walk visits the whole struct tree, recording every name an
	// exemption may use (dotted paths and bare field names, which exempt a
	// field wherever it nests); check is false below a field that is
	// exempt or unread, whose subfields need no diagnostics of their own.
	names := map[string]bool{}
	var walk func(named *types.Named, prefix string, depth int, check bool)
	walk = func(named *types.Named, prefix string, depth int, check bool) {
		st, ok := named.Underlying().(*types.Struct)
		if !ok || depth > 3 {
			return
		}
		for i := 0; i < st.NumFields(); i++ {
			field := st.Field(i)
			if !field.Exported() {
				continue
			}
			path := prefix + field.Name()
			names[path], names[field.Name()] = true, true
			covered := exempt[path] || exempt[field.Name()]
			isRead := read[fieldKey(named, field.Name())]
			if check && !covered && !isRead {
				pass.Reportf(fd.Name.Pos(), "%s does not incorporate %s.%s: the DESIGN.md §9 rule (equal keys ⇔ equal configs) requires every option field in the key, or a //repro:cachekey-exempt %s exemption",
					fd.Name.Name, root.Obj().Name(), path, path)
			}
			// A field that is read and is itself an options struct must
			// have its own fields incorporated: reading `opt.Multilevel`
			// alone would put only the pointer's nil-ness in the key.
			if sub := namedOf(field.Type()); sub != nil {
				walk(sub, path+".", depth+1, check && !covered && isRead)
			}
		}
	}
	walk(root, "", 0, true)
	for _, e := range exemptions {
		if !names[e.name] {
			pass.Reportf(fd.Name.Pos(), "stale //repro:cachekey-exempt %s (line %d): %s has no field %s",
				e.name, pass.Fset.Position(e.pos).Line, root.Obj().Name(), e.name)
		}
	}
}

// exemption is one //repro:cachekey-exempt directive: the field it names
// and where it stands.
type exemption struct {
	name string
	pos  token.Pos
}

// cachekeyExemptions collects the //repro:cachekey-exempt directives of
// the file holding OptionsKey, in file order; the first token after the
// directive names the exempted field (dotted paths allowed for nested
// fields). Citation validation is the runner's job, shared with every
// suppression.
func cachekeyExemptions(file *ast.File) []exemption {
	var out []exemption
	for _, cg := range file.Comments {
		for _, c := range cg.List {
			d, rest, ok := parseDirective(c.Text)
			if !ok || d != "cachekey-exempt" || rest == "" {
				continue
			}
			if i := strings.IndexAny(rest, " \t"); i >= 0 {
				rest = rest[:i]
			}
			out = append(out, exemption{rest, c.Pos()})
		}
	}
	return out
}
