// Package archcheck holds the repository's architecture rules as tests:
// the "one home" rules that keep the paper's categorize → fragment →
// distribute mechanism in one place each (one placer, one table writer,
// one stripe copier, one delete step, one replication path, one upload
// route), and the gofmt check. It has test files only, so
// `go test ./...` runs it with everything else.
//
// Each rule is a row of rules. It parses and type-checks the package it
// guards from source and matches the objects it names (a function, a
// method, a field, a type) through go/types, not their spelling: a
// method value, a call through an interface, an alias of a table or a
// call split over lines counts like a plain call. A rule whose named
// object or file no longer exists fails and names it instead of matching
// nothing.
package archcheck

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"testing"
)

// A rule is one architecture rule over one package: the package's
// directory under the module root, why the rule exists, and the checks
// that hold it.
type rule struct {
	name, dir, why string
	checks         []check
}

// A check reports each place that breaks its part of a rule. It returns
// an error, and no findings, when a name it was given does not resolve.
type check func(p *pkg) ([]finding, error)

type finding struct {
	pos token.Pos
	msg string
}

var rules = []rule{
	{
		name: "routes",
		dir:  "internal/transport",
		why: "Each distributor operation is defined once, as a row of the route table in " +
			"routes.go; a /v1/ path anywhere else means an operation is being added in a second " +
			"place (provider_*.go speak the provider wire, a different protocol). Uploads have one " +
			"route as well: the upload handler is the only user of core's UploadStream, and " +
			"nothing uses core's buffered Upload.",
		checks: []check{
			noLiteral("/v1/", "routes.go", "provider_*.go"),
			oneUse("core.Distributor.UploadStream", "DistributorServer.upload"),
			usedOnlyIn(nil, "core.Distributor.Upload"),
		},
	},
	{
		name: "tables",
		dir:  "internal/core",
		why: "The distributor's tables have one writer, apply.go: a commit, a replicated record " +
			"and a recovery all change them by applying the same record there. So commitLocked " +
			"is the only user of logAppendLocked, and no other file writes a table, a row or a " +
			"provider count, or copies a whole table where it could be written.",
		checks: []check{
			oneUse("Distributor.logAppendLocked", "Distributor.commitLocked"),
			writtenOnlyIn("apply.go", "Distributor.provCount", "Distributor.clients", "Distributor.chunks", "Distributor.stripes"),
		},
	},
	{
		name: "placement",
		dir:  "internal/core",
		why: "The dispersal policy has one home, placement.go: avoid computes the providers a " +
			"blob may not share and homeLocked is the one single-blob placer. So no other file " +
			"uses avoid or ranks providers itself, and shipShard is the only user of rehomePut, " +
			"the write-failover loop.",
		checks: []check{
			usedOnlyIn([]string{"placement.go"}, "avoid", "Distributor.preferLocked", "Distributor.healthyEligible"),
			oneUse("Distributor.rehomePut", "Distributor.shipShard"),
		},
	},
	{
		name: "snapshot",
		dir:  "internal/core",
		why: "A stripe has one model outside the tables, stripeRows, and stripeRowsLocked in " +
			"reencode.go is the one function that copies a live stripe into it. Building a " +
			"[]mirrorRef is the sign of a second, private copy of a row, so only reencode.go, " +
			"upload.go (a new stripe's rows) and walcodec.go (decoding) build one.",
		checks: []check{
			builtOnlyIn("mirrorRef", "reencode.go", "upload.go", "walcodec.go"),
		},
	},
	{
		name: "delete",
		dir:  "internal/core",
		why: "Every blob the distributor discards leaves through one delete step, deleteBlobs " +
			"in remove.go: it groups a provider's keys into batched calls and takes one health " +
			"sample per call. So nothing uses a provider's Delete, bulkDelete is the only " +
			"user of provider.DeleteMany, and nothing reaches a provider's own DeleteMany " +
			"other than through it.",
		checks: []check{
			noMethod("provider.Store", "Delete"),
			oneUse("provider.DeleteMany", "Distributor.bulkDelete"),
			onlyThrough("provider.DeleteMany"),
		},
	},
	{
		name: "replication",
		dir:  "internal/core",
		why: "Replication has one log, the primary's WAL, and one pull function, Follow: a " +
			"follower reads the primary's records with wal.Log.Since and applies each with " +
			"applyReplicated. So Follow is its only user, nothing declares a commit hook (a " +
			"second, pushed copy of the records), and Cluster, the in-memory log this replaced, " +
			"stays gone.",
		checks: []check{
			oneUse("Distributor.applyReplicated", "Distributor.Follow"),
			notDeclared("commitHook"),
			notDeclared("Cluster"),
		},
	},
}

// TestRules runs every rule over its package as it is.
func TestRules(t *testing.T) {
	t.Parallel()
	for _, r := range rules {
		t.Run(r.name, func(t *testing.T) {
			p := load(t, r.dir)
			fs, err := r.run(p)
			if err != nil {
				t.Fatal(err)
			}
			for _, f := range fs {
				t.Errorf("%s: %s", fset.Position(f.pos), f.msg)
			}
			if len(fs) > 0 {
				t.Logf("rule %s: %s", r.name, r.why)
			}
		})
	}
}

// TestMissingNameFails holds the rules to what they name: a check over a
// function, a field or a file that does not exist is an error naming it,
// not a vacuous pass.
func TestMissingNameFails(t *testing.T) {
	t.Parallel()
	core := load(t, "internal/core")
	for _, c := range []struct {
		check check
		name  string
	}{
		{oneUse("Distributor.logAppend", "Distributor.commitLocked"), "Distributor.logAppend"},
		{oneUse("Distributor.logAppendLocked", "Distributor.commit"), "Distributor.commit"},
		{writtenOnlyIn("apply.go", "Distributor.provCounts"), "Distributor.provCounts"},
		{writtenOnlyIn("applies.go", "Distributor.provCount"), "applies.go"},
		{usedOnlyIn([]string{"placement.go"}, "avoids"), "avoids"},
		{builtOnlyIn("mirrorRefs", "reencode.go"), "mirrorRefs"},
		{noMethod("provider.Store", "Remove"), "Remove"},
		{noMethod("provider.Stores", "Delete"), "provider.Stores"},
		{onlyThrough("provider.DeleteMania"), "provider.DeleteMania"},
	} {
		fs, err := c.check(core)
		if err == nil || !strings.Contains(err.Error(), c.name) {
			t.Errorf("check naming %s: findings %d, error %v; want an error naming it", c.name, len(fs), err)
		}
	}
}

// run applies each of the rule's checks, findings in source order.
func (r rule) run(p *pkg) ([]finding, error) {
	var all []finding
	for _, c := range r.checks {
		fs, err := c(p)
		if err != nil {
			return nil, fmt.Errorf("rule %s: %w", r.name, err)
		}
		all = append(all, fs...)
	}
	sort.Slice(all, func(i, j int) bool { return all[i].pos < all[j].pos })
	return all, nil
}

// oneUse holds target to a single use, inside the function holder.
// Every reference counts: a call, a method value, a method expression,
// a call through an interface (see reaches).
func oneUse(target, holder string) check {
	return func(p *pkg) ([]finding, error) {
		obj, err := p.lookup(target)
		if err != nil {
			return nil, err
		}
		hold, err := p.lookup(holder)
		if err != nil {
			return nil, err
		}
		var fs []finding
		n := 0
		for id, o := range p.info.Uses {
			switch {
			case !reaches(o, obj):
			case p.funcOf(id.Pos()) == hold:
				n++
			default:
				fs = append(fs, finding{id.Pos(), fmt.Sprintf("%s is used outside %s, its one user", target, holder)})
			}
		}
		if n != 1 {
			fs = append(fs, finding{hold.Pos(), fmt.Sprintf("%s uses %s %d times, want 1", holder, target, n)})
		}
		return fs, nil
	}
}

// usedOnlyIn forbids any use of the named objects outside the files
// matching the patterns in files (a call through an interface included,
// see reaches); nil files forbids every use.
func usedOnlyIn(files []string, names ...string) check {
	return func(p *pkg) ([]finding, error) {
		in, err := p.filesMatching(files...)
		if err != nil {
			return nil, err
		}
		objs := map[types.Object]string{}
		for _, name := range names {
			obj, err := p.lookup(name)
			if err != nil {
				return nil, err
			}
			objs[obj] = name
		}
		var fs []finding
		for id, o := range p.info.Uses {
			if in(id.Pos()) {
				continue
			}
			for obj, name := range objs {
				if reaches(o, obj) {
					msg := name + " is used"
					if files != nil {
						msg += " outside " + strings.Join(files, ", ")
					}
					fs = append(fs, finding{id.Pos(), msg})
				}
			}
		}
		return fs, nil
	}
}

// writtenOnlyIn holds the tables named by fields to one writing file.
// Elsewhere nothing assigns, increments, deletes from or copies into an
// expression rooted in a table (any chain of indexes, slices, fields and
// dereferences that starts at one), and no whole table is copied into a
// variable, an argument, a result, a composite literal or a channel,
// where it could be written later. A pointer to one row may be taken:
// that is how rows are read.
func writtenOnlyIn(file string, fields ...string) check {
	return func(p *pkg) ([]finding, error) {
		in, err := p.filesMatching(file)
		if err != nil {
			return nil, err
		}
		table := map[types.Object]bool{}
		for _, name := range fields {
			obj, err := p.lookup(name)
			if err != nil {
				return nil, err
			}
			if v, ok := obj.(*types.Var); !ok || !v.IsField() {
				return nil, fmt.Errorf("%s: %s is not a field", p.types.Path(), name)
			}
			table[obj] = true
		}
		var rooted func(e ast.Expr) bool
		rooted = func(e ast.Expr) bool {
			switch e := e.(type) {
			case *ast.ParenExpr:
				return rooted(e.X)
			case *ast.IndexExpr:
				return rooted(e.X)
			case *ast.SliceExpr:
				return rooted(e.X)
			case *ast.StarExpr:
				return rooted(e.X)
			case *ast.SelectorExpr:
				return table[p.info.Uses[e.Sel]] || rooted(e.X)
			}
			return false
		}
		whole := func(e ast.Expr) bool {
			e = ast.Unparen(e)
			if s, ok := e.(*ast.SliceExpr); ok {
				e = ast.Unparen(s.X)
			}
			s, ok := e.(*ast.SelectorExpr)
			return ok && table[p.info.Uses[s.Sel]]
		}
		var fs []finding
		write := func(e ast.Expr) {
			if rooted(e) {
				fs = append(fs, finding{e.Pos(), "a table is written outside " + file})
			}
		}
		alias := func(es ...ast.Expr) {
			for _, e := range es {
				if whole(e) {
					fs = append(fs, finding{e.Pos(), "a whole table is copied outside " + file})
				}
			}
		}
		for _, f := range p.files {
			if in(f.Pos()) {
				continue
			}
			ast.Inspect(f, func(n ast.Node) bool {
				switch n := n.(type) {
				case *ast.AssignStmt:
					if n.Tok != token.DEFINE {
						for _, e := range n.Lhs {
							write(e)
						}
					}
					alias(n.Rhs...)
				case *ast.IncDecStmt:
					write(n.X)
				case *ast.RangeStmt:
					if n.Tok == token.ASSIGN {
						write(n.Key)
						write(n.Value)
					}
				case *ast.ValueSpec:
					alias(n.Values...)
				case *ast.ReturnStmt:
					alias(n.Results...)
				case *ast.SendStmt:
					alias(n.Value)
				case *ast.UnaryExpr:
					if n.Op == token.AND {
						alias(n.X)
					}
				case *ast.CompositeLit:
					for _, e := range n.Elts {
						if kv, ok := e.(*ast.KeyValueExpr); ok {
							e = kv.Value
						}
						alias(e)
					}
				case *ast.CallExpr:
					args := n.Args
					switch builtinOf(p, n) {
					case "len", "cap":
						args = nil
					case "delete", "clear", "copy":
						write(args[0])
						args = nil
					case "append":
						if n.Ellipsis.IsValid() {
							args = args[:1] // the spread copies the elements only
						}
					}
					alias(args...)
				}
				return true
			})
		}
		return fs, nil
	}
}

// builtOnlyIn holds the making of a []elem to the named files: outside
// them no composite literal, make, append, conversion, or call of a
// function from another package (slices.Clone and its kin) yields one.
func builtOnlyIn(elem string, files ...string) check {
	return func(p *pkg) ([]finding, error) {
		in, err := p.filesMatching(files...)
		if err != nil {
			return nil, err
		}
		obj, err := p.lookup(elem)
		if err != nil {
			return nil, err
		}
		if _, ok := obj.(*types.TypeName); !ok {
			return nil, fmt.Errorf("%s: %s is not a type", p.types.Path(), elem)
		}
		slice := types.NewSlice(obj.Type())
		built := func(e ast.Expr) bool {
			t := p.info.TypeOf(e)
			return t != nil && types.Identical(t.Underlying(), slice)
		}
		var fs []finding
		report := func(n ast.Node) {
			fs = append(fs, finding{n.Pos(), fmt.Sprintf("a []%s is built outside %s", elem, strings.Join(files, ", "))})
		}
		for _, f := range p.files {
			if in(f.Pos()) {
				continue
			}
			ast.Inspect(f, func(n ast.Node) bool {
				switch n := n.(type) {
				case *ast.CompositeLit:
					if built(n) {
						report(n)
					}
				case *ast.CallExpr:
					if !built(n) {
						break
					}
					fun := ast.Unparen(n.Fun)
					if p.info.Types[fun].IsType() {
						report(n) // a conversion
						break
					}
					if ix, ok := fun.(*ast.IndexExpr); ok {
						fun = ix.X // an explicit instantiation
					}
					var callee types.Object
					switch fun := fun.(type) {
					case *ast.Ident:
						callee = p.info.Uses[fun]
					case *ast.SelectorExpr:
						callee = p.info.Uses[fun.Sel]
					}
					if callee == nil || callee.Pkg() != p.types {
						report(n) // a builtin, or a generic copier from elsewhere
					}
				}
				return true
			})
		}
		return fs, nil
	}
}

// noMethod forbids any use of method on a type that implements the
// interface iface, on iface itself, on any other interface (a type
// assertion to an anonymous one reaches the same method), or on any type
// where it has the signature of iface's: a call, a method value or a
// method expression.
func noMethod(iface, method string) check {
	return func(p *pkg) ([]finding, error) {
		obj, err := p.lookup(iface)
		if err != nil {
			return nil, err
		}
		it, ok := obj.Type().Underlying().(*types.Interface)
		if !ok {
			return nil, fmt.Errorf("%s: %s is not an interface", p.types.Path(), iface)
		}
		m, _, _ := types.LookupFieldOrMethod(obj.Type(), false, obj.Pkg(), method)
		if m == nil {
			return nil, fmt.Errorf("%s: %s has no method %s", p.types.Path(), iface, method)
		}
		var fs []finding
		for id, o := range p.info.Uses {
			fn, ok := o.(*types.Func)
			if !ok || fn.Name() != method {
				continue
			}
			recv := fn.Type().(*types.Signature).Recv()
			if recv == nil {
				continue
			}
			if types.IsInterface(recv.Type()) || types.Identical(fn.Type(), m.Type()) ||
				types.Implements(recv.Type(), it) || types.Implements(types.NewPointer(recv.Type()), it) {
				fs = append(fs, finding{id.Pos(), fmt.Sprintf("%s's %s is used", iface, method)})
			}
		}
		return fs, nil
	}
}

// onlyThrough holds the methods named like the package function fn to
// fn: it is the one way in to them (provider.DeleteMany hands a batch to
// a provider's own DeleteMany), so no method of that name is used, on
// any receiver, concrete or interface.
func onlyThrough(fn string) check {
	return func(p *pkg) ([]finding, error) {
		obj, err := p.lookup(fn)
		if err != nil {
			return nil, err
		}
		if f, ok := obj.(*types.Func); !ok || f.Type().(*types.Signature).Recv() != nil {
			return nil, fmt.Errorf("%s: %s is not a function", p.types.Path(), fn)
		}
		var fs []finding
		for id, o := range p.info.Uses {
			if f, ok := o.(*types.Func); ok && f.Name() == obj.Name() && f.Type().(*types.Signature).Recv() != nil {
				fs = append(fs, finding{id.Pos(), fmt.Sprintf("a %s method is used other than through %s", obj.Name(), fn)})
			}
		}
		return fs, nil
	}
}

// notDeclared forbids declaring anything called name, in any scope.
func notDeclared(name string) check {
	return func(p *pkg) ([]finding, error) {
		var fs []finding
		for id, o := range p.info.Defs {
			if o != nil && id.Name == name {
				fs = append(fs, finding{id.Pos(), name + " is declared"})
			}
		}
		return fs, nil
	}
}

// noLiteral forbids a string literal holding sub outside the files
// matching the patterns in files.
func noLiteral(sub string, files ...string) check {
	return func(p *pkg) ([]finding, error) {
		in, err := p.filesMatching(files...)
		if err != nil {
			return nil, err
		}
		var fs []finding
		for _, f := range p.files {
			if in(f.Pos()) {
				continue
			}
			ast.Inspect(f, func(n ast.Node) bool {
				if lit, ok := n.(*ast.BasicLit); ok && lit.Kind == token.STRING {
					if s, err := strconv.Unquote(lit.Value); err == nil && strings.Contains(s, sub) {
						fs = append(fs, finding{lit.Pos(), fmt.Sprintf("%s literal outside %s", lit.Value, strings.Join(files, ", "))})
					}
				}
				return true
			})
		}
		return fs, nil
	}
}

// reaches reports whether o, the object of a use, reaches target: it is
// target, or target is a method and o is the method of the same name on
// an interface that target's receiver implements, so that a call through
// that interface (a named one, or a type assertion to an anonymous one)
// can land on target.
func reaches(o, target types.Object) bool {
	if o == target {
		return true
	}
	fn, ok := o.(*types.Func)
	tfn, tok := target.(*types.Func)
	if !ok || !tok || fn.Name() != tfn.Name() {
		return false
	}
	recv, trecv := fn.Type().(*types.Signature).Recv(), tfn.Type().(*types.Signature).Recv()
	if recv == nil || trecv == nil {
		return false
	}
	it, ok := recv.Type().Underlying().(*types.Interface)
	return ok && types.Implements(trecv.Type(), it)
}

// builtinOf names the builtin call calls, "" for any other call.
func builtinOf(p *pkg, call *ast.CallExpr) string {
	if id, ok := ast.Unparen(call.Fun).(*ast.Ident); ok {
		if b, ok := p.info.Uses[id].(*types.Builtin); ok {
			return b.Name()
		}
	}
	return ""
}

// lookup resolves a rule's name for an object: "f" or "T.m" in the
// package itself, "imp.f" or "imp.T.m" in a package it imports under
// the name imp. A method or field is found through T's method set and
// fields, so "Distributor.rehomePut" names the method of *Distributor.
func (p *pkg) lookup(name string) (types.Object, error) {
	parts := strings.Split(name, ".")
	in := p.types
	for _, imp := range p.types.Imports() {
		if len(parts) > 1 && imp.Name() == parts[0] {
			in, parts = imp, parts[1:]
			break
		}
	}
	obj := in.Scope().Lookup(parts[0])
	if obj != nil && len(parts) == 2 {
		obj, _, _ = types.LookupFieldOrMethod(obj.Type(), true, in, parts[1])
	}
	if obj == nil || len(parts) > 2 {
		return nil, fmt.Errorf("%s: no %s", p.types.Path(), name)
	}
	return obj, nil
}

// funcOf is the top-level function or method whose declaration holds
// pos, nil outside any.
func (p *pkg) funcOf(pos token.Pos) types.Object {
	for _, f := range p.files {
		if pos < f.Pos() || pos > f.End() {
			continue
		}
		for _, d := range f.Decls {
			if fd, ok := d.(*ast.FuncDecl); ok && fd.Pos() <= pos && pos < fd.End() {
				return p.info.Defs[fd.Name]
			}
		}
	}
	return nil
}

// filesMatching reports whether a position lies in a file whose base
// name matches one of patterns. Each pattern must match a file of the
// package, so a renamed file fails the rule instead of exempting nothing.
func (p *pkg) filesMatching(patterns ...string) (func(token.Pos) bool, error) {
	names := map[string]bool{}
	for _, f := range p.files {
		names[filepath.Base(fset.Position(f.Pos()).Filename)] = true
	}
	for _, pat := range patterns {
		found := false
		for name := range names {
			if ok, err := filepath.Match(pat, name); err != nil {
				return nil, err
			} else if ok {
				found = true
			}
		}
		if !found {
			return nil, fmt.Errorf("%s: no file matches %s", p.types.Path(), pat)
		}
	}
	return func(pos token.Pos) bool {
		name := filepath.Base(fset.Position(pos).Filename)
		for _, pat := range patterns {
			if ok, _ := filepath.Match(pat, name); ok {
				return true
			}
		}
		return false
	}, nil
}
