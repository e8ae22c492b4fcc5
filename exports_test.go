package bgpvr

import (
	"bufio"
	"bytes"
	"fmt"
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"io/fs"
	"os"
	"os/exec"
	"path/filepath"
	"reflect"
	"sort"
	"strings"
	"testing"
)

// exportAllowList keeps exported names under internal/ that nothing but
// their own package's tests refers to. Each entry says why the name
// stays; an entry the check no longer needs fails the test.
var exportAllowList = map[string]string{
	"render.RenderFullMulti": "the serial multivariate reference renderer that the golden scenes and parallel ≡ serial tests pin",
	"volume.VarVelocityZ":    "the fifth VH-1 variable: files carry it and loops up to NumVars reach it",
}

// TestExportsHaveCallers fails on an exported package-level func,
// method, type, var or const under internal/ that is referred to only
// by its own package's tests, or not at all. The module — commands and
// examples included — and the benchmark module are type-checked from
// source. A reference is a use outside the name's own declaration (for
// a type, outside its methods too), from any file but the declaring
// package's tests. An exported method also counts as referenced when
// its type satisfies an interface that has it and that the tree
// declares or imports.
func TestExportsHaveCallers(t *testing.T) {
	prog, err := loadProgram(".")
	if err != nil {
		t.Fatal(err)
	}
	dead := prog.deadExports()
	var msgs []string
	for name, pos := range dead {
		if _, ok := exportAllowList[name]; !ok {
			msgs = append(msgs, fmt.Sprintf("%s: %s has no caller outside its own package's tests", pos, name))
		}
	}
	for name := range exportAllowList {
		if _, ok := dead[name]; !ok {
			msgs = append(msgs, fmt.Sprintf("allow-list entry %s is no longer needed: delete it", name))
		}
	}
	sort.Strings(msgs)
	for _, m := range msgs {
		t.Error(m)
	}
}

// fieldAllowList keeps exported fields under internal/ that no code
// outside the tests writes. Each entry says why the field stays; an
// entry the check no longer needs fails the test.
var fieldAllowList = map[string]string{
	"render.Shading.LightDir":          "the render goldens pin a light off the default direction",
	"render.Shading.Ambient":           "the parallel ≡ serial render test sets the light's terms",
	"render.Shading.Diffuse":           "the parallel ≡ serial render test sets the light's terms",
	"core.RealConfig.BlocksPerRank":    "the paper's static over-decomposition, which a blocks-per-rank sweep will set",
	"core.SequenceConfig.AzimuthDelta": "the orbit sequence test turns the camera between frames",
	"flowsim.Options.Times":            "the sharding equivalence suite compares per-flow finish times",
	"flowsim.Options.Usage":            "the sharding equivalence suite compares per-link usage",
	"vfile.FaultyFile.FailAfter":       "fault injection for the readers' tests in other packages",
}

// TestFieldsHaveWriters fails on an exported field of an exported struct
// under internal/ that no non-test code in the module or the benchmark
// module writes: a setting only a test can change is a setting nobody
// has. A write is a keyed element of a composite literal, a positional
// literal of the struct, an assignment, an inc/dec, an &, or a write
// through the field (x.F.G, x.F[i], a method call on x.F). Fields with
// a json tag are decoded from outside the program, and embedded fields
// promote their type's members, so neither counts.
func TestFieldsHaveWriters(t *testing.T) {
	prog, err := loadProgram(".")
	if err != nil {
		t.Fatal(err)
	}
	unwritten := prog.unwrittenFields()
	var msgs []string
	for name, pos := range unwritten {
		if _, ok := fieldAllowList[name]; !ok {
			msgs = append(msgs, fmt.Sprintf("%s: %s is written only by tests, if at all", pos, name))
		}
	}
	for name := range fieldAllowList {
		if _, ok := unwritten[name]; !ok {
			msgs = append(msgs, fmt.Sprintf("allow-list entry %s is no longer needed: delete it", name))
		}
	}
	sort.Strings(msgs)
	for _, m := range msgs {
		t.Error(m)
	}
}

const modulePath = "bgpvr"

// pkgDir is one directory's files that match the default build context,
// split the way go test splits them.
type pkgDir struct {
	dir    string
	files  []*ast.File // the package proper
	tests  []*ast.File // _test.go files in the package
	xtests []*ast.File // _test.go files in package <name>_test
}

// program is every package under a root, type-checked from source.
type program struct {
	fset   *token.FileSet
	dirs   map[string]*pkgDir        // by import path
	plain  map[string]*types.Package // as importers see it; nil while being checked
	std    types.Importer
	pkgs   []*types.Package              // every check: plain, with tests, external tests
	checks []checked                     // the same checks' files and what they resolve to
	ifaces map[string][]*types.Interface // by method name
	errs   []error
}

// loadProgram parses every package under root and type-checks each one
// as its importers see it, with its in-package tests, and its external
// tests (which import the variant with tests, as go test builds them).
// A parse or type error is returned, so a broken load cannot pass.
func loadProgram(root string) (*program, error) {
	p := &program{
		fset:   token.NewFileSet(),
		dirs:   map[string]*pkgDir{},
		plain:  map[string]*types.Package{},
		ifaces: map[string][]*types.Interface{},
	}
	stdPaths := map[string]bool{}
	err := filepath.WalkDir(root, func(dir string, d fs.DirEntry, err error) error {
		if err != nil || !d.IsDir() {
			return err
		}
		if name := d.Name(); dir != root && (name == "testdata" || strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_")) {
			return filepath.SkipDir
		}
		pd, err := p.parseDir(dir, stdPaths)
		if err != nil || pd == nil {
			return err
		}
		path := modulePath
		if dir != root {
			path += "/" + filepath.ToSlash(dir)
		}
		p.dirs[path] = pd
		return nil
	})
	if err != nil {
		return nil, err
	}
	if p.std, err = stdImporter(p.fset, stdPaths); err != nil {
		return nil, err
	}
	paths := make([]string, 0, len(p.dirs))
	for path := range p.dirs {
		paths = append(paths, path)
	}
	sort.Strings(paths)
	plain := importerFunc(p.importPlain)
	for _, path := range paths {
		pd := p.dirs[path]
		if _, err := p.importPlain(path); err != nil {
			return nil, err
		}
		withTests := p.plain[path]
		if len(pd.tests) > 0 {
			withTests = p.check(path, append(append([]*ast.File{}, pd.files...), pd.tests...), plain)
		}
		if len(pd.xtests) > 0 {
			p.check(path+"_test", pd.xtests, importerFunc(func(dep string) (*types.Package, error) {
				if dep == path {
					return withTests, nil
				}
				return p.importPlain(dep)
			}))
		}
	}
	if len(p.errs) > 0 {
		return nil, fmt.Errorf("type-checking the tree: %v (%d errors)", p.errs[0], len(p.errs))
	}
	p.addImportedInterfaces()
	return p, nil
}

func (p *program) parseDir(dir string, stdPaths map[string]bool) (*pkgDir, error) {
	ents, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	pd := &pkgDir{dir: dir}
	for _, e := range ents {
		name := e.Name()
		if e.IsDir() || !strings.HasSuffix(name, ".go") {
			continue
		}
		if ok, err := build.Default.MatchFile(dir, name); err != nil || !ok {
			if err != nil {
				return nil, err
			}
			continue
		}
		f, err := parser.ParseFile(p.fset, filepath.Join(dir, name), nil, parser.SkipObjectResolution)
		if err != nil {
			return nil, err
		}
		for _, im := range f.Imports {
			if path := strings.Trim(im.Path.Value, `"`); path != modulePath && !strings.HasPrefix(path, modulePath+"/") {
				stdPaths[path] = true
			}
		}
		switch {
		case !strings.HasSuffix(name, "_test.go"):
			pd.files = append(pd.files, f)
		case strings.HasSuffix(f.Name.Name, "_test"):
			pd.xtests = append(pd.xtests, f)
		default:
			pd.tests = append(pd.tests, f)
		}
	}
	if len(pd.files)+len(pd.tests)+len(pd.xtests) == 0 {
		return nil, nil
	}
	return pd, nil
}

// stdImporter reads the export data of every import from outside the
// module, located by one go list call.
func stdImporter(fset *token.FileSet, paths map[string]bool) (types.Importer, error) {
	args := []string{"list", "-export", "-f", "{{.ImportPath}}\t{{.Export}}"}
	for path := range paths {
		if path != "unsafe" {
			args = append(args, path)
		}
	}
	out, err := exec.Command("go", args...).Output()
	if err != nil {
		return nil, fmt.Errorf("go list -export: %w", err)
	}
	export := map[string]string{}
	sc := bufio.NewScanner(bytes.NewReader(out))
	for sc.Scan() {
		path, file, _ := strings.Cut(sc.Text(), "\t")
		export[path] = file
	}
	return importer.ForCompiler(fset, "gc", func(path string) (io.ReadCloser, error) {
		file, ok := export[path]
		if !ok {
			return nil, fmt.Errorf("no export data for %s", path)
		}
		return os.Open(file)
	}), nil
}

type importerFunc func(path string) (*types.Package, error)

func (f importerFunc) Import(path string) (*types.Package, error) { return f(path) }

// importPlain returns the package at path as its importers see it,
// checking it on first use.
func (p *program) importPlain(path string) (*types.Package, error) {
	pd := p.dirs[path]
	if pd == nil {
		return p.std.Import(path)
	}
	if pkg, ok := p.plain[path]; ok {
		if pkg == nil {
			return nil, fmt.Errorf("import cycle through %s", path)
		}
		return pkg, nil
	}
	p.plain[path] = nil
	p.plain[path] = p.check(path, pd.files, importerFunc(p.importPlain))
	return p.plain[path], nil
}

// checked is one type-check's files and its record of them.
type checked struct {
	files []*ast.File
	info  *types.Info
}

// check type-checks files as the package path, recording their uses,
// their expressions' types and the interface types they spell out.
// Errors collect in p.errs.
func (p *program) check(path string, files []*ast.File, imp types.Importer) *types.Package {
	info := &types.Info{Uses: map[*ast.Ident]types.Object{}, Types: map[ast.Expr]types.TypeAndValue{}}
	conf := types.Config{Importer: imp, Error: func(err error) { p.errs = append(p.errs, err) }}
	pkg, _ := conf.Check(path, p.fset, files, info)
	p.pkgs = append(p.pkgs, pkg)
	p.checks = append(p.checks, checked{files, info})
	for _, f := range files {
		ast.Inspect(f, func(n ast.Node) bool {
			if it, ok := n.(*ast.InterfaceType); ok {
				p.addInterface(info.Types[it].Type)
			}
			return true
		})
	}
	return pkg
}

func (p *program) addInterface(t types.Type) {
	if it, ok := t.(*types.Interface); ok {
		for i := 0; i < it.NumMethods(); i++ {
			name := it.Method(i).Name()
			p.ifaces[name] = append(p.ifaces[name], it)
		}
	}
}

// addImportedInterfaces records the named interfaces of every package
// from outside the module that the tree reaches.
func (p *program) addImportedInterfaces() {
	seen := map[*types.Package]bool{}
	var walk func(pkg *types.Package)
	walk = func(pkg *types.Package) {
		if seen[pkg] {
			return
		}
		seen[pkg] = true
		if _, inModule := p.dirs[pkg.Path()]; !inModule {
			for _, name := range pkg.Scope().Names() {
				if tn, ok := pkg.Scope().Lookup(name).(*types.TypeName); ok {
					p.addInterface(tn.Type().Underlying())
				}
			}
		}
		for _, dep := range pkg.Imports() {
			walk(dep)
		}
	}
	for _, pkg := range p.pkgs {
		walk(pkg)
	}
}

// export is one exported declaration under internal/.
type export struct {
	name  string // render.RenderFull, volume.Supernova.Eval
	dir   string
	spans [][2]token.Pos // its own declaration; uses inside do not count
	recv  *types.Named   // a method's receiver type
	live  bool
}

// deadExports returns the position of every exported declaration under
// internal/ that nothing outside its own package's tests refers to,
// keyed by name.
func (p *program) deadExports() map[string]token.Position {
	decls := map[token.Pos]*export{}
	for path, pd := range p.dirs {
		rel, ok := strings.CutPrefix(path, modulePath+"/internal/")
		if !ok {
			continue
		}
		typeDecls := map[string]*export{}
		add := func(id *ast.Ident, name string, node ast.Node) *export {
			e := &export{name: rel + "." + name, dir: pd.dir, spans: [][2]token.Pos{{node.Pos(), node.End()}}}
			if id.IsExported() {
				decls[id.Pos()] = e
			}
			return e
		}
		for _, f := range pd.files {
			for _, d := range f.Decls {
				switch d := d.(type) {
				case *ast.FuncDecl:
					if d.Recv == nil {
						add(d.Name, d.Name.Name, d)
					}
				case *ast.GenDecl:
					for _, s := range d.Specs {
						switch s := s.(type) {
						case *ast.TypeSpec:
							typeDecls[s.Name.Name] = add(s.Name, s.Name.Name, s)
						case *ast.ValueSpec:
							for _, id := range s.Names {
								add(id, id.Name, s)
							}
						}
					}
				}
			}
		}
		for _, f := range pd.files {
			for _, d := range f.Decls {
				fd, ok := d.(*ast.FuncDecl)
				if !ok || fd.Recv == nil {
					continue
				}
				base := recvBase(fd.Recv.List[0].Type)
				t := typeDecls[base]
				t.spans = append(t.spans, [2]token.Pos{fd.Pos(), fd.End()})
				m := add(fd.Name, base+"."+fd.Name.Name, fd)
				m.recv, _ = p.plain[path].Scope().Lookup(base).Type().(*types.Named)
			}
		}
	}

	for _, c := range p.checks {
		for id, obj := range c.info.Uses {
			e := decls[origin(obj).Pos()]
			if e == nil || e.live {
				continue
			}
			inside := false
			for _, s := range e.spans {
				inside = inside || s[0] <= id.Pos() && id.Pos() < s[1]
			}
			file := p.fset.File(id.Pos()).Name()
			ownTest := strings.HasSuffix(file, "_test.go") && filepath.Dir(file) == e.dir
			e.live = !inside && !ownTest
		}
	}

	dead := map[string]token.Position{}
	for pos, e := range decls {
		if !e.live && (e.recv == nil || !p.satisfiesInterface(e.recv, e.name[strings.LastIndex(e.name, ".")+1:])) {
			dead[e.name] = p.fset.Position(pos)
		}
	}
	return dead
}

// satisfiesInterface reports whether t or *t implements an interface
// the program knows that has the named method.
func (p *program) satisfiesInterface(t *types.Named, method string) bool {
	for _, it := range p.ifaces[method] {
		if types.Implements(t, it) || types.Implements(types.NewPointer(t), it) {
			return true
		}
	}
	return false
}

// recvBase returns the type name of a method's receiver expression.
func recvBase(e ast.Expr) string {
	for {
		switch x := e.(type) {
		case *ast.StarExpr:
			e = x.X
		case *ast.IndexExpr:
			e = x.X
		case *ast.IndexListExpr:
			e = x.X
		case *ast.ParenExpr:
			e = x.X
		case *ast.Ident:
			return x.Name
		default:
			return ""
		}
	}
}

// origin maps a use of an instantiated generic func, method or field to
// its declaration.
func origin(obj types.Object) types.Object {
	switch o := obj.(type) {
	case *types.Func:
		return o.Origin()
	case *types.Var:
		return o.Origin()
	}
	return obj
}

// unwrittenFields returns the position of every exported field of an
// exported struct under internal/ that no non-test file writes, keyed by
// name (core.RealConfig.Procs). Fields with a json tag and embedded
// fields are left out.
func (p *program) unwrittenFields() map[string]token.Position {
	fields := map[token.Pos]string{}
	for path, pd := range p.dirs {
		rel, ok := strings.CutPrefix(path, modulePath+"/internal/")
		if !ok {
			continue
		}
		for _, f := range pd.files {
			for _, d := range f.Decls {
				gd, ok := d.(*ast.GenDecl)
				if !ok {
					continue
				}
				for _, s := range gd.Specs {
					ts, ok := s.(*ast.TypeSpec)
					if !ok || !ts.Name.IsExported() {
						continue
					}
					st, ok := p.plain[path].Scope().Lookup(ts.Name.Name).Type().Underlying().(*types.Struct)
					if !ok {
						continue
					}
					for i := 0; i < st.NumFields(); i++ {
						v := st.Field(i)
						if _, decoded := reflect.StructTag(st.Tag(i)).Lookup("json"); v.Exported() && !v.Embedded() && !decoded {
							fields[v.Pos()] = rel + "." + ts.Name.Name + "." + v.Name()
						}
					}
				}
			}
		}
	}

	for _, c := range p.checks {
		mark := func(obj types.Object) {
			if v, ok := obj.(*types.Var); ok && v.IsField() {
				delete(fields, v.Origin().Pos())
			}
		}
		// through marks every field that e reaches its target through.
		through := func(e ast.Expr) {
			for {
				switch x := e.(type) {
				case *ast.SelectorExpr:
					mark(c.info.Uses[x.Sel])
					e = x.X
				case *ast.IndexExpr:
					e = x.X
				case *ast.StarExpr:
					e = x.X
				case *ast.ParenExpr:
					e = x.X
				default:
					return
				}
			}
		}
		for _, f := range c.files {
			if strings.HasSuffix(p.fset.File(f.Pos()).Name(), "_test.go") {
				continue
			}
			ast.Inspect(f, func(n ast.Node) bool {
				switch n := n.(type) {
				case *ast.CompositeLit:
					st, ok := c.info.Types[n].Type.Underlying().(*types.Struct)
					if !ok {
						break
					}
					for i, elt := range n.Elts {
						if kv, ok := elt.(*ast.KeyValueExpr); ok {
							mark(c.info.Uses[kv.Key.(*ast.Ident)])
						} else {
							mark(st.Field(i))
						}
					}
				case *ast.AssignStmt:
					for _, e := range n.Lhs {
						through(e)
					}
				case *ast.RangeStmt:
					if n.Tok == token.ASSIGN {
						through(n.Key)
						through(n.Value)
					}
				case *ast.IncDecStmt:
					through(n.X)
				case *ast.UnaryExpr:
					if n.Op == token.AND {
						through(n.X)
					}
				case *ast.CallExpr:
					if sel, ok := n.Fun.(*ast.SelectorExpr); ok {
						if _, method := c.info.Uses[sel.Sel].(*types.Func); method {
							through(sel.X)
						}
					}
				}
				return true
			})
		}
	}

	unwritten := map[string]token.Position{}
	for pos, name := range fields {
		unwritten[name] = p.fset.Position(pos)
	}
	return unwritten
}
