package greennfv

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"os"
	"os/exec"
	"path"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

// TestReachability is the rule "nothing outside tests stays unless a
// binary, the public API or bench/ reaches it" as a gate. Roots are
// every main/init under cmd/, examples/ and bench/ (bench/*.go is
// checked as one more package against the same type-checked tree) and
// the exported API of this package; an edge is every identifier a
// declaration mentions. A reached type keeps the methods an interface
// could call (any interface method name declared in the tree, plus the
// standard-library ones in ifaceNames), and a receiver handed to
// rpcutil.Serve keeps its exported methods (they are found by
// reflection). Every other non-test declaration must be listed in
// testdata/reach.keep with its reason; an entry that is reachable, or
// matches nothing, fails too.
func TestReachability(t *testing.T) {
	r := loadTree(t)
	for _, d := range r.order {
		top := d.recv == "" && (d.name == "main" || d.name == "init")
		switch {
		case d.pkg == "greennfv":
			if ast.IsExported(d.name) && (d.recv == "" || ast.IsExported(d.recv)) {
				r.mark(d.obj)
			}
		case top && (!d.report || strings.HasPrefix(d.pkg, "greennfv/cmd/") || strings.HasPrefix(d.pkg, "greennfv/examples/")):
			r.mark(d.obj)
		}
	}
	r.drain()

	var failures []string
	for _, k := range readKeepList(t, "testdata/reach.keep") {
		matched := false
		for _, d := range r.order {
			if !d.report || !covers(k, d) {
				continue
			}
			matched = true
			if r.seen[d.obj] && !strings.HasSuffix(k, ".*") {
				failures = append(failures, fmt.Sprintf("testdata/reach.keep: %s is reachable without the entry", k))
			}
			d.kept = !r.seen[d.obj]
		}
		if !matched {
			failures = append(failures, fmt.Sprintf("testdata/reach.keep: %s matches no declaration", k))
		}
	}
	// What a kept declaration needs is kept with it.
	for _, d := range r.order {
		if d.kept {
			r.mark(d.obj)
		}
	}
	r.drain()
	lines := 0
	for _, d := range r.order {
		if d.report && !r.seen[d.obj] {
			pos, end := r.fset.Position(d.node.Pos()), r.fset.Position(d.node.End())
			lines += end.Line - pos.Line + 1
			failures = append(failures, fmt.Sprintf("%s:%d %s", pos.Filename, pos.Line, d.id()))
		}
	}
	if len(failures) > 0 {
		sort.Strings(failures)
		t.Errorf("%d declarations (%d lines) are reachable only from tests — delete them, move them into a _test.go file, or add them to testdata/reach.keep with a reason:\n%s",
			len(failures), lines, strings.Join(failures, "\n"))
	}
}

// ifaceNames are the methods the standard library calls through its own
// interfaces (fmt, error, net/http, encoding, sort, container/heap,
// math/rand, flag, io); interface methods declared in the tree are added
// by loadTree.
var ifaceNames = "String Error ServeHTTP MarshalBinary UnmarshalBinary Len Less Swap Push Pop Seed Int63 Uint64 Set Read Write Close Unwrap Timeout Temporary"

type decl struct {
	obj        types.Object
	node       ast.Node
	pkg        string // import path
	recv, name string
	group      []*decl // an iota block is reached as one
	report     bool    // false for bench/: roots only
	kept       bool
}

func (d *decl) id() string {
	if d.recv != "" {
		return path.Base(d.pkg) + "." + d.recv + "." + d.name
	}
	return path.Base(d.pkg) + "." + d.name
}

// covers reports whether keep-list entry k ("pkg.Name", "pkg.Type" for
// the type and its methods, "pkg.*" for a package) names d.
func covers(k string, d *decl) bool {
	if p, ok := strings.CutSuffix(k, ".*"); ok {
		return path.Base(d.pkg) == p
	}
	return d.id() == k || (d.recv != "" && path.Base(d.pkg)+"."+d.recv == k)
}

func readKeepList(t *testing.T, file string) []string {
	f, err := os.Open(file)
	if os.IsNotExist(err) {
		return nil // no list: nothing is kept
	} else if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	var out []string
	for sc := bufio.NewScanner(f); sc.Scan(); {
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		name, reason, ok := strings.Cut(line, " — ")
		if !ok || strings.TrimSpace(reason) == "" {
			t.Fatalf("%s: %q: want \"pkg.Name — reason\"", file, line)
		}
		out = append(out, name)
	}
	return out
}

type listed struct {
	ImportPath, Dir         string
	GoFiles, IgnoredGoFiles []string
}

type tree struct {
	fset    *token.FileSet
	std     types.Importer
	meta    map[string]*listed
	pkgs    map[string]*types.Package
	info    *types.Info
	order   []*decl
	decls   map[types.Object]*decl
	methods map[types.Object][]*decl // by receiver type name
	inits   map[string][]*decl       // by import path: init funcs and names other-platform files use
	iface   map[string]bool
	seen    map[types.Object]bool
	linked  map[string]bool
	work    []*decl
}

func loadTree(t *testing.T) *tree {
	out, err := exec.Command("go", "list", "-json=ImportPath,Dir,GoFiles,IgnoredGoFiles", "./...").Output()
	if err != nil {
		t.Fatalf("go list: %v", err)
	}
	build.Default.CgoEnabled = false // the source importer would run cgo for net and os/user
	r := &tree{
		fset: token.NewFileSet(), meta: map[string]*listed{}, pkgs: map[string]*types.Package{},
		info:  &types.Info{Defs: map[*ast.Ident]types.Object{}, Uses: map[*ast.Ident]types.Object{}, Types: map[ast.Expr]types.TypeAndValue{}},
		decls: map[types.Object]*decl{}, methods: map[types.Object][]*decl{}, inits: map[string][]*decl{},
		iface: map[string]bool{}, seen: map[types.Object]bool{}, linked: map[string]bool{},
	}
	r.std = importer.ForCompiler(r.fset, "source", nil)
	for _, n := range strings.Fields(ifaceNames) {
		r.iface[n] = true
	}
	var paths []string
	for dec := json.NewDecoder(bytes.NewReader(out)); ; {
		p := new(listed)
		if err := dec.Decode(p); err == io.EOF {
			break
		} else if err != nil {
			t.Fatalf("go list: %v", err)
		}
		r.meta[p.ImportPath] = p
		paths = append(paths, p.ImportPath)
	}
	benchFiles, _ := filepath.Glob("bench/*.go")
	b := &listed{ImportPath: "greennfv/bench", Dir: "."}
	for _, f := range benchFiles {
		if !strings.HasSuffix(f, "_test.go") {
			b.GoFiles = append(b.GoFiles, f)
		}
	}
	r.meta[b.ImportPath] = b
	for _, p := range append(paths, b.ImportPath) {
		if _, err := r.Import(p); err != nil {
			t.Fatalf("type-checking %s: %v", p, err)
		}
	}
	return r
}

// Import type-checks a package of this module on first use and hands
// everything else to the standard library's source importer, so one
// object identifies a declaration from every importer, bench/ included.
func (r *tree) Import(ipath string) (*types.Package, error) {
	if p := r.pkgs[ipath]; p != nil {
		return p, nil
	}
	m := r.meta[ipath]
	if m == nil {
		return r.std.Import(ipath)
	}
	var files []*ast.File
	for _, name := range m.GoFiles {
		f, err := parser.ParseFile(r.fset, filepath.Join(m.Dir, name), nil, parser.SkipObjectResolution)
		if err != nil {
			return nil, err
		}
		files = append(files, f)
	}
	p, err := (&types.Config{Importer: r}).Check(ipath, r.fset, files, r.info)
	if err != nil {
		return nil, err
	}
	r.pkgs[ipath] = p
	otherPlatform := map[string]bool{}
	for _, name := range m.IgnoredGoFiles {
		if f, err := parser.ParseFile(r.fset, filepath.Join(m.Dir, name), nil, parser.SkipObjectResolution); err == nil && !strings.HasSuffix(name, "_test.go") {
			ast.Inspect(f, func(n ast.Node) bool {
				if id, ok := n.(*ast.Ident); ok {
					otherPlatform[id.Name] = true
				}
				return true
			})
		}
	}
	add := func(id *ast.Ident, node ast.Node) *decl {
		obj := r.info.Defs[id]
		if obj == nil || id.Name == "_" {
			return nil
		}
		d := &decl{obj: obj, node: node, pkg: ipath, name: id.Name, report: ipath != "greennfv/bench"}
		r.decls[obj], r.order = d, append(r.order, d)
		if otherPlatform[id.Name] {
			r.inits[ipath] = append(r.inits[ipath], d)
		}
		return d
	}
	for _, f := range files {
		ast.Inspect(f, func(n ast.Node) bool {
			if it, ok := n.(*ast.InterfaceType); ok {
				for _, m := range it.Methods.List {
					for _, id := range m.Names {
						r.iface[id.Name] = true
					}
				}
			}
			return true
		})
		for _, gd := range f.Decls {
			switch gd := gd.(type) {
			case *ast.FuncDecl:
				d := add(gd.Name, gd)
				if d == nil {
					continue
				}
				if recv := d.obj.Type().(*types.Signature).Recv(); recv != nil {
					rt := recv.Type()
					if p, ok := rt.(*types.Pointer); ok {
						rt = p.Elem()
					}
					tn := rt.(*types.Named).Origin().Obj()
					d.recv = tn.Name()
					r.methods[tn] = append(r.methods[tn], d)
				} else if d.name == "init" {
					r.inits[ipath] = append(r.inits[ipath], d)
				}
			case *ast.GenDecl:
				var group []*decl
				iota := false
				for _, spec := range gd.Specs {
					switch spec := spec.(type) {
					case *ast.TypeSpec:
						add(spec.Name, spec)
					case *ast.ValueSpec:
						iota = iota || (gd.Tok == token.CONST && len(spec.Values) == 0)
						for _, id := range spec.Names {
							if d := add(id, spec); d != nil {
								group = append(group, d)
							}
						}
					}
				}
				if iota {
					for _, d := range group {
						d.group = group
					}
				}
			}
		}
	}
	return p, nil
}

func (r *tree) mark(obj types.Object) {
	switch o := obj.(type) {
	case *types.Func:
		obj = o.Origin()
	case *types.Var:
		obj = o.Origin()
	}
	d := r.decls[obj]
	if d == nil || r.seen[obj] {
		return
	}
	r.seen[obj] = true
	r.work = append(r.work, d)
}

func (r *tree) drain() {
	for len(r.work) > 0 {
		d := r.work[len(r.work)-1]
		r.work = r.work[:len(r.work)-1]
		if !r.linked[d.pkg] {
			r.linked[d.pkg] = true
			for _, i := range r.inits[d.pkg] {
				r.mark(i.obj)
			}
		}
		for _, g := range d.group {
			r.mark(g.obj)
		}
		for _, m := range r.methods[d.obj] {
			if r.iface[m.name] {
				r.mark(m.obj)
			}
		}
		ast.Inspect(d.node, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.Ident:
				if o := r.info.Uses[n]; o != nil {
					r.mark(o)
				}
			case *ast.CallExpr:
				// rpcutil.Serve(name, rcvr, addr) registers rcvr's exported methods by reflection:
				// bench's Echo is registered so. A typed handler (rpcutil.Method) names its func.
				if sel, ok := n.Fun.(*ast.SelectorExpr); ok && sel.Sel.Name == "Serve" && len(n.Args) == 3 {
					if f := r.info.Uses[sel.Sel]; f != nil && f.Pkg() != nil && f.Pkg().Path() == "greennfv/internal/rpcutil" {
						ms := types.NewMethodSet(r.info.TypeOf(n.Args[1]))
						for i := 0; i < ms.Len(); i++ {
							if m := ms.At(i).Obj(); m.Exported() {
								r.mark(m)
							}
						}
					}
				}
			}
			return true
		})
	}
}
