package pran

import (
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path"
	"path/filepath"
	"regexp"
	"sort"
	"strings"
	"testing"

	"pran/internal/experiments"
)

// TestInternalPackagesDocumentConcurrency is the concurrency-contract lint:
// every internal package's package-level doc comment must state its
// concurrency model — which types are safe from which goroutines, what is
// single-threaded by design, where the locks and shards are. The repo grew a
// real threading story (stream writer goroutines, sharded fan-in, a
// single-threaded control loop), and docs/concurrency.md indexes these
// contracts; a package without one is a package whose next caller guesses.
//
// The check is deliberately shallow — the doc comment must contain the word
// "Concurrency" (a "Concurrency:" paragraph or a "# Concurrency" heading) —
// because the valuable part, writing the contract down, cannot be mechanized.
func TestInternalPackagesDocumentConcurrency(t *testing.T) {
	dirs, err := filepath.Glob("internal/*")
	if err != nil {
		t.Fatal(err)
	}
	sort.Strings(dirs)
	checked := 0
	for _, dir := range dirs {
		info, err := os.Stat(dir)
		if err != nil || !info.IsDir() {
			continue
		}
		fset := token.NewFileSet()
		pkgs, err := parser.ParseDir(fset, dir, func(fi os.FileInfo) bool {
			return !strings.HasSuffix(fi.Name(), "_test.go")
		}, parser.ParseComments|parser.PackageClauseOnly)
		if err != nil {
			t.Fatalf("%s: %v", dir, err)
		}
		for name, pkg := range pkgs {
			// The package comment lives on whichever file carries it
			// (conventionally the package's principal file).
			var docText strings.Builder
			for _, f := range pkg.Files {
				if f.Doc != nil {
					docText.WriteString(f.Doc.Text())
				}
			}
			checked++
			if strings.TrimSpace(docText.String()) == "" {
				t.Errorf("package %s (%s) has no package doc comment at all", name, dir)
				continue
			}
			if !strings.Contains(docText.String(), "Concurrency") {
				t.Errorf("package %s (%s) has no concurrency contract in its package doc: document which goroutines may touch what (see docs/concurrency.md)", name, dir)
			}
		}
	}
	if checked == 0 {
		t.Fatal("lint found no internal packages — glob broken?")
	}
	t.Logf("checked %d internal packages for concurrency contracts", checked)
}

// qualifiedIdent finds pkg.Ident and pkg.Ident.Member inside a backticked
// span; the leading group keeps x.pkg.Ident and Xpkg.Ident from matching.
var qualifiedIdent = regexp.MustCompile(`(?:^|[^.\w])([a-z][a-z0-9]*)\.([A-Z]\w*)(?:\.([A-Z]\w*))?`)

// internalPath finds an internal/<dir>[/more] path inside a backticked span
// (`internal/phy`, `go test ./internal/soak/`, `pran/internal/telemetry`).
var internalPath = regexp.MustCompile(`(?:^|[^\w])(internal/[a-z0-9_]+(?:/[\w.-]+)*)`)

// TestDocsNameLiveIdentifiers is the stale-name lint: every backticked
// pkg.Ident or pkg.Ident.Member in README.md, DESIGN.md, EXPERIMENTS.md and
// docs/*.md whose pkg is a directory of internal/ must be an exported
// declaration of that package (and Member a field or method of the type), so
// renaming or deleting a name the documents teach fails here and not in a
// reader's editor. Names written unqualified are not checked, which is the
// reason to write them qualified. A pkg.Ident whose package is gone looks
// like a standard-library name and passes, so every backticked internal/...
// path must exist too: a deleted package fails where the documents name its
// directory.
func TestDocsNameLiveIdentifiers(t *testing.T) {
	docs, err := filepath.Glob("docs/*.md")
	if err != nil {
		t.Fatal(err)
	}
	docs = append(docs, "README.md", "DESIGN.md", "EXPERIMENTS.md")
	span := regexp.MustCompile("`[^`\n]+`")
	pkgs := map[string]map[string]bool{} // package → "Ident" and "Ident.Member"
	checked := 0
	for _, doc := range docs {
		text, err := os.ReadFile(doc)
		if err != nil {
			t.Fatal(err)
		}
		for _, sp := range span.FindAllString(string(text), -1) {
			for _, m := range internalPath.FindAllStringSubmatch(strings.Trim(sp, "`"), -1) {
				path := strings.TrimRight(m[1], ".")
				checked++
				if _, err := os.Stat(filepath.FromSlash(path)); err != nil {
					t.Errorf("%s names `%s`, which does not exist", doc, path)
				}
			}
			for _, m := range qualifiedIdent.FindAllStringSubmatch(strings.Trim(sp, "`"), -1) {
				pkg, name := m[1], m[2]
				if info, err := os.Stat(filepath.Join("internal", pkg)); err != nil || !info.IsDir() {
					continue // a standard-library package or a variable
				}
				if pkgs[pkg] == nil {
					pkgs[pkg] = exportedNames(t, filepath.Join("internal", pkg))
				}
				if m[3] != "" {
					name += "." + m[3]
				}
				checked++
				if !pkgs[pkg][name] {
					t.Errorf("%s names `%s.%s`, which internal/%s does not declare", doc, pkg, name, pkg)
				}
			}
		}
	}
	if checked == 0 {
		t.Fatal("lint found no qualified identifiers — pattern broken?")
	}
	t.Logf("resolved %d qualified identifiers and internal paths in %d documents", checked, len(docs))
}

// TestExperimentRegistryMatchesDocs ties the documents to the one experiment
// driver: the live `## EX —` sections of EXPERIMENTS.md and the live rows of
// the DESIGN.md §4 index must name exactly experiments.Registry's IDs, in
// order. A retired experiment keeps its section and row, marked retired, so
// its number is never reused and its last result stays on record.
func TestExperimentRegistryMatchesDocs(t *testing.T) {
	var want []string
	for _, e := range experiments.Registry {
		want = append(want, e.ID)
	}
	live := func(doc, start, end string, entry *regexp.Regexp, retired string) []string {
		t.Helper()
		text, err := os.ReadFile(doc)
		if err != nil {
			t.Fatal(err)
		}
		s := string(text)
		i := strings.Index(s, start)
		if i < 0 {
			t.Fatalf("%s: no %q", doc, start)
		}
		s = s[i:]
		if j := strings.Index(s, end); j >= 0 {
			s = s[:j]
		}
		var ids []string
		for _, m := range entry.FindAllStringSubmatch(s, -1) {
			if !strings.HasPrefix(m[2], retired) {
				ids = append(ids, m[1])
			}
		}
		return ids
	}
	for doc, got := range map[string][]string{
		"EXPERIMENTS.md": live("EXPERIMENTS.md", "## E1 ", "## Reproducing",
			regexp.MustCompile(`(?m)^## (E\d+) — (.*)$`), "retired"),
		"DESIGN.md §4": live("DESIGN.md", "## 4.", "## 5.",
			regexp.MustCompile(`(?m)^\| (E\d+) \| (.*)$`), "*Retired*"),
	} {
		if strings.Join(got, " ") != strings.Join(want, " ") {
			t.Errorf("%s lists live experiments %v; experiments.Registry has %v", doc, got, want)
		}
	}
}

// oracleNames are the retired knobs that selected a reference decode
// pipeline (the decode profile and its kernel, front-end and tile fields),
// and the cost-model and ladder hooks that once priced or forced one.
var oracleNames = regexp.MustCompile(`\b(DecodeProfile|DecodeKernel|KernelFloat32|FrontEndStaged|NoVectorFrontEnd|WithProfile|ForcesInt16)\b`)

// TestOraclesStayInPhy is the one-pipeline lint: phy's reference decode
// pipelines are test oracles and measurement columns, living in its
// _test.go files, so no non-test Go file anywhere — internal/phy's
// included — may name a knob that selects one: a processor option, a pool,
// a cost model or a ladder rung that did would make configuration of an
// oracle again.
func TestOraclesStayInPhy(t *testing.T) {
	checked, inPhy := 0, 0
	err := filepath.WalkDir(".", func(path string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if path != "." && strings.HasPrefix(d.Name(), ".") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return nil
		}
		text, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		checked++
		if filepath.Dir(path) == filepath.Join("internal", "phy") {
			inPhy++
		}
		for _, name := range oracleNames.FindAllString(string(text), -1) {
			t.Errorf("%s names %s: reference decode pipelines are internal/phy's test oracles, not configuration", path, name)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if checked == 0 || inPhy == 0 {
		t.Fatalf("lint read %d Go files, %d of internal/phy — walk broken?", checked, inPhy)
	}
}

// exportAllowlist names the exported identifiers under internal/ that
// TestExportsHaveLiveUse accepts without a non-test use, mapped to the
// reason for each. An entry that gains a use, or whose name is gone, fails
// the lint, so the list only shrinks. It is empty: every exported name has
// a non-test use.
var exportAllowlist = map[string]string{}

// TestExportsHaveLiveUse is the closed-API lint, the typed successor of
// TestOraclesStayInPhy: every exported identifier declared in a non-test
// file under internal/ — a top-level name, a method, a field of a struct or
// a method of an interface — must be used by a non-test file of the program
// (internal/, cmd/, examples/ and the benchmark module) other than its own
// declaration. A name that only tests reach is deleted, moved into a
// _test.go file if a test uses it as an oracle, or unexported if it is a
// test hook. A method also counts as used when its type implements an
// interface the program uses that declares it: one the program names, the
// type of a parameter of a function it calls or of a variable it reads,
// or fmt.Stringer where it imports fmt. The packages are type-checked for
// the host's build configuration, so a name used only under another build
// tag or GOARCH would need an allowlist entry.
func TestExportsHaveLiveUse(t *testing.T) {
	prog := loadProgram(t)
	dead, checked := prog.unusedExports()
	unused := map[string]bool{}
	for _, d := range dead {
		unused[d.id] = true
		if exportAllowlist[d.id] == "" {
			t.Errorf("%s: %s is exported but no non-test file uses it: delete it, move it into a _test.go file, or unexport it", d.pos, d.id)
		}
	}
	for id := range exportAllowlist {
		if !unused[id] {
			t.Errorf("allowlist entry %s is used or no longer declared: remove the entry", id)
		}
	}
	if checked == 0 {
		t.Fatal("lint checked no exported identifiers — load broken?")
	}
	t.Logf("checked %d exported identifiers in %d packages", checked, len(prog.pkgs))
}

// program is the type-checked non-test code of the repository: one shared
// types.Info over every package.
type program struct {
	fset *token.FileSet
	info *types.Info
	pkgs map[string]*types.Package // by import path
}

// loadProgram type-checks the non-test files of every package under
// internal/, cmd/ and examples/, and of the benchmark module, resolving the
// standard library from its export data.
func loadProgram(t *testing.T) *program {
	t.Helper()
	dirs := map[string]string{"pran/benchmark": "benchmark"} // import path → directory
	for _, top := range []string{"internal", "cmd", "examples"} {
		err := filepath.WalkDir(top, func(p string, d os.DirEntry, err error) error {
			if err != nil {
				return err
			}
			if d.IsDir() && (d.Name() == "testdata" || strings.HasPrefix(d.Name(), ".")) {
				return filepath.SkipDir
			}
			if !d.IsDir() && strings.HasSuffix(p, ".go") && !strings.HasSuffix(p, "_test.go") {
				dirs["pran/"+filepath.ToSlash(filepath.Dir(p))] = filepath.Dir(p)
			}
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	prog := &program{
		fset: token.NewFileSet(),
		info: &types.Info{Uses: map[*ast.Ident]types.Object{}},
		pkgs: map[string]*types.Package{},
	}
	std := importer.Default()
	var imp importerFunc
	imp = func(ipath string) (*types.Package, error) {
		if pkg, ok := prog.pkgs[ipath]; ok {
			return pkg, nil
		}
		dir, ok := dirs[ipath]
		if !ok {
			return std.Import(ipath)
		}
		entries, err := os.ReadDir(dir)
		if err != nil {
			return nil, err
		}
		var files []*ast.File
		for _, e := range entries {
			name := e.Name()
			if !strings.HasSuffix(name, ".go") || strings.HasSuffix(name, "_test.go") {
				continue
			}
			if match, err := build.Default.MatchFile(dir, name); err != nil || !match {
				continue
			}
			f, err := parser.ParseFile(prog.fset, filepath.Join(dir, name), nil, parser.SkipObjectResolution)
			if err != nil {
				return nil, err
			}
			files = append(files, f)
		}
		pkg, err := (&types.Config{Importer: imp}).Check(ipath, prog.fset, files, prog.info)
		if err != nil {
			return nil, err
		}
		prog.pkgs[ipath] = pkg
		return pkg, nil
	}
	for ipath := range dirs {
		if _, err := imp(ipath); err != nil {
			t.Fatalf("%s: %v", ipath, err)
		}
	}
	return prog
}

type importerFunc func(path string) (*types.Package, error)

func (f importerFunc) Import(path string) (*types.Package, error) { return f(path) }

// exportedDecl is one exported identifier: "pkg.Name" or "pkg.Type.Member",
// and where it is declared.
type exportedDecl struct {
	id  string
	pos token.Position
}

// unusedExports returns the exported identifiers declared under internal/
// that no non-test file uses, sorted, and how many it checked.
func (p *program) unusedExports() (dead []exportedDecl, checked int) {
	used := map[types.Object]bool{}
	for _, obj := range p.info.Uses {
		switch o := obj.(type) {
		case *types.Func:
			obj = o.Origin()
		case *types.Var:
			obj = o.Origin()
		}
		used[obj] = true
	}
	implementsUsed := p.interfaceMethods()
	check := func(obj types.Object, id string) {
		checked++
		if !used[obj] {
			dead = append(dead, exportedDecl{path.Base(obj.Pkg().Path()) + "." + id, p.fset.Position(obj.Pos())})
		}
	}
	for ipath, pkg := range p.pkgs {
		if !strings.HasPrefix(ipath, "pran/internal/") {
			continue
		}
		for _, name := range pkg.Scope().Names() {
			obj := pkg.Scope().Lookup(name)
			if !obj.Exported() {
				continue
			}
			check(obj, name)
			tn, ok := obj.(*types.TypeName)
			if !ok {
				continue
			}
			if named, ok := tn.Type().(*types.Named); ok {
				for i := 0; i < named.NumMethods(); i++ {
					if m := named.Method(i); m.Exported() && !implementsUsed(named, m.Name()) {
						check(m, name+"."+m.Name())
					}
				}
			}
			switch u := tn.Type().Underlying().(type) {
			case *types.Struct:
				for i := 0; i < u.NumFields(); i++ {
					if f := u.Field(i); f.Exported() && !f.Embedded() {
						check(f, name+"."+f.Name())
					}
				}
			case *types.Interface:
				for i := 0; i < u.NumExplicitMethods(); i++ {
					if m := u.ExplicitMethod(i); m.Exported() {
						check(m, name+"."+m.Name())
					}
				}
			}
		}
	}
	sort.Slice(dead, func(i, j int) bool { return dead[i].id < dead[j].id })
	return dead, checked
}

// interfaceMethods collects the interfaces the program uses — those it
// names, the types of parameters of the functions it calls and of the
// variables it reads, and fmt.Stringer where it imports fmt — and returns
// a predicate: whether T or *T implements one of them that declares the
// method name.
func (p *program) interfaceMethods() func(t *types.Named, method string) bool {
	var ifaces []*types.Interface
	add := func(t types.Type) {
		if it, ok := t.Underlying().(*types.Interface); ok && it.NumMethods() > 0 {
			ifaces = append(ifaces, it)
		}
	}
	for _, obj := range p.info.Uses {
		switch o := obj.(type) {
		case *types.TypeName, *types.Var:
			add(o.Type())
		case *types.Func:
			params := o.Type().(*types.Signature).Params()
			for i := 0; i < params.Len(); i++ {
				add(params.At(i).Type())
			}
		}
	}
	for _, pkg := range p.pkgs {
		for _, imp := range pkg.Imports() {
			if imp.Path() == "fmt" {
				add(imp.Scope().Lookup("Stringer").Type())
			}
		}
	}
	return func(t *types.Named, method string) bool {
		for _, it := range ifaces {
			if !types.Implements(t, it) && !types.Implements(types.NewPointer(t), it) {
				continue
			}
			for i := 0; i < it.NumMethods(); i++ {
				if it.Method(i).Name() == method {
					return true
				}
			}
		}
		return false
	}
}

// exportedNames parses a package's non-test files (every build variant) and
// returns its exported top-level names plus "Type.Member" for the exported
// fields and methods of its types.
func exportedNames(t *testing.T, dir string) map[string]bool {
	t.Helper()
	parsed, err := parser.ParseDir(token.NewFileSet(), dir, func(fi os.FileInfo) bool {
		return !strings.HasSuffix(fi.Name(), "_test.go")
	}, 0)
	if err != nil {
		t.Fatalf("%s: %v", dir, err)
	}
	names := map[string]bool{}
	add := func(owner string, idents ...*ast.Ident) {
		for _, id := range idents {
			if id.IsExported() {
				names[owner+id.Name] = true
			}
		}
	}
	for _, pkg := range parsed {
		for _, file := range pkg.Files {
			for _, decl := range file.Decls {
				switch d := decl.(type) {
				case *ast.FuncDecl:
					owner := ""
					if d.Recv != nil {
						recv := d.Recv.List[0].Type
						if star, ok := recv.(*ast.StarExpr); ok {
							recv = star.X
						}
						if id, ok := recv.(*ast.Ident); ok {
							owner = id.Name + "."
						}
					}
					add(owner, d.Name)
				case *ast.GenDecl:
					for _, spec := range d.Specs {
						switch sp := spec.(type) {
						case *ast.ValueSpec:
							add("", sp.Names...)
						case *ast.TypeSpec:
							add("", sp.Name)
							var members *ast.FieldList
							switch typ := sp.Type.(type) {
							case *ast.StructType:
								members = typ.Fields
							case *ast.InterfaceType:
								members = typ.Methods
							}
							if members != nil {
								for _, f := range members.List {
									add(sp.Name.Name+".", f.Names...)
								}
							}
						}
					}
				}
			}
		}
	}
	return names
}
