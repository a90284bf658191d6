package pran

import (
	"go/ast"
	"go/parser"
	"go/token"
	"os"
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

// TestDocsNameLiveIdentifiers is the stale-name lint: every backticked
// pkg.Ident or pkg.Ident.Member in README.md, DESIGN.md, EXPERIMENTS.md and
// docs/*.md whose pkg is a directory of internal/ must be an exported
// declaration of that package (and Member a field or method of the type), so
// renaming or deleting a name the documents teach fails here and not in a
// reader's editor. Names written unqualified are not checked, which is the
// reason to write them qualified.
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
	t.Logf("resolved %d qualified identifiers in %d documents", checked, len(docs))
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
