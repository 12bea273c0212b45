//go:build reach

package sbon

import (
	"bufio"
	"bytes"
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

// reachKeep lists the library functions that no binary links but that
// stay, each with its reason. Names are "pkg.Func" or "pkg.Type.Method"
// with pkg the directory under internal/.
var reachKeep = map[string]string{
	"costspace.ExponentialWeight.Name":   "a §3.1 weighting function; the cost-space and index tests weigh load with it",
	"costspace.ExponentialWeight.Weight": "a §3.1 weighting function; the cost-space and index tests weigh load with it",
	"costspace.HingeWeight.Name":         "a §3.1 weighting function; the cost-space and index tests weigh load with it",
	"costspace.HingeWeight.Weight":       "a §3.1 weighting function; the cost-space and index tests weigh load with it",
	"costspace.LinearWeight.Name":        "a §3.1 weighting function; the cost-space and index tests weigh load with it",
	"costspace.LinearWeight.Weight":      "a §3.1 weighting function; the cost-space and index tests weigh load with it",
	"costspace.Space.Validate":           "checks a hand-built cost space, input from outside the library",
	"costspace.Space.VectorDistance":     "the brute-force reference costindex's tests hold NearestVector to",
	"dht.Catalog.NumPublished":           "accessor the DHT and optimizer tests read",
	"dht.Peer.Entries":                   "accessor the DHT fault tests read",
	"dht.Peer.ID":                        "accessor the DHT tests read",
	"dht.Peer.Node":                      "accessor the DHT tests read",
	"dht.Ring.Peers":                     "accessor the DHT tests read",
	"dht.Ring.RemovePeer":                "the graceful leave the DHT tests churn the ring with",
	"failure.Detector.DeadNodes":         "accessor on a detector the facade hands out; tests read it",
	"failure.Detector.Snapshot":          "accessor on a detector the facade hands out; tests read it",
	"failure.Detector.State":             "accessor on a detector the facade hands out; tests read it",
	"metrics.Lanes.Get":                  "one lane's counter, which Network.ShardCounters reads",
	"optimizer.Circuit.Consumer":         "accessor on a circuit the facade hands out; tests read it",
	"optimizer.Circuit.NewServices":      "accessor on a circuit the facade hands out; tests read it",
	"optimizer.Circuit.TotalLinkRate":    "accessor on a circuit the facade hands out; tests read it",
	"optimizer.Env.Frozen":               "accessor the batch tests read to check a batch freezes once",
	"optimizer.ExhaustiveStrategy.Name":  "the exhaustive placer is planned to move into the tests beside an exact optimum",
	"optimizer.Registry.Instances":       "accessor the registry and repair tests read",
	"overlay.Network.ShardCounters":      "per-lane counters that per-lane accounting builds on and the shard differential test reads",
	"stream.Engine.Migrate":              "the single-service handoff the engine's migration tests drive",
	"stream.Migration.CutoverAt":         "accessor on a migration the facade hands out; tests read it",
	"stream.Running.Host":                "accessor on a running circuit the facade hands out; tests read it",
	"stream.Running.Migrations":          "accessor on a running circuit the facade hands out; tests read it",
	"topology.Topology.Edges":            "accessor the topology and workload tests read",
	"topology.Topology.Nodes":            "accessor the topology and optimizer tests read",
	"trace.Span.ParentID":                "the span nesting a planned trace query (critical-path explain) reads",
	"vivaldi.Coord.Clone":                "accessor the vivaldi tests read",
}

const modulePath = "github.com/hourglass/sbon"

// TestLibraryIsReachable builds every program of the repository — the
// commands, the examples, the benchmark and a generated main that names
// every exported identifier of this package — without inlining, and
// fails on any function declared in internal/ that none of them links
// and that reachKeep does not name. Run it with
//
//	go test -tags reach -run TestLibraryIsReachable .
func TestLibraryIsReachable(t *testing.T) {
	root, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	out := t.TempDir()
	var bins []string
	build := func(dir, pkg, name string) {
		bin := filepath.Join(out, name)
		cmd := exec.Command("go", "build", "-gcflags=all=-l", "-o", bin, pkg)
		cmd.Dir = dir
		if b, err := cmd.CombinedOutput(); err != nil {
			t.Fatalf("go build %s: %v\n%s", pkg, err, b)
		}
		bins = append(bins, bin)
	}
	for _, parent := range []string{"cmd", "examples"} {
		entries, err := os.ReadDir(filepath.Join(root, parent))
		if err != nil {
			t.Fatal(err)
		}
		for _, e := range entries {
			if e.IsDir() {
				build(root, "./"+parent+"/"+e.Name(), parent+"-"+e.Name())
			}
		}
	}
	build(filepath.Join(root, "bench"), ".", "bench")
	facade := filepath.Join(out, "facade")
	writeFacadeMain(t, root, facade)
	build(facade, ".", "facade-main")

	linked := map[string]bool{}
	for _, bin := range bins {
		for _, sym := range textSymbols(t, bin) {
			linked[sym] = true
		}
	}

	declared := internalFuncs(t, root)
	var unlinked []string
	for _, name := range declared {
		if !linked[modulePath+"/internal/"+name] {
			unlinked = append(unlinked, name)
		}
	}
	isUnlinked := map[string]bool{}
	for _, name := range unlinked {
		isUnlinked[name] = true
		if _, ok := reachKeep[name]; !ok {
			t.Errorf("%s is linked into no binary: delete it, move it into a _test.go file, or add it to reachKeep with a reason", name)
		}
	}
	var stale []string
	for name := range reachKeep {
		if !isUnlinked[name] {
			stale = append(stale, name)
		}
	}
	sort.Strings(stale)
	for _, name := range stale {
		t.Errorf("reachKeep names %s, which is linked or no longer declared: remove the entry", name)
	}
	t.Logf("%d functions declared in internal/, %d unlinked, %d kept", len(declared), len(unlinked), len(reachKeep))
}

// writeFacadeMain writes a module in dir whose main names every exported
// function, method, variable and constant of package sbon, so that the
// facade's whole surface counts as reached.
func writeFacadeMain(t *testing.T, root, dir string) {
	t.Helper()
	fset := token.NewFileSet()
	pkgs, err := parser.ParseDir(fset, root, func(fi os.FileInfo) bool {
		return !strings.HasSuffix(fi.Name(), "_test.go")
	}, 0)
	if err != nil {
		t.Fatal(err)
	}
	var refs []string
	for _, f := range pkgs["sbon"].Files {
		for _, d := range f.Decls {
			switch d := d.(type) {
			case *ast.FuncDecl:
				if !d.Name.IsExported() {
					continue
				}
				if d.Recv == nil {
					refs = append(refs, "sbon."+d.Name.Name)
					continue
				}
				recv, ptr := recvName(d.Recv.List[0].Type)
				if !ast.IsExported(recv) {
					continue
				}
				if ptr {
					refs = append(refs, "(*sbon."+recv+")."+d.Name.Name)
				} else {
					refs = append(refs, "sbon."+recv+"."+d.Name.Name)
				}
			case *ast.GenDecl:
				if d.Tok != token.VAR && d.Tok != token.CONST {
					continue
				}
				for _, s := range d.Specs {
					for _, n := range s.(*ast.ValueSpec).Names {
						if n.IsExported() {
							refs = append(refs, "sbon."+n.Name)
						}
					}
				}
			}
		}
	}
	sort.Strings(refs)
	var src bytes.Buffer
	fmt.Fprintf(&src, "package main\n\nimport %q\n\nvar refs = []any{\n", modulePath)
	for _, r := range refs {
		fmt.Fprintf(&src, "\t%s,\n", r)
	}
	src.WriteString("}\n\nfunc main() { println(len(refs)) }\n")
	mod := fmt.Sprintf("module sbonreach\n\ngo 1.24\n\nrequire %s v0.0.0\n\nreplace %s => %s\n", modulePath, modulePath, root)
	if err := os.MkdirAll(dir, 0o755); err != nil {
		t.Fatal(err)
	}
	for name, body := range map[string][]byte{"go.mod": []byte(mod), "main.go": src.Bytes()} {
		if err := os.WriteFile(filepath.Join(dir, name), body, 0o644); err != nil {
			t.Fatal(err)
		}
	}
}

// internalFuncs returns every function and method declared in a non-test
// file under internal/, as "pkg.Func" or "pkg.Type.Method".
func internalFuncs(t *testing.T, root string) []string {
	t.Helper()
	var names []string
	fset := token.NewFileSet()
	err := filepath.WalkDir(filepath.Join(root, "internal"), func(path string, d os.DirEntry, err error) error {
		if err != nil || d.IsDir() || !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return err
		}
		f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		rel, err := filepath.Rel(filepath.Join(root, "internal"), filepath.Dir(path))
		if err != nil {
			return err
		}
		pkg := filepath.ToSlash(rel)
		for _, decl := range f.Decls {
			fn, ok := decl.(*ast.FuncDecl)
			if !ok || fn.Body == nil || fn.Name.Name == "init" || fn.Name.Name == "_" {
				continue
			}
			if fn.Recv == nil {
				names = append(names, pkg+"."+fn.Name.Name)
			} else {
				recv, _ := recvName(fn.Recv.List[0].Type)
				names = append(names, pkg+"."+recv+"."+fn.Name.Name)
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	sort.Strings(names)
	return names
}

// recvName returns the base type name of a method receiver and whether
// the receiver is a pointer.
func recvName(e ast.Expr) (string, bool) {
	ptr := false
	if s, ok := e.(*ast.StarExpr); ok {
		e, ptr = s.X, true
	}
	switch x := e.(type) {
	case *ast.IndexExpr:
		e = x.X
	case *ast.IndexListExpr:
		e = x.X
	}
	return e.(*ast.Ident).Name, ptr
}

// textSymbols returns the text symbols of a binary with pointer
// receivers and type arguments erased, so that "pkg.(*T[int]).M"
// reads "pkg.T.M".
func textSymbols(t *testing.T, bin string) []string {
	t.Helper()
	b, err := exec.Command("go", "tool", "nm", bin).Output()
	if err != nil {
		t.Fatalf("go tool nm %s: %v", bin, err)
	}
	var syms []string
	sc := bufio.NewScanner(bytes.NewReader(b))
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		// "addr type name": a name may hold spaces (generic shapes).
		f := strings.SplitN(strings.TrimSpace(sc.Text()), " ", 3)
		if len(f) < 3 || (f[1] != "T" && f[1] != "t") {
			continue
		}
		syms = append(syms, eraseSymbol(f[2]))
	}
	return syms
}

// eraseSymbol drops every bracketed type argument and the "(*" ")"
// around pointer receivers from a symbol name.
func eraseSymbol(s string) string {
	var b strings.Builder
	depth := 0
	for _, r := range s {
		switch {
		case r == '[':
			depth++
		case r == ']':
			depth--
		case depth > 0:
		default:
			b.WriteRune(r)
		}
	}
	return strings.NewReplacer("(*", "", ")", "").Replace(b.String())
}
