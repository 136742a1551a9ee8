//go:build reach

package repro_test

import (
	"bufio"
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"io"
	"io/fs"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

// reachAllowFile lists the declared functions no binary links that stay
// anyway, one per line: the symbol as the gate prints it, then a reason.
const reachAllowFile = "testdata/reach_allow.txt"

// TestReachGate is `make reach`: every declared non-test function of the
// root module must be linked into at least one binary. It builds every main
// package (the bench module's included) with inlining off, reads the
// binaries' symbols with `go tool nm`, and fails on each declared function
// no binary holds unless the allowlist names it. An allowlist entry that a
// binary does link, or that names no declared function, fails too, so the
// list only shrinks.
func TestReachGate(t *testing.T) {
	bin := t.TempDir()
	mains := strings.Fields(goOut(t, ".", "list", "-f", `{{if eq .Name "main"}}{{.ImportPath}}{{end}}`, "./..."))
	if len(mains) == 0 {
		t.Fatal("go list found no main package")
	}
	goOut(t, ".", append([]string{"build", "-gcflags=all=-l", "-o", bin}, mains...)...)
	goOut(t, "bench", "build", "-gcflags=all=-l", "-o", filepath.Join(bin, "bench"), ".")

	// Each binary names its main package's functions main.*; they are
	// recorded under that package's import path.
	linked := map[string]bool{}
	for _, pkg := range append(mains, "repro/bench") {
		exe := filepath.Join(bin, pkg[strings.LastIndex(pkg, "/")+1:])
		for _, line := range strings.Split(goOut(t, ".", "tool", "nm", exe), "\n") {
			typ, sym, ok := parseNMLine(line)
			if !ok || (typ != "T" && typ != "t") {
				continue
			}
			if rest, isMain := strings.CutPrefix(sym, "main."); isMain {
				sym = pkg + "." + rest
			}
			linked[sym] = true
		}
	}

	declared, err := declaredFuncs(".")
	if err != nil {
		t.Fatal(err)
	}
	f, err := os.Open(reachAllowFile)
	if err != nil {
		t.Fatal(err)
	}
	allow, err := readAllowList(f, reachAllowFile)
	f.Close()
	if err != nil {
		t.Fatal(err)
	}

	var unlinked []string
	for sym, pos := range declared {
		if linked[sym] {
			if _, ok := allow[sym]; ok {
				t.Errorf("%s: on %s but linked into a binary; delete the entry", sym, reachAllowFile)
			}
			continue
		}
		if _, ok := allow[sym]; !ok {
			unlinked = append(unlinked, fmt.Sprintf("%s (%s)", sym, pos))
		}
	}
	for sym := range allow {
		if _, ok := declared[sym]; !ok {
			t.Errorf("%s: on %s but no longer declared; delete the entry", sym, reachAllowFile)
		}
	}
	sort.Strings(unlinked)
	for _, u := range unlinked {
		t.Errorf("linked into no binary: %s", u)
	}
	t.Logf("%d declared functions, %d allowlisted, %d binaries", len(declared), len(allow), len(mains)+1)
}

// goOut runs the go command in dir and returns its standard output.
func goOut(t *testing.T, dir string, args ...string) string {
	t.Helper()
	cmd := exec.Command("go", args...)
	cmd.Dir = dir
	cmd.Stderr = os.Stderr
	out, err := cmd.Output()
	if err != nil {
		t.Fatalf("go %s (in %s): %v", strings.Join(args, " "), dir, err)
	}
	return string(out)
}

// parseNMLine splits one line of `go tool nm` output into its type letter
// and its symbol name, type arguments stripped. The address column is
// blank for undefined symbols, and a generic shape name may contain
// spaces, so the name is everything after the type column.
func parseNMLine(line string) (typ, sym string, ok bool) {
	first, rest, ok := strings.Cut(strings.TrimLeft(line, " "), " ")
	if !ok {
		return "", "", false
	}
	if len(first) != 1 { // an address: the type letter comes next
		if first, rest, ok = strings.Cut(rest, " "); !ok || len(first) != 1 {
			return "", "", false
		}
	}
	return first, stripTypeArgs(rest), rest != ""
}

// stripTypeArgs removes every bracketed type-argument list, nested ones
// included, so that (*minHeap[go.shape.…]).pop reads (*minHeap).pop.
func stripTypeArgs(s string) string {
	if !strings.Contains(s, "[") {
		return s
	}
	var b strings.Builder
	depth := 0
	for _, r := range s {
		switch {
		case r == '[':
			depth++
		case r == ']' && depth > 0:
			depth--
		case depth == 0:
			b.WriteRune(r)
		}
	}
	return b.String()
}

// declaredFuncs maps every function and method declared in the module's
// non-test files under root to its position, by the name the linker gives
// it: importpath.Func, importpath.Type.Method or importpath.(*Type).Method.
// The bench module and testdata directories are skipped; init functions
// and blank names have no symbol of their own.
func declaredFuncs(root string) (map[string]string, error) {
	out := map[string]string{}
	fset := token.NewFileSet()
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if path != root && (d.Name() == "bench" || d.Name() == "testdata" || strings.HasPrefix(d.Name(), ".")) {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return nil
		}
		file, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		pkg := "repro"
		if dir := filepath.ToSlash(filepath.Dir(path)); dir != "." {
			pkg += "/" + dir
		}
		for _, decl := range file.Decls {
			fn, ok := decl.(*ast.FuncDecl)
			if !ok || fn.Name.Name == "init" || fn.Name.Name == "_" {
				continue
			}
			name := fn.Name.Name
			if fn.Recv != nil && len(fn.Recv.List) == 1 {
				name = recvName(fn.Recv.List[0].Type) + "." + name
			}
			out[pkg+"."+name] = fset.Position(fn.Pos()).String()
		}
		return nil
	})
	return out, err
}

// recvName renders a receiver type the way symbol names do, without its
// type parameters: T or (*T).
func recvName(e ast.Expr) string {
	star := false
	if s, ok := e.(*ast.StarExpr); ok {
		star, e = true, s.X
	}
	switch x := e.(type) {
	case *ast.IndexExpr:
		e = x.X
	case *ast.IndexListExpr:
		e = x.X
	}
	name := e.(*ast.Ident).Name
	if star {
		return "(*" + name + ")"
	}
	return name
}

// readAllowList parses the allowlist: blank lines and lines starting with
// # are skipped; every other line is a symbol, white space, and a
// non-empty reason. A repeated symbol is an error.
func readAllowList(r io.Reader, name string) (map[string]string, error) {
	allow := map[string]string{}
	sc := bufio.NewScanner(r)
	for n := 1; sc.Scan(); n++ {
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		sym, reason := line, ""
		if i := strings.IndexAny(line, " \t"); i >= 0 {
			sym, reason = line[:i], strings.TrimSpace(line[i:])
		}
		if reason == "" {
			return nil, fmt.Errorf("%s:%d: %s has no reason", name, n, sym)
		}
		if _, dup := allow[sym]; dup {
			return nil, fmt.Errorf("%s:%d: %s listed twice", name, n, sym)
		}
		allow[sym] = reason
	}
	return allow, sc.Err()
}

func TestReachParseNM(t *testing.T) {
	for _, c := range []struct {
		line, typ, sym string
		ok             bool
	}{
		{"  4a3b20 T repro/internal/core.(*Session).Push", "T", "repro/internal/core.(*Session).Push", true},
		{"  559360 T repro/internal/core.(*minHeap[go.shape.struct { repro/internal/core.at time.Duration; repro/internal/core.c *repro/internal/core.sessComponent },go.shape.*repro/internal/core.deadline]).pop",
			"T", "repro/internal/core.(*minHeap).pop", true},
		{"  5a0000 t repro/internal/x.Map[go.shape.int,go.shape.[]string]", "t", "repro/internal/x.Map", true},
		{"  916500 R repro/internal/core..dict.minHeap[repro/internal/core.deadline,*repro/internal/core.deadline]",
			"R", "repro/internal/core..dict.minHeap", true},
		{"         U abort", "U", "abort", true},
		{"  780d60 T main.flagSourceName", "T", "main.flagSourceName", true},
		{"", "", "", false},
		{"  4a3b20", "", "", false},
		{"  4a3b20 TT name", "", "", false},
	} {
		typ, sym, ok := parseNMLine(c.line)
		if typ != c.typ || sym != c.sym || ok != c.ok {
			t.Errorf("parseNMLine(%q) = %q, %q, %v; want %q, %q, %v", c.line, typ, sym, ok, c.typ, c.sym, c.ok)
		}
	}
}

func TestReachReadAllow(t *testing.T) {
	list := "# comment\n\n" +
		"repro/internal/flow.(*Incremental).Sizes   core's tests read it\n" +
		"\trepro/x.F\ttab-separated reason\n"
	allow, err := readAllowList(strings.NewReader(list), "list")
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]string{
		"repro/internal/flow.(*Incremental).Sizes": "core's tests read it",
		"repro/x.F": "tab-separated reason",
	}
	if len(allow) != len(want) {
		t.Fatalf("read %v, want %v", allow, want)
	}
	for sym, reason := range want {
		if allow[sym] != reason {
			t.Errorf("%s: reason %q, want %q", sym, allow[sym], reason)
		}
	}
	for _, bad := range []string{"repro/x.F\n", "repro/x.F   \n", "repro/x.F a\nrepro/x.F b\n"} {
		if _, err := readAllowList(strings.NewReader(bad), "list"); err == nil {
			t.Errorf("readAllowList(%q) accepted", bad)
		}
	}
}
