package esr

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"slices"
	"strings"
	"testing"
)

// checkFiles hold the go test commands the project's checks run: the CI
// workflow's steps and the verify skill's recipes.
var checkFiles = []string{".github/workflows/ci.yml", ".claude/skills/verify/SKILL.md"}

// TestChecksNameExistingTests: every literal Test… or Benchmark… name that a
// go test command in checkFiles selects with -run or -bench is defined in a
// *_test.go file of the packages that command names. go test passes when a
// pattern matches nothing, so a step naming a test that was renamed, or
// never written, stays green while it checks nothing. Nothing is run: the
// commands are parsed, and the test names read with go/parser.
func TestChecksNameExistingTests(t *testing.T) {
	defined := map[string][]string{} // package directory -> test function names
	for _, file := range checkFiles {
		raw, err := os.ReadFile(file)
		if err != nil {
			t.Fatal(err)
		}
		checked := 0
		for _, cmd := range commandsIn(file, string(raw)) {
			for _, gt := range goTests(cmd) {
				checked += len(gt.literals)
				var names []string
				for _, dir := range gt.dirs {
					if _, ok := defined[dir]; !ok {
						defined[dir] = testFuncs(t, dir)
					}
					names = append(names, defined[dir]...)
				}
				for _, lit := range gt.literals {
					if !slices.ContainsFunc(names, regexp.MustCompile(lit).MatchString) {
						t.Errorf("%s: %q selects %s, which no *_test.go in %v defines", file, cmd, lit, gt.dirs)
					}
				}
			}
		}
		// A parser that stopped reading the file would pass it vacuously.
		if checked == 0 {
			t.Errorf("%s: found no go test command that selects a test by name", file)
		}
		t.Logf("%s: %d selected names checked", file, checked)
	}
}

// commandsIn returns the shell text of file that may hold commands: every
// non-comment line of a workflow, and the fenced lines and inline code spans
// (which may wrap across lines) of a Markdown file.
func commandsIn(file, text string) []string {
	var cmds []string
	if !strings.HasSuffix(file, ".md") {
		for _, line := range strings.Split(text, "\n") {
			if line = strings.TrimSpace(line); !strings.HasPrefix(line, "#") {
				cmds = append(cmds, line)
			}
		}
		return cmds
	}
	var prose []string
	fenced := false
	for _, line := range strings.Split(text, "\n") {
		switch {
		case strings.HasPrefix(strings.TrimSpace(line), "```"):
			fenced = !fenced
		case fenced:
			cmds = append(cmds, line)
		default:
			prose = append(prose, line)
		}
	}
	for _, span := range regexp.MustCompile("`([^`]+)`").FindAllStringSubmatch(strings.Join(prose, " "), -1) {
		cmds = append(cmds, span[1])
	}
	return cmds
}

// goTest is one go test invocation: the package directories it names and
// the literal test names its -run and -bench patterns select.
type goTest struct {
	dirs     []string
	literals []string
}

// valueFlags are the go test flags that take a separate value argument.
var valueFlags = map[string]bool{
	"run": true, "bench": true, "skip": true, "list": true, "C": true, "tags": true,
	"cpu": true, "benchtime": true, "count": true, "timeout": true, "o": true,
	"outputdir": true, "cpuprofile": true, "memprofile": true, "blockprofile": true,
	"mutexprofile": true, "coverprofile": true, "p": true, "parallel": true,
}

// literalName matches a pattern alternative, anchors stripped, that names
// one test or benchmark.
var literalName = regexp.MustCompile(`^(Test|Benchmark)\w*$`)

// goTests parses every go test invocation in the shell text cmd.
func goTests(cmd string) []goTest {
	// No pattern or package these files name holds a blank, so a word is a
	// blank-separated field with its quotes removed.
	words := strings.Fields(cmd)
	for i, w := range words {
		words[i] = strings.Trim(w, `'"`)
	}
	var out []goTest
	for i := 0; i+1 < len(words); i++ {
		if words[i] != "go" || words[i+1] != "test" {
			continue
		}
		var gt goTest
		var pkgs, patterns []string
		base := "."
		for j := i + 2; j < len(words); j++ {
			w := words[j]
			if strings.IndexAny(w, "&|;>)") == 0 || strings.HasPrefix(w, "2>") {
				break
			}
			if !strings.HasPrefix(w, "-") {
				if w == "." || strings.HasPrefix(w, "./") {
					pkgs = append(pkgs, w)
				}
				continue
			}
			name, val, hasVal := strings.Cut(strings.TrimLeft(w, "-"), "=")
			if !hasVal && valueFlags[name] && j+1 < len(words) {
				j++
				val = words[j]
			}
			switch name {
			case "C":
				base = val
			case "run":
				// -run matches subtests level by level; the first level names
				// the top-level test.
				val, _, _ = strings.Cut(val, "/")
				patterns = append(patterns, val)
			case "bench":
				patterns = append(patterns, val)
			}
		}
		if len(pkgs) == 0 {
			pkgs = []string{"."}
		}
		for _, p := range pkgs {
			gt.dirs = append(gt.dirs, packageDirs(filepath.Join(base, p))...)
		}
		for _, pat := range patterns {
			for _, alt := range strings.Split(pat, "|") {
				name := strings.TrimSuffix(strings.TrimPrefix(alt, "^"), "$")
				if literalName.MatchString(name) {
					gt.literals = append(gt.literals, alt)
				}
			}
		}
		out = append(out, gt)
	}
	return out
}

// packageDirs expands one package pattern ("./x" or "./x/...") to the
// directories it names.
func packageDirs(pattern string) []string {
	root, recursive := strings.CutSuffix(pattern, "...")
	if !recursive {
		return []string{filepath.Clean(pattern)}
	}
	root = filepath.Clean(root)
	var dirs []string
	filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil || !d.IsDir() {
			return nil
		}
		if n := d.Name(); path != root && (n == "testdata" || strings.HasPrefix(n, ".") || strings.HasPrefix(n, "_")) {
			return filepath.SkipDir
		}
		dirs = append(dirs, path)
		return nil
	})
	return dirs
}

// testFuncs returns the top-level function names declared in dir's
// *_test.go files.
func testFuncs(t *testing.T, dir string) []string {
	t.Helper()
	files, err := filepath.Glob(filepath.Join(dir, "*_test.go"))
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, f := range files {
		af, err := parser.ParseFile(token.NewFileSet(), f, nil, parser.SkipObjectResolution)
		if err != nil {
			t.Fatal(err)
		}
		for _, d := range af.Decls {
			if fd, ok := d.(*ast.FuncDecl); ok && fd.Recv == nil {
				names = append(names, fd.Name.Name)
			}
		}
	}
	return names
}
