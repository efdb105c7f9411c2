package cosma

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"reflect"
	"regexp"
	"slices"
	"strings"
	"testing"
)

// TestMarkdownLinks verifies every relative link in the user-facing
// markdown (README, the architecture doc, the change log) points at a
// file that exists, so the docs cannot silently rot as files move.
// External (http) and intra-page (#anchor) links are skipped — CI has
// no network.
func TestMarkdownLinks(t *testing.T) {
	docs := []string{"README.md", "docs/ARCHITECTURE.md", "CHANGES.md"}
	linkRE := regexp.MustCompile(`\[[^\]]*\]\(([^)\s]+)\)`)
	for _, doc := range docs {
		data, err := os.ReadFile(doc)
		if err != nil {
			t.Errorf("%s: %v", doc, err)
			continue
		}
		checked := 0
		for _, m := range linkRE.FindAllStringSubmatch(string(data), -1) {
			target := m[1]
			if strings.HasPrefix(target, "http://") || strings.HasPrefix(target, "https://") ||
				strings.HasPrefix(target, "mailto:") || strings.HasPrefix(target, "#") {
				continue
			}
			if i := strings.IndexByte(target, '#'); i >= 0 {
				target = target[:i]
			}
			if target == "" {
				continue
			}
			path := filepath.Join(filepath.Dir(doc), target)
			if _, err := os.Stat(path); err != nil {
				t.Errorf("%s: broken link %q (%v)", doc, m[1], err)
			}
			checked++
		}
		t.Logf("%s: %d relative links checked", doc, checked)
	}
}

// TestReadmeAlgorithmsTableMatchesRegistry parses the first column of
// the README's algorithms table (header "| name | aliases | …") and
// requires it to equal cosma.Algorithms(), in order, so a registered
// algorithm cannot go undocumented and a removed one cannot linger.
func TestReadmeAlgorithmsTableMatchesRegistry(t *testing.T) {
	data, err := os.ReadFile("README.md")
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	inTable := false
	for _, line := range strings.Split(string(data), "\n") {
		if strings.HasPrefix(line, "| name | aliases |") {
			inTable = true
			continue
		}
		if !inTable || strings.HasPrefix(line, "| ---") {
			continue
		}
		if !strings.HasPrefix(line, "|") {
			break
		}
		names = append(names, strings.Trim(strings.Split(line, "|")[1], " `"))
	}
	if want := Algorithms(); !reflect.DeepEqual(names, want) {
		t.Fatalf("README algorithms table lists %v, the registry holds %v", names, want)
	}
}

// TestDocsNameRealTargets keeps the commands the docs tell a reader to
// run runnable: every `make <target>` named in README, the architecture
// doc or the verify skill — in inline code or a fenced block — is a
// .PHONY target of the Makefile, and every cmd/<x> or examples/<x> they
// name is a directory of this repository.
func TestDocsNameRealTargets(t *testing.T) {
	mk, err := os.ReadFile("Makefile")
	if err != nil {
		t.Fatal(err)
	}
	targets := map[string]bool{}
	for _, line := range strings.Split(string(mk), "\n") {
		if rest, ok := strings.CutPrefix(line, ".PHONY:"); ok {
			for _, name := range strings.Fields(rest) {
				targets[name] = true
			}
		}
	}
	if len(targets) == 0 {
		t.Fatal("Makefile declares no .PHONY targets")
	}
	inlineMake := regexp.MustCompile("`make\\s+([a-z0-9][a-z0-9-]*)")
	fencedMake := regexp.MustCompile(`^\s*make\s+([a-z0-9][a-z0-9-]*)`)
	mainDir := regexp.MustCompile(`(?:^|[^\w/.]|\./)((?:cmd|examples)/[a-z0-9_]+)`)
	for _, doc := range []string{"README.md", "docs/ARCHITECTURE.md", ".claude/skills/verify/SKILL.md"} {
		data, err := os.ReadFile(doc)
		if err != nil {
			t.Errorf("%s: %v", doc, err)
			continue
		}
		var named []string // make targets
		var prose strings.Builder
		fenced := false
		for _, line := range strings.Split(string(data), "\n") {
			switch {
			case strings.HasPrefix(strings.TrimSpace(line), "```"):
				fenced = !fenced
			case fenced:
				if m := fencedMake.FindStringSubmatch(line); m != nil {
					named = append(named, m[1])
				}
			default:
				prose.WriteString(line + "\n")
			}
		}
		for _, m := range inlineMake.FindAllStringSubmatch(prose.String(), -1) {
			named = append(named, m[1])
		}
		for _, name := range named {
			if !targets[name] {
				t.Errorf("%s names `make %s`, which is not a .PHONY target of the Makefile", doc, name)
			}
		}
		dirs := 0
		for _, m := range mainDir.FindAllStringSubmatch(string(data), -1) {
			if info, err := os.Stat(m[1]); err != nil || !info.IsDir() {
				t.Errorf("%s names %s, which is not a directory", doc, m[1])
			}
			dirs++
		}
		t.Logf("%s: %d make targets, %d command directories checked", doc, len(named), dirs)
	}
}

// TestDocsNameRealIdentifiers keeps the prose honest about the machine
// layer and the local kernel: every back-ticked `machine.X`, `comm.X`,
// `layout.X`, `wire.X` or `matrix.X` in README or the architecture doc
// is an exported top-level declaration of that package (`pkg.T.M`:
// method M of its type T), and every `Rank.X` a method of machine.Rank —
// so naming a deleted primitive in the docs fails tier-1. Benchmark rows
// (`wire.over_counting`, `matrix.kernel_ms`) are lower-case after the
// dot and are not identifiers.
func TestDocsNameRealIdentifiers(t *testing.T) {
	dirs := map[string]string{
		"machine": "internal/machine", "comm": "internal/comm",
		"layout": "internal/layout", "wire": "internal/machine/wire",
		"matrix": "internal/matrix",
	}
	// decls[pkg] holds "X" for a top-level declaration, "T.M" for a method.
	decls := map[string]map[string]bool{}
	for pkg, dir := range dirs {
		names := map[string]bool{}
		parsed, err := parser.ParseDir(token.NewFileSet(), dir, func(fi os.FileInfo) bool {
			return !strings.HasSuffix(fi.Name(), "_test.go")
		}, parser.SkipObjectResolution)
		if err != nil {
			t.Fatal(err)
		}
		for _, file := range parsed[pkg].Files {
			for _, d := range file.Decls {
				switch d := d.(type) {
				case *ast.FuncDecl:
					name := d.Name.Name
					if d.Recv != nil {
						recv := d.Recv.List[0].Type
						if star, ok := recv.(*ast.StarExpr); ok {
							recv = star.X
						}
						name = recv.(*ast.Ident).Name + "." + name
					}
					names[name] = true
				case *ast.GenDecl:
					for _, spec := range d.Specs {
						switch spec := spec.(type) {
						case *ast.TypeSpec:
							names[spec.Name.Name] = true
						case *ast.ValueSpec:
							for _, id := range spec.Names {
								names[id.Name] = true
							}
						}
					}
				}
			}
		}
		if len(names) == 0 {
			t.Fatalf("%s: no declarations parsed from %s", pkg, dir)
		}
		decls[pkg] = names
	}
	ref := regexp.MustCompile("`(machine|Rank|comm|layout|wire|matrix)\\.([A-Z]\\w*(?:\\.[A-Z]\\w*)?)")
	for _, doc := range []string{"README.md", "docs/ARCHITECTURE.md"} {
		data, err := os.ReadFile(doc)
		if err != nil {
			t.Errorf("%s: %v", doc, err)
			continue
		}
		refs := ref.FindAllStringSubmatch(string(data), -1)
		for _, m := range refs {
			pkg, name := m[1], m[2]
			if pkg == "Rank" {
				pkg, name = "machine", "Rank."+name
			}
			if !decls[pkg][name] {
				t.Errorf("%s names `%s.%s`, which package %s does not declare", doc, m[1], m[2], dirs[pkg])
			}
		}
		t.Logf("%s: %d identifiers checked", doc, len(refs))
	}
}

// TestDocsNameRealTests keeps the docs' pointers to tests live: every
// TestX in code — an inline span or a fenced block — of README, the
// architecture doc or the verify skill is a test function of this
// repository or, as in `go test . -run TestWire`, the prefix of one, so
// deleting or renaming a test the docs cite fails here.
func TestDocsNameRealTests(t *testing.T) {
	testFunc := regexp.MustCompile(`(?m)^func (Test\w+)\(`)
	var tests []string
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() || !strings.HasSuffix(path, "_test.go") {
			return err
		}
		src, err := os.ReadFile(path)
		for _, m := range testFunc.FindAllSubmatch(src, -1) {
			tests = append(tests, string(m[1]))
		}
		return err
	})
	if err != nil || len(tests) == 0 {
		t.Fatalf("%d test functions found (%v)", len(tests), err)
	}
	code := regexp.MustCompile("(?s)```.*?```|`[^`]+`")
	name := regexp.MustCompile(`\bTest[A-Z]\w*`)
	for _, doc := range []string{"README.md", "docs/ARCHITECTURE.md", ".claude/skills/verify/SKILL.md"} {
		data, err := os.ReadFile(doc)
		if err != nil {
			t.Errorf("%s: %v", doc, err)
			continue
		}
		n := 0
		for _, span := range code.FindAllString(string(data), -1) {
			for _, ref := range name.FindAllString(span, -1) {
				if n++; !slices.ContainsFunc(tests, func(fn string) bool { return strings.HasPrefix(fn, ref) }) {
					t.Errorf("%s names `%s`, which is neither a test function of this repository nor the prefix of one", doc, ref)
				}
			}
		}
		t.Logf("%s: %d test names checked", doc, n)
	}
}

// TestDocsNameRealFlags keeps a flag in the docs a flag in the binary:
// every -flag on a command line of cmd/<x> — a fenced line or inline
// code span of README, the architecture doc or the verify skill that
// names `go run ./cmd/<x>`, `cmd/<x>` or the bare command, up to a shell
// comment or pipe — and every -flag anywhere in cmd/<x>/main.go's doc
// comment is defined by a flag.*("name", …) call of that command.
func TestDocsNameRealFlags(t *testing.T) {
	mains, err := filepath.Glob("cmd/*/main.go")
	if err != nil || len(mains) == 0 {
		t.Fatalf("no cmd/*/main.go found (%v)", err)
	}
	flagDef := regexp.MustCompile(`flag\.[A-Z]\w*\("([^"]+)"`)
	dash := regexp.MustCompile(`(?:^|[\s\[])-([a-z][a-z0-9-]*)`)
	check := func(where, cmd, text string, defined map[string]bool) int {
		found := dash.FindAllStringSubmatch(text, -1)
		for _, m := range found {
			if !defined[m[1]] {
				t.Errorf("%s: -%s is not a flag of cmd/%s", where, m[1], cmd)
			}
		}
		return len(found)
	}

	defined := map[string]map[string]bool{} // command → the flags its main.go defines
	var cmds []string
	for _, path := range mains {
		src, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		cmd := filepath.Base(filepath.Dir(path))
		cmds = append(cmds, cmd)
		defined[cmd] = map[string]bool{}
		for _, m := range flagDef.FindAllSubmatch(src, -1) {
			defined[cmd][string(m[1])] = true
		}
		doc, _, _ := strings.Cut(string(src), "\npackage main")
		n := check(path+" doc comment", cmd, strings.ReplaceAll(doc, "//", " "), defined[cmd])
		t.Logf("%s: %d flags defined, %d named in its doc comment", path, len(defined[cmd]), n)
	}

	command := regexp.MustCompile(`(?:^|\s|cmd/)(` + strings.Join(cmds, "|") + `)(?:\s|$)`)
	span := regexp.MustCompile("`([^`]+)`")
	for _, doc := range []string{"README.md", "docs/ARCHITECTURE.md", ".claude/skills/verify/SKILL.md"} {
		data, err := os.ReadFile(doc)
		if err != nil {
			t.Errorf("%s: %v", doc, err)
			continue
		}
		// Command lines: fenced lines (a trailing \ continues one) and
		// inline code spans.
		var lines []string
		var prose strings.Builder
		fenced := false
		for _, line := range strings.Split(strings.ReplaceAll(string(data), "\\\n", " "), "\n") {
			switch {
			case strings.HasPrefix(strings.TrimSpace(line), "```"):
				fenced = !fenced
			case fenced:
				lines = append(lines, line)
			default:
				prose.WriteString(line + " ")
			}
		}
		for _, m := range span.FindAllStringSubmatch(prose.String(), -1) {
			lines = append(lines, m[1])
		}
		n := 0
		for _, line := range lines {
			line, _, _ = strings.Cut(line, " #")
			line, _, _ = strings.Cut(line, " | ")
			if loc := command.FindStringSubmatchIndex(line); loc != nil {
				cmd := line[loc[2]:loc[3]]
				n += check(doc, cmd, line[loc[3]:], defined[cmd])
			}
		}
		t.Logf("%s: %d flags on command lines checked", doc, n)
	}
}
