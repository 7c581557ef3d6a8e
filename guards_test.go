package highradix_test

import (
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path"
	"path/filepath"
	"regexp"
	"slices"
	"sort"
	"strconv"
	"strings"
	"testing"

	"highradix/internal/experiments"
)

// The structural guards keep removed designs removed: each of the
// paper's structures (the local-global arbiter, the crosspoint column,
// the driver and its source bank, the timed queue, the cache key) exists
// once, and a second copy of one fails here, in go test ./..., with the file
// and line that holds it.

// A guard is one check: a line pattern over the .go files under its
// roots, optionally with a syntax-tree form of the same rule for a
// declaration a line pattern can miss (split across lines, another
// receiver name). A line either form matches is a hit, and a guard
// fails unless it finds exactly want hits.
type guard struct {
	roots   []string // directories or files, relative to the repo root
	tests   bool     // _test.go files are in scope
	except  []string // files, or directories ending in "/", left out
	pattern string   // empty: the syntax-tree form alone
	decls   func(*ast.File) []ast.Node
	want    int
	msg     string
}

// guardSteps groups the guards by the rule they keep; each step is one
// subtest.
var guardSteps = []struct {
	name   string
	guards []guard
}{
	{"One arbiter per structure", []guard{{
		roots:   []string{"internal", "cmd"},
		pattern: `type LocalGlobal|ArbitrateWord|\[\]\*arb\.RoundRobin|NewRing`,
		msg:     "a second implementation of one arbiter or topology (see DESIGN.md, Arbiters)",
	}}},
	{"One column stage", []guard{{
		roots:   []string{"internal/router"},
		except:  []string{"internal/router/column.go"},
		pattern: `xpOcc|xpHead|subOutOcc|subOutHead|colRows|func \(r \*(buffered|hierarchical)\) (outputStage|columnStage|inputStage)`,
		decls:   methods(`^(buffered|hierarchical)$`, `^(outputStage|columnStage|inputStage)$`),
		msg:     "a second column or row stage beside internal/router/column.go (see DESIGN.md, Router memory layout)",
	}, {
		roots:   []string{"internal/router/sharedxp.go"},
		pattern: `MakeFIFOBank|core\.(MakeLedger|MakeCreditBus)|arb\.NewOutputArbiter`,
		msg:     "sharedxp builds a second crosspoint grid beside the buffered crossbar it embeds (see DESIGN.md, Router memory layout)",
	}}},
	{"One buffer grid", []guard{{
		roots:   []string{"internal"},
		tests:   true,
		pattern: `\bVOQBank\b`,
		msg:     "a VOQ bank beside column.go's grid, which stores the VOQ router's queues (see DESIGN.md, Router memory layout)",
	}, {
		roots:   []string{"internal/router/voq.go"},
		pattern: `MakeFIFOBank|core\.MakeLedger|MakeVOQBank`,
		msg:     "voq builds its own queues or ledger beside the grid it reads (see DESIGN.md, Router memory layout)",
	}}},
	{"One storage type", []guard{{
		roots:   []string{"internal/router"},
		except:  []string{"internal/router/core/fifo.go"},
		pattern: `make\(\[\]\*?flit\.Flit, *[^0 ]|NewQueue\[\*?flit\.Flit\]`,
		msg:     "flit storage allocated outside core.FIFOBank, which a router's Storage() would not count (see DESIGN.md, Area in storage bits)",
	}}},
	{"One device contract", []guard{{
		roots:   []string{"."},
		pattern: `Quiescent\(\)|ExactInFlight|Traits\{|Plant\{[^}]*Dense:`,
		decls:   literalKeys("Plant", "Dense"),
		msg:     "a second wake-up answer, an inexact InFlight or a second dense flag (see DESIGN.md, Quiescence & time advance)",
	}}},
	{"One driver", []guard{{
		roots:   []string{"internal", "cmd"},
		except:  []string{"internal/drive/"},
		pattern: `measEnd|measStart|MeasEnd|MeasStart|maxCycles`,
		msg:     "phase arithmetic outside internal/drive (see DESIGN.md, The driver)",
	}}},
	{"One source bank", []guard{{
		roots:   []string{"internal", "cmd"},
		except:  []string{"internal/drive/"},
		pattern: `injFree`,
		msg:     "a second injection channel outside internal/drive (see DESIGN.md, The driver)",
	}}},
	{"Draws are run ahead", []guard{{
		roots:   []string{"internal/drive"},
		pattern: `\.Bernoulli\(`,
		msg:     "a per-cycle Bernoulli draw under internal/drive (see DESIGN.md, Event-driven core)",
	}}},
	{"One timed queue", []guard{{
		roots:   []string{"internal/router", "internal/network", "cmd"},
		tests:   true,
		pattern: `DelayLine|% ?int64\(len\(`,
		msg:     "a second timed queue beside sim.Calendar (see DESIGN.md, Quiescence & time advance)",
	}, {
		roots:   []string{"internal/sim/wheel.go"},
		pattern: `\[\]\[\]|"math/bits"`,
		msg:     "sim.Wheel keeps buckets of its own instead of viewing a sim.Calendar (see DESIGN.md, Event-driven core: One schedule)",
	}}},
	{"One table encoding", []guard{{
		roots:   []string{"internal/stats"},
		pattern: `"encoding/binary"`,
		msg:     "a second table encoding beside Table.JSON (see DESIGN.md, Result cache & figure service: One cache level)",
	}}},
	{"One gate type", []guard{{
		roots:   []string{"."},
		tests:   true,
		pattern: `type [Gg]ate struct`,
		decls:   structTypes(`^[Gg]ate$`),
		want:    1,
		msg:     "a second gate type beside drive.Gate (see DESIGN.md, The driver)",
	}}},
	{"One schedule", []guard{{
		roots:   []string{"internal", "cmd"},
		except:  []string{"internal/sim/"},
		pattern: `sim\.Wheel|NewWheel\(|NewGapWheel`,
		msg:     "a calendar-queue wheel outside internal/sim (see DESIGN.md, Event-driven core: One schedule)",
	}}},
	{"Points only in the store", []guard{{
		roots:   []string{"internal", "cmd", "examples", "highradix.go"},
		except:  []string{"internal/cache/", "internal/sweep/cached.go"},
		pattern: `\.GetOrCompute\(|\.Put\([^()]*,`,
		decls:   storeCalls,
		msg:     "a store read-through or write outside sweep.RunCached; the store holds simulation points only (see DESIGN.md, Result cache)",
	}}},
	{"One key walker", []guard{{
		roots:   []string{"internal", "cmd"},
		except:  []string{"internal/cache/"},
		pattern: `cache\.NewKey\(|\) Canonical\(\) string`,
		msg:     "a hand-written cache key outside internal/cache (see DESIGN.md, Result cache: Keys)",
	}}},
	{"One latency model", []guard{{
		roots:   []string{"internal/network"},
		pattern: `RouterDelay|CreditDelay|math\.Log2`,
		msg:     "a timing knob or a second statement of Equation (2) in cycles beside analytic.Cycles (see DESIGN.md, Topologies & sharded synchronization)",
	}}},
	{"Events only for an observer", []guard{{
		roots:  []string{"internal/router"},
		except: []string{"internal/router/core/event.go"},
		decls:  unguardedEvents,
		msg:    "an Event built before the observer's nil test: a run without an observer would pay for it (use core.Obs.Emit or Credit; see DESIGN.md, Invariant checker)",
	}}},
	{"One checker state", []guard{{
		roots:   []string{"internal/check"},
		pattern: `type (flow|NetAuditor|Options|Stats) struct`,
		msg:     "a second layer of checker state, a checker option, or counters only tests read (see DESIGN.md, Invariant checker)",
	}}},
	{"One injection discipline on the user surface", []guard{{
		roots:   []string{"internal", "cmd", "examples", "highradix.go"},
		pattern: `InjModeByName`,
		msg:     "a parser for an injection-mode flag: gap sampling is a library mode no command sets (see DESIGN.md, Event-driven core)",
	}, {
		roots:   []string{"cmd"},
		pattern: `"inj"`,
		msg:     "an -inj flag: every command runs the paper's per-cycle draws (see DESIGN.md, Event-driven core)",
	}, {
		roots: []string{"internal/experiments", "internal/network"},
		decls: fieldsNamed("Injection"),
		msg:   "an Injection field in the figure or network code: every figure and every network run draws the paper's per-cycle variates (see DESIGN.md, Event-driven core)",
	}}},
	{"One figure shape", []guard{{
		roots:   []string{"internal/experiments"},
		pattern: `func (Fig(9|11|13|14|17[abc]|18)|Abl[A-Za-z]+|RadixScale|FigAlloc|TableT1|RadixSweep|Fig19|FigTopo)\(`,
		msg:     "a simulated figure written as its own generator function: it is a latencyFig, satGrid or netFig value run by that type's gen (see DESIGN.md, Per-experiment index)",
	}}},
	{"One mail stream", []guard{{
		roots: []string{"internal/network"},
		tests: true,
		decls: fieldsNamed("Injected"),
		msg:   "a second flit stream on Outbox: an engine mails injected and granted flits alike in Flits (see DESIGN.md, Topologies & sharded synchronization)",
	}, {
		roots:   []string{"internal/network"},
		tests:   true,
		pattern: `NewExchange`,
		msg:     "an exchange stepped from outside the runner: mail has no order for a test to read (see DESIGN.md, Topologies & sharded synchronization)",
	}, {
		roots:   []string{"internal/network"},
		tests:   true,
		pattern: `sort\.(Slice|SliceStable|Sort|Stable)\(|slices\.Sort(Stable)?Func\(`,
		decls:   comparators("Arrival"),
		msg:     "a sort or a comparator over Arrival mail: a cycle's arrivals land the same in any order, so nothing in the network orders them (see DESIGN.md, Topologies & sharded synchronization)",
	}}},
	{"Records replay in order", []guard{{
		roots:   []string{"internal/network"},
		pattern: `\bmerge\b[\[(]`,
		decls:   comparators("delivRec", "injRec"),
		msg:     "a merge or a comparator over shard records: each worker's terminals precede the next worker's, so replaying the workers in index order is the serial world's order (see DESIGN.md, Topologies & sharded synchronization)",
	}}},
	{"One request line", []guard{{
		roots:   []string{"internal"},
		tests:   true,
		pattern: `NextIssuable|MarkOutstanding|ClearOutstanding|\bissuable\b`,
		msg:     "request-line state in the shared input bank: core.InputBank holds no allocation policy, and baseline keeps its outstanding inputs itself (see DESIGN.md, Issuable inputs)",
	}, {
		roots:   []string{"internal/router"},
		tests:   true,
		pattern: `blRequest`,
		msg:     "a request record copied onto baseline's wires or pending lists: an input's request lives once, in its blInput, and the wires carry input indices (see DESIGN.md, Issuable inputs)",
	}}},
	{"One switch port", []guard{{
		roots:   []string{"internal/router"},
		except:  []string{"internal/router/core/", "internal/router/hierarchical.go"},
		pattern: `NewSerializerBank\(`,
		msg:     "a router building its own port serializers: a router's input and output ports are core.Base's InPort and OutPort (see DESIGN.md, Layering)",
	}, {
		roots:   []string{"internal/router/hierarchical.go"},
		pattern: `NewSerializerBank\(`,
		want:    2,
		msg:     "the hierarchical crossbar builds serializers only for its subswitch ports; its router ports are core.Base's (see DESIGN.md, Layering)",
	}, {
		roots:   []string{"internal/router"},
		except:  []string{"internal/router/core/"},
		pattern: `NewRotorBank\(`,
		want:    3,
		msg:     "a VC rotor beside voq's per-output VC pick, the column stage's per-buffer VC arbiters and the subswitch inputs' arbiters: each input's VC round robin is core.Base's InVC (see DESIGN.md, Layering)",
	}}},
}

func TestStructuralGuards(t *testing.T) {
	for _, step := range guardSteps {
		t.Run(step.name, func(t *testing.T) {
			for _, g := range step.guards {
				hits, err := g.hits()
				if err != nil {
					t.Fatal(err)
				}
				if len(hits) != g.want {
					t.Errorf("%d matching lines, want %d:\n%s\n%s", len(hits), g.want, strings.Join(hits, "\n"), g.msg)
				}
			}
		})
	}
	for _, step := range docSteps {
		t.Run(step.name, func(t *testing.T) {
			hits, err := step.hits()
			if err != nil {
				t.Fatal(err)
			}
			if len(hits) > 0 {
				t.Errorf("%d hits, want 0:\n%s\n%s", len(hits), strings.Join(hits, "\n"), step.msg)
			}
		})
	}
}

// hits returns every line in the guard's scope that either form
// matches, as "file:line: text", in file and line order.
func (g guard) hits() ([]string, error) {
	var re *regexp.Regexp
	if g.pattern != "" {
		re = regexp.MustCompile(g.pattern)
	}
	var hits []string
	for _, root := range g.roots {
		err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
			if err != nil || d.IsDir() || !g.inScope(filepath.ToSlash(path)) {
				return err
			}
			src, err := os.ReadFile(path)
			if err != nil {
				return err
			}
			lines := strings.Split(string(src), "\n")
			matched := map[int]bool{}
			for i, l := range lines {
				if re != nil && re.MatchString(l) {
					matched[i+1] = true
				}
			}
			if g.decls != nil {
				fset := token.NewFileSet()
				f, err := parser.ParseFile(fset, path, src, parser.SkipObjectResolution)
				if err != nil {
					return err
				}
				for _, n := range g.decls(f) {
					matched[fset.Position(n.Pos()).Line] = true
				}
			}
			var nums []int
			for n := range matched {
				nums = append(nums, n)
			}
			sort.Ints(nums)
			for _, n := range nums {
				hits = append(hits, fmt.Sprintf("%s:%d: %s", filepath.ToSlash(path), n, strings.TrimSpace(lines[n-1])))
			}
			return nil
		})
		if err != nil {
			return nil, err
		}
	}
	return hits, nil
}

func (g guard) inScope(path string) bool {
	if !strings.HasSuffix(path, ".go") || !g.tests && strings.HasSuffix(path, "_test.go") {
		return false
	}
	for _, e := range g.except {
		if path == e || strings.HasSuffix(e, "/") && strings.HasPrefix(path, e) {
			return false
		}
	}
	return true
}

// methods matches method declarations whose receiver type (pointer or
// not) and name match the two patterns, whatever the receiver's name.
func methods(recv, name string) func(*ast.File) []ast.Node {
	recvRe, nameRe := regexp.MustCompile(recv), regexp.MustCompile(name)
	return func(f *ast.File) []ast.Node {
		var out []ast.Node
		for _, d := range f.Decls {
			fn, ok := d.(*ast.FuncDecl)
			if !ok || fn.Recv == nil || !nameRe.MatchString(fn.Name.Name) {
				continue
			}
			typ := fn.Recv.List[0].Type
			if star, ok := typ.(*ast.StarExpr); ok {
				typ = star.X
			}
			if id, ok := typ.(*ast.Ident); ok && recvRe.MatchString(id.Name) {
				out = append(out, fn)
			}
		}
		return out
	}
}

// literalKeys matches the key of a composite literal of the named type
// (bare or package-qualified) however the literal is laid out over lines.
func literalKeys(typ, key string) func(*ast.File) []ast.Node {
	return func(f *ast.File) []ast.Node {
		var out []ast.Node
		ast.Inspect(f, func(n ast.Node) bool {
			lit, ok := n.(*ast.CompositeLit)
			if !ok || typeName(lit.Type) != typ {
				return true
			}
			for _, e := range lit.Elts {
				if kv, ok := e.(*ast.KeyValueExpr); ok {
					if id, ok := kv.Key.(*ast.Ident); ok && id.Name == key {
						out = append(out, kv)
					}
				}
			}
			return true
		})
		return out
	}
}

func typeName(e ast.Expr) string {
	switch e := e.(type) {
	case *ast.Ident:
		return e.Name
	case *ast.SelectorExpr:
		return e.Sel.Name
	}
	return ""
}

// structTypes matches struct type declarations whose name matches, in a
// grouped type block too.
func structTypes(name string) func(*ast.File) []ast.Node {
	re := regexp.MustCompile(name)
	return func(f *ast.File) []ast.Node {
		var out []ast.Node
		ast.Inspect(f, func(n ast.Node) bool {
			if ts, ok := n.(*ast.TypeSpec); ok && re.MatchString(ts.Name.Name) {
				if _, ok := ts.Type.(*ast.StructType); ok {
					out = append(out, ts)
				}
			}
			return true
		})
		return out
	}
}

// fieldsNamed matches struct field declarations of the given name, in
// any struct type of the file.
func fieldsNamed(name string) func(*ast.File) []ast.Node {
	return func(f *ast.File) []ast.Node {
		var out []ast.Node
		ast.Inspect(f, func(n ast.Node) bool {
			if st, ok := n.(*ast.StructType); ok {
				for _, field := range st.Fields.List {
					for _, id := range field.Names {
						if id.Name == name {
							out = append(out, id)
						}
					}
				}
			}
			return true
		})
		return out
	}
}

// comparators matches a function, declared or literal, that takes two
// values of one of the named types (bare, package-qualified or by
// pointer): the shape of a comparator for slices.SortFunc and its kin.
func comparators(types ...string) func(*ast.File) []ast.Node {
	return func(f *ast.File) []ast.Node {
		var out []ast.Node
		ast.Inspect(f, func(n ast.Node) bool {
			ft, ok := n.(*ast.FuncType)
			if !ok || ft.Params == nil {
				return true
			}
			seen := map[string]int{}
			for _, p := range ft.Params.List {
				typ := p.Type
				if star, ok := typ.(*ast.StarExpr); ok {
					typ = star.X
				}
				seen[typeName(typ)] += max(len(p.Names), 1)
			}
			for _, t := range types {
				if seen[t] >= 2 {
					out = append(out, ft)
					break
				}
			}
			return true
		})
		return out
	}
}

// unguardedEvents matches an Event composite literal (bare or
// package-qualified) outside the body of every if statement whose
// condition tests something against nil.
func unguardedEvents(f *ast.File) []ast.Node {
	var guarded [][2]token.Pos
	var lits []ast.Node
	ast.Inspect(f, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.IfStmt:
			if testsNil(n.Cond) {
				guarded = append(guarded, [2]token.Pos{n.Body.Pos(), n.Body.End()})
			}
		case *ast.CompositeLit:
			if typeName(n.Type) == "Event" {
				lits = append(lits, n)
			}
		}
		return true
	})
	var out []ast.Node
	for _, lit := range lits {
		in := false
		for _, b := range guarded {
			in = in || b[0] <= lit.Pos() && lit.End() <= b[1]
		}
		if !in {
			out = append(out, lit)
		}
	}
	return out
}

// testsNil reports whether cond compares anything with != nil.
func testsNil(cond ast.Expr) bool {
	found := false
	ast.Inspect(cond, func(n ast.Node) bool {
		if b, ok := n.(*ast.BinaryExpr); ok && b.Op == token.NEQ {
			for _, side := range []ast.Expr{b.X, b.Y} {
				if id, ok := side.(*ast.Ident); ok && id.Name == "nil" {
					found = true
				}
			}
		}
		return !found
	})
	return found
}

// storeCalls matches calls of a GetOrCompute method, and of a Put method
// with two arguments (a key and a payload), however the call is laid
// out over lines.
func storeCalls(f *ast.File) []ast.Node {
	var out []ast.Node
	ast.Inspect(f, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		if sel, ok := call.Fun.(*ast.SelectorExpr); ok &&
			(sel.Sel.Name == "GetOrCompute" || sel.Sel.Name == "Put" && len(call.Args) == 2) {
			out = append(out, call)
		}
		return true
	})
	return out
}

// docSteps keep the documents to the code: what README.md,
// EXPERIMENTS.md, DESIGN.md and the verify skill tell a reader to run
// must exist, and the verdicts EXPERIMENTS.md quotes must be the ones
// the Full run prints. Each hit is "file:line: what is wrong".
var docSteps = []struct {
	name string
	hits func() ([]string, error)
	msg  string
}{
	{"Docs name what exists", docHits,
		"the docs name a command, flag, package, file, test or figure that does not exist: mend the doc (history belongs in CHANGES.md)"},
	{"Verdicts match the Full run", verdictHits,
		"EXPERIMENTS.md's verdict block is not the == Claims table that closes experiments_full.txt: copy it from there"},
}

var docFiles = []string{"README.md", "EXPERIMENTS.md", "DESIGN.md", ".claude/skills/verify/SKILL.md"}

// goTestFlags are the go command's own test and build flags; the flags
// test files define are added to them.
const goTestFlags = "bench benchmem benchtime blockprofile c count cover covermode coverpkg coverprofile cpu cpuprofile " +
	"failfast fullpath fuzz fuzztime gcflags json ldflags list memprofile mutexprofile o outputdir p parallel race run " +
	"short shuffle skip tags timeout trace v vet"

var (
	codeSpan  = regexp.MustCompile("`([^`]+)`")
	hrCommand = regexp.MustCompile(`^(hr[a-z]+)(-[a-z]+)?$`)
	flagWord  = regexp.MustCompile(`^--?([A-Za-z][A-Za-z0-9_.-]*)(=|$)`)
	assign    = regexp.MustCompile(`^[A-Za-z_][A-Za-z0-9_]*=`)
	testName  = regexp.MustCompile(`\b(Test|Fuzz|Benchmark)[A-Z0-9_][A-Za-z0-9_]*`)
	expName   = regexp.MustCompile(`(-exp[ =]|/figures/)([a-z][a-z0-9_]*)`)
	repoPath  = regexp.MustCompile(`\b(cmd|examples|internal|bench)/[A-Za-z0-9_./-]*[A-Za-z0-9_]`)
)

// repoNames is what the docs may name, read from the code: the flags of
// each main package (by directory: cmd/hrsim, examples/closnetwork,
// bench) and of go test, every test function, and every figure.
type repoNames struct {
	flags   map[string]map[string]bool
	anyFlag map[string]bool
	tests   []string
	figures map[string]bool
}

func readRepoNames() (*repoNames, error) {
	n := &repoNames{flags: map[string]map[string]bool{"go test": {}}, anyFlag: map[string]bool{}, figures: map[string]bool{"all": true}}
	for _, f := range strings.Fields(goTestFlags) {
		n.flags["go test"][f] = true
	}
	for _, e := range experiments.Registry {
		n.figures[e.Name] = true
	}
	err := filepath.WalkDir(".", func(p string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() && p != "." && (strings.HasPrefix(d.Name(), ".") || d.Name() == "testdata") {
			return filepath.SkipDir
		}
		p = filepath.ToSlash(p)
		dir := path.Dir(p)
		test := strings.HasSuffix(p, "_test.go")
		main := path.Base(p) == "main.go" && (path.Dir(dir) == "cmd" || path.Dir(dir) == "examples" || dir == "bench")
		if !test && !main {
			return nil
		}
		f, err := parser.ParseFile(token.NewFileSet(), p, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		set := "go test"
		if main {
			set = dir
			n.flags[dir] = map[string]bool{}
		}
		for _, name := range flagDefs(f) {
			n.flags[set][name] = true
		}
		for _, d := range f.Decls {
			if fn, ok := d.(*ast.FuncDecl); ok && test && fn.Recv == nil && testName.MatchString(fn.Name.Name) {
				n.tests = append(n.tests, fn.Name.Name)
			}
		}
		return nil
	})
	for _, set := range n.flags {
		for f := range set {
			n.anyFlag[f] = true
		}
	}
	return n, err
}

// flagDefs returns the names of the flags a file defines: the first
// argument of flag.Int, fs.String and their kin, the second of their
// …Var forms, whenever it is a string literal.
func flagDefs(f *ast.File) []string {
	kinds := map[string]bool{"Bool": true, "Int": true, "Int64": true, "Uint": true, "Uint64": true, "String": true,
		"Float64": true, "Duration": true}
	var out []string
	ast.Inspect(f, func(nd ast.Node) bool {
		call, ok := nd.(*ast.CallExpr)
		if !ok {
			return true
		}
		sel, ok := call.Fun.(*ast.SelectorExpr)
		if !ok {
			return true
		}
		if _, ok := sel.X.(*ast.Ident); !ok {
			return true
		}
		kind, arg := strings.CutSuffix(sel.Sel.Name, "Var")
		i := 0
		if arg {
			i = 1
		}
		if !kinds[kind] || len(call.Args) <= i {
			return true
		}
		if lit, ok := call.Args[i].(*ast.BasicLit); ok && lit.Kind == token.STRING {
			if name, err := strconv.Unquote(lit.Value); err == nil {
				out = append(out, name)
			}
		}
		return true
	})
	return out
}

// docHits reads every doc's code and reports each name in it that the
// repository does not have.
func docHits() ([]string, error) {
	n, err := readRepoNames()
	if err != nil {
		return nil, err
	}
	var hits []string
	for _, file := range docFiles {
		src, err := os.ReadFile(file)
		if err != nil {
			return nil, err
		}
		for _, c := range codeOf(string(src)) {
			for _, p := range n.check(c.text) {
				hits = append(hits, fmt.Sprintf("%s:%d: `%s`: %s", file, c.line, c.text, p))
			}
		}
	}
	return hits, nil
}

type docCode struct {
	line int
	text string
}

// codeOf returns what a Markdown document shows as code, with the line
// each piece starts on: every line of a fenced block and every code span
// of a paragraph, its line breaks read as spaces.
func codeOf(doc string) []docCode {
	var out []docCode
	var para []string
	paraLine, fenced := 0, false
	flush := func() {
		text := strings.Join(para, "\n")
		for _, m := range codeSpan.FindAllStringSubmatchIndex(text, -1) {
			out = append(out, docCode{paraLine + strings.Count(text[:m[0]], "\n"), strings.ReplaceAll(text[m[2]:m[3]], "\n", " ")})
		}
		para = nil
	}
	for i, l := range strings.Split(doc, "\n") {
		switch {
		case strings.HasPrefix(strings.TrimSpace(l), "```"):
			flush()
			fenced = !fenced
		case fenced:
			out = append(out, docCode{i + 1, l})
		case strings.TrimSpace(l) == "":
			flush()
		default:
			if para == nil {
				paraLine = i + 1
			}
			para = append(para, l)
		}
	}
	flush()
	return out
}

// check returns what is wrong with one piece of code: a path that does
// not exist, a command or flag no program defines, a test name no test
// function has, or a figure the registry does not hold.
func (n *repoNames) check(code string) []string {
	var out []string
	rest := code
	for _, words := range shellCommands(code) {
		out = append(out, n.checkCommand(words)...)
		for i, w := range words {
			flag, val, ok := strings.Cut(w, "=")
			if !ok && i+1 < len(words) {
				val = words[i+1]
			}
			if flag == "-run" || flag == "-bench" {
				out = append(out, n.checkPattern(val)...)
				rest = strings.ReplaceAll(rest, val, "")
			}
		}
	}
	for _, name := range testName.FindAllString(rest, -1) {
		if !slices.Contains(n.tests, name) {
			out = append(out, fmt.Sprintf("no test function %s", name))
		}
	}
	for _, m := range expName.FindAllStringSubmatch(code, -1) {
		if !n.figures[m[2]] {
			out = append(out, fmt.Sprintf("no experiment %q in experiments.Registry", m[2]))
		}
	}
	for _, p := range repoPath.FindAllString(code, -1) {
		if _, err := os.Stat(strings.TrimSuffix(p, "/...")); err != nil {
			out = append(out, fmt.Sprintf("no file or directory %s", p))
		}
	}
	return out
}

// checkPattern holds a -run or -bench pattern to go test's rule: split
// into alternatives at unbracketed bars and each alternative into levels
// at unbracketed slashes, an alternative's top level must match a test
// function as a regexp; a test name below the top level is one go test
// never runs.
func (n *repoNames) checkPattern(pat string) []string {
	var out []string
	for _, levels := range splitPattern(pat) {
		re, err := regexp.Compile(levels[0])
		if err != nil {
			return []string{fmt.Sprintf("pattern %q: %v", pat, err)}
		}
		if !slices.ContainsFunc(n.tests, re.MatchString) {
			out = append(out, fmt.Sprintf("pattern %q matches no test function", levels[0]))
		}
		for _, name := range testName.FindAllString(strings.Join(levels[1:], "/"), -1) {
			out = append(out, fmt.Sprintf("%s is below the top level of pattern %q: go test never runs it", name, pat))
		}
	}
	return out
}

// splitPattern splits a go test pattern the way the testing package
// does: at each | and then each / that is not escaped or inside
// brackets or parentheses.
func splitPattern(pat string) [][]string {
	var alts [][]string
	var levels []string
	esc, class, paren, from := false, false, 0, 0
	for i, r := range pat {
		switch {
		case esc:
			esc = false
		case r == '\\':
			esc = true
		case class:
			class = r != ']'
		case r == '[':
			class = true
		case r == '(':
			paren++
		case r == ')':
			paren--
		case paren == 0 && (r == '/' || r == '|'):
			levels = append(levels, pat[from:i])
			from = i + 1
			if r == '|' {
				alts = append(alts, levels)
				levels = nil
			}
		}
	}
	return append(alts, append(levels, pat[from:]))
}

// checkCommand checks one simple command's words: an hr… command must
// be a directory under cmd, and each command's flags must be ones it
// defines; a flag with no command before it must be one some command
// or go test defines.
func (n *repoNames) checkCommand(words []string) []string {
	if len(words) == 0 {
		return nil
	}
	var set map[string]bool
	var who string
	args := words[1:]
	switch m := hrCommand.FindStringSubmatch(path.Base(words[0])); {
	case m != nil:
		who = "cmd/" + m[1]
		if set = n.flags[who]; set == nil {
			return []string{fmt.Sprintf("no command %s (no %s/main.go)", m[1], who)}
		}
	case words[0] == "go" && len(words) > 1 && words[1] == "test":
		who, set, args = "go test", n.flags["go test"], words[2:]
	case words[0] == "go" && len(words) > 2 && words[1] == "run":
		who, set, args = path.Clean(words[2]), n.flags[path.Clean(words[2])], words[3:]
	case strings.HasPrefix(words[0], "-"):
		who, set, args = "any command", n.anyFlag, words
	}
	var out []string
	for _, a := range args {
		if m := flagWord.FindStringSubmatch(a); m != nil && set != nil && !set[m[1]] && m[1] != "h" && m[1] != "help" {
			out = append(out, fmt.Sprintf("%s defines no flag -%s", who, m[1]))
		}
	}
	return out
}

// shellCommands splits a line of shell into the words of its simple
// commands: quotes are removed, a # comment and leading variable
// assignments are dropped, and ;, &&, ||, | and & end a command.
func shellCommands(line string) [][]string {
	var words []string
	var w strings.Builder
	in, quote := false, rune(0)
	end := func() {
		if in {
			words = append(words, w.String())
			w.Reset()
			in = false
		}
	}
	for _, r := range line {
		switch {
		case quote != 0 && r == quote:
			quote = 0
		case quote != 0:
			w.WriteRune(r)
		case r == '\'' || r == '"':
			quote, in = r, true
		case r == ' ' || r == '\t':
			end()
		default:
			w.WriteRune(r)
			in = true
		}
	}
	end()
	var cmds [][]string
	var cur []string
	for _, word := range words {
		if strings.HasPrefix(word, "#") {
			break
		}
		word, sep := strings.CutSuffix(word, ";")
		if word == "&&" || word == "||" || word == "|" || word == "&" {
			word, sep = "", true
		}
		if word != "" && (len(cur) > 0 || !assign.MatchString(word)) {
			cur = append(cur, word)
		}
		if sep {
			cmds = append(cmds, cur)
			cur = nil
		}
	}
	return append(cmds, cur)
}

// verdictHits compares the fenced block under EXPERIMENTS.md's "Verdicts
// (Full scale, seed 1)" with the == Claims table that closes
// experiments_full.txt, line by line.
func verdictHits() ([]string, error) {
	doc, err := os.ReadFile("EXPERIMENTS.md")
	if err != nil {
		return nil, err
	}
	full, err := os.ReadFile("experiments_full.txt")
	if err != nil {
		return nil, err
	}
	const heading = "\n## Verdicts (Full scale, seed 1)\n"
	before, after, ok := strings.Cut(string(doc), heading)
	fence := strings.SplitN(after, "```", 3)
	_, claims, ok2 := strings.Cut(string(full), "\n== Claims")
	if !ok || len(fence) < 3 || !ok2 {
		return []string{"EXPERIMENTS.md: no fenced block under " + strings.TrimSpace(heading) + ", or experiments_full.txt: no == Claims table"}, nil
	}
	first := strings.Count(before+heading+fence[0], "\n") + 2 // the block's first line
	got := strings.Split(strings.TrimPrefix(fence[1], "\n"), "\n")
	want := strings.Split("== Claims"+claims, "\n")
	var hits []string
	for i := range max(len(got), len(want)) {
		g, w := "(none)", "(none)"
		if i < len(got) {
			g = got[i]
		}
		if i < len(want) {
			w = want[i]
		}
		if g != w {
			hits = append(hits, fmt.Sprintf("EXPERIMENTS.md:%d: %s\n  experiments_full.txt has: %s", first+i, g, w))
		}
	}
	return hits, nil
}
