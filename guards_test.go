package highradix_test

import (
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strings"
	"testing"
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
