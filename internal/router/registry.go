package router

import (
	"fmt"
	"sort"
	"strings"
)

// The allocation-policy registry
//
// Architecture selection used to be a closed enum dispatched through
// switch statements in config.go, with the list of architectures
// repeated by hand in every test harness, benchmark and CLI. The
// registry inverts that: each architecture file registers a Descriptor
// carrying everything the cross-cutting layers need — the constructor,
// the checker's grant note, the config validation hook, representative
// test configurations and the benchmark radices — and config.go's
// String/ArchByName/Validate/New plus every enumeration site dispatch
// through it. Each architecture's type comment cites the paper section
// or external work it models. A newly
// registered architecture is therefore automatically conformance-
// checked, torture-tested, differentially compared, benchmarked and
// reachable from the CLIs, with no list to update anywhere.

// Variant is one named representative configuration of an architecture,
// covering an option axis that changes allocator behavior (speculation
// scheme, prioritized arbiters, ideal credit return, iteration count).
// The conformance, torture and differential suites and the router
// invariant tests run every variant of every registered architecture.
type Variant struct {
	Name   string
	Config Config
}

// Descriptor describes one registered architecture to the cross-cutting
// layers (config dispatch, invariant checker, test suites, benchmarks,
// CLIs).
type Descriptor struct {
	// Name is the stable report name (ArchByName input, String output).
	Name string
	// Build constructs the router from a defaulted, validated config.
	Build func(Config) Router
	// GrantNote is the Note of the grant stage that seizes the output
	// serializer in this architecture; the invariant checker holds grants
	// carrying it (and all ejections) to the STCycles spacing per output.
	GrantNote string
	// Validate, when non-nil, returns architecture-specific
	// configuration errors (shared field checks run separately).
	Validate func(Config) []error
	// UsesPrioritized marks architectures that consume
	// Config.Prioritized; setting the flag on any other architecture is
	// a configuration error.
	UsesPrioritized bool
	// Variants returns the representative configurations at the given
	// radix and VC count (zero vcs selects the default). Every returned
	// config must validate.
	Variants func(radix, vcs int) []Variant
	// BenchRadices are the radices the root package's BenchmarkStep and
	// steady-state allocation gate run this architecture at. The
	// registry-completeness test requires the paper's radix 64
	// everywhere and 128/256 for the high-radix architectures, so
	// allocation regressions gate CI at scale; the low-radix comparison
	// point alone stops at 64.
	BenchRadices []int
}

// registry maps Arch values (small dense ints) to their descriptors;
// byName indexes the same descriptors by report name. Registration
// happens in package init functions, so both are read-only afterwards
// and need no locking.
var (
	registry = map[Arch]Descriptor{}
	byName   = map[string]Arch{}
)

// Register records the descriptor for a. It panics on a duplicate Arch
// value or report name and on a descriptor missing a required field —
// registration bugs are programming errors, caught at init.
func Register(a Arch, d Descriptor) {
	if _, dup := registry[a]; dup {
		panic("router: duplicate registration of architecture " + d.Name)
	}
	if d.Name == "" || d.Build == nil || d.Variants == nil {
		panic("router: architecture descriptor missing name, constructor or variants")
	}
	if _, dup := byName[d.Name]; dup {
		panic("router: duplicate architecture name " + d.Name)
	}
	registry[a] = d
	byName[d.Name] = a
}

// Describe returns the descriptor registered for a.
func Describe(a Arch) (Descriptor, bool) {
	d, ok := registry[a]
	return d, ok
}

// Registered returns every registered architecture in ascending Arch
// order — the paper's development order for the built-ins, registration
// value order for extensions.
func Registered() []Arch {
	archs := make([]Arch, 0, len(registry))
	for a := range registry {
		archs = append(archs, a)
	}
	sort.Slice(archs, func(i, j int) bool { return archs[i] < archs[j] })
	return archs
}

// ArchNames returns the report names of every registered architecture,
// in Registered order — the source of truth for CLI -arch docs and the
// unknown-architecture error message.
func ArchNames() []string {
	archs := Registered()
	names := make([]string, len(archs))
	for i, a := range archs {
		names[i] = registry[a].Name
	}
	return names
}

// archNameList renders the registered names for error messages and CLI
// usage strings.
func archNameList(sep string) string { return strings.Join(ArchNames(), sep) }

// Variant-construction helpers shared by the built-in descriptors: the
// small-radix suites historically shrank the arbitration group and
// subswitch sizes with the radix, and the radix-256 suites grew the
// subswitch to 16; the rules below reproduce those choices for any
// radix the harnesses ask for.

// variantLocalGroup picks the local arbitration group size m for a test
// variant at the given radix.
func variantLocalGroup(radix int) int {
	if radix <= 16 {
		return 4
	}
	return 8
}

// validateXpointDepth is the Validate hook of every architecture that
// buffers flits inside the crossbar: per crosspoint (buffered, sharedxp,
// voq) or per subswitch input and output (hierarchical).
func validateXpointDepth(c Config) []error {
	if c.XpointBufDepth < 1 {
		return []error{fmt.Errorf("crosspoint buffer depth %d < 1", c.XpointBufDepth)}
	}
	return nil
}

// variantSubSize picks the hierarchical subswitch size p for a test
// variant at the given radix: the paper's p=8 at its design point,
// p=16 at radix 128 and up (the scaling choice of the radix-256
// suites), p=4 below radix 32 so small tortures still have several
// subswitches.
func variantSubSize(radix int) int {
	switch {
	case radix >= 128:
		return 16
	case radix >= 32:
		return 8
	default:
		return 4
	}
}
