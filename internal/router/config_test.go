package router_test

import (
	"strings"
	"testing"

	"highradix/internal/router"
)

// TestConfigValidationEdges drives Validate through the rejection paths
// one at a time and checks each error names the offending field with its
// value, so a bad sweep configuration fails with a message that says
// what to fix.
func TestConfigValidationEdges(t *testing.T) {
	type edgeCase struct {
		name     string
		mutate   func(*router.Config)
		fragment string
	}
	cases := []edgeCase{
		{"radix 1", func(c *router.Config) { c.Radix = 1 }, "radix 1 < 2"},
		{"negative radix", func(c *router.Config) { c.Radix = -4 }, "radix -4 < 2"},
		// Beyond the ceiling a router is refused before any buffer is
		// allocated, instead of exhausting memory building its grid.
		{"radix beyond ceiling", func(c *router.Config) { c.Arch = router.ArchBuffered; c.Radix = 100000 }, "radix 100000 > MaxRadix 1024"},
		{"radix just beyond ceiling", func(c *router.Config) { c.Radix = router.MaxRadix + 1 }, "radix 1025 > MaxRadix 1024"},
		{"negative vcs", func(c *router.Config) { c.VCs = -1 }, "vcs -1 < 1"},
		{"vcs beyond word", func(c *router.Config) { c.VCs = 65 }, "vcs 65 > 64"},
		{"negative input depth", func(c *router.Config) { c.InputBufDepth = -1 }, "input buffer depth -1 < 1"},
		{"input depth beyond cursor", func(c *router.Config) { c.InputBufDepth = 1 << 14 }, "buffer depth 65536 > 65535"},
		{
			"xpoint depth beyond cursor",
			func(c *router.Config) { c.Arch = router.ArchBuffered; c.XpointBufDepth = 20000 },
			"buffer depth 80000 > 65535",
		},
		{"negative traversal", func(c *router.Config) { c.STCycles = -4 }, "switch traversal -4 < 1"},
		{"negative local group", func(c *router.Config) { c.LocalGroup = -8 }, "local group -8 < 2"},
		{
			"negative xpoint depth",
			func(c *router.Config) { c.Arch = router.ArchBuffered; c.XpointBufDepth = -1 },
			"crosspoint buffer depth -1 < 1",
		},
		{
			"shared xpoint depth",
			func(c *router.Config) { c.Arch = router.ArchSharedXpoint; c.XpointBufDepth = -2 },
			"crosspoint buffer depth -2 < 1",
		},
		{
			"non-divisible subswitch",
			func(c *router.Config) { c.Arch = router.ArchHierarchical; c.SubSize = 7 },
			"subswitch size 7 must divide radix 64",
		},
		{
			"negative subswitch size",
			func(c *router.Config) { c.Arch = router.ArchHierarchical; c.SubSize = -8 },
			"subswitch size -8 must divide radix 64",
		},
		{
			"negative subswitch depths",
			func(c *router.Config) { c.Arch = router.ArchHierarchical; c.XpointBufDepth = -2 },
			"crosspoint buffer depth -2 < 1",
		},
		{
			"prioritized off-baseline",
			func(c *router.Config) { c.Arch = router.ArchBuffered; c.Prioritized = true },
			"prioritized allocation applies only to the baseline",
		},
		{"unknown arch", func(c *router.Config) { c.Arch = router.Arch(99) }, "unknown architecture 99"},
	}
	// A local group of one used to validate and then panic in the
	// output-arbiter constructor; every architecture must reject it.
	for _, a := range router.Registered() {
		cases = append(cases, edgeCase{"local group 1 " + a.String(), func(c *router.Config) { c.Arch = a; c.LocalGroup = 1 }, "local group 1 < 2"})
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			cfg := router.Config{}.WithDefaults()
			tc.mutate(&cfg)
			if _, err := router.New(cfg); err == nil {
				t.Fatalf("config accepted: %+v", cfg)
			} else if !strings.Contains(err.Error(), tc.fragment) {
				t.Fatalf("error %q does not mention %q", err, tc.fragment)
			}
		})
	}
}

// TestMaxRadixValidates checks the ceiling is itself a valid radix for
// every architecture (validation only: building one takes ~200 MB).
func TestMaxRadixValidates(t *testing.T) {
	for _, a := range router.Registered() {
		if err := (router.Config{Arch: a, Radix: router.MaxRadix}).WithDefaults().Validate(); err != nil {
			t.Errorf("%v at radix %d: %v", a, router.MaxRadix, err)
		}
	}
}

// TestConfigValidationJoinsErrors checks a config broken in several ways
// reports every problem at once rather than the first found.
func TestConfigValidationJoinsErrors(t *testing.T) {
	cfg := router.Config{}.WithDefaults()
	cfg.Radix = 1
	cfg.VCs = -3
	cfg.STCycles = 0
	err := cfg.Validate()
	if err == nil {
		t.Fatal("broken config validated")
	}
	for _, fragment := range []string{"radix 1 < 2", "vcs -3 < 1", "switch traversal 0 < 1"} {
		if !strings.Contains(err.Error(), fragment) {
			t.Errorf("joined error %q missing %q", err, fragment)
		}
	}
}

// TestWithDefaultsPreservesExplicit checks defaulting only fills zero
// fields — an explicit sweep parameter must never be overridden.
func TestWithDefaultsPreservesExplicit(t *testing.T) {
	in := router.Config{
		Radix:      16,
		VCs:        2,
		STCycles:   1,
		SubSize:    4,
		LocalGroup: 4,
		AllocIters: 3,
	}
	out := in.WithDefaults()
	if out.Radix != 16 || out.VCs != 2 || out.STCycles != 1 ||
		out.SubSize != 4 || out.LocalGroup != 4 || out.AllocIters != 3 {
		t.Fatalf("explicit fields overridden: %+v", out)
	}
	// Unset fields get the paper's evaluation parameters.
	if out.InputBufDepth != 16 || out.XpointBufDepth != 4 {
		t.Fatalf("defaults not applied: %+v", out)
	}
	once := router.Config{}.WithDefaults()
	if once != once.WithDefaults() {
		t.Fatal("WithDefaults not idempotent")
	}
}

// TestGrantNote checks the one architecture fact the invariant checker
// keys on: which grant stage seizes the output serializer.
func TestGrantNote(t *testing.T) {
	for _, tc := range []struct {
		arch router.Arch
		note string
	}{
		{router.ArchLowRadix, "switch"},
		{router.ArchBaseline, "switch"},
		{router.ArchBuffered, "output"},
		{router.ArchSharedXpoint, "output"},
		{router.ArchHierarchical, "column"},
	} {
		if d, _ := router.Describe(tc.arch); d.GrantNote != tc.note {
			t.Errorf("%v grant note = %q, want %q", tc.arch, d.GrantNote, tc.note)
		}
	}
}

func TestSpecPolicyNames(t *testing.T) {
	for _, tc := range []struct {
		p    router.SpecPolicy
		want string
	}{
		{router.SpecRotate, "rotate"},
		{router.SpecFixed, "fixed"},
		{router.SpecHash, "hash"},
		{router.SpecPolicy(99), "rotate"},
	} {
		if got := tc.p.String(); got != tc.want {
			t.Errorf("SpecPolicy(%d).String() = %q, want %q", int(tc.p), got, tc.want)
		}
	}
	for _, tc := range []struct {
		s    router.VAScheme
		want string
	}{
		{router.CVA, "CVA"},
		{router.OVA, "OVA"},
	} {
		if got := tc.s.String(); got != tc.want {
			t.Errorf("VAScheme.String() = %q, want %q", got, tc.want)
		}
		if got, err := router.VAByName(tc.want); err != nil || got != tc.s {
			t.Errorf("VAByName(%q) = %v, %v, want %v", tc.want, got, err, tc.s)
		}
	}
	// The CLIs exit 2 on this error.
	for _, bad := range []string{"", "ova", "XVA"} {
		if _, err := router.VAByName(bad); err == nil {
			t.Errorf("VAByName(%q) succeeded, want an error", bad)
		}
	}
}
