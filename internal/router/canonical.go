package router

import "fmt"

// Canonical returns the canonical single-line description of the
// configuration, the router component of a result-cache key
// (internal/cache). Two configurations that produce the same router
// produce the same string:
//
//   - defaults are applied first, so a zero-valued field and its
//     explicit default value are the same configuration;
//   - fields are emitted in one fixed order with explicit names, so the
//     encoding never depends on how the caller assembled the config;
//   - Observer is excluded: it receives diagnostic events but cannot
//     change any result byte (the checker suites pin that a nil and a
//     counting observer produce identical runs).
//
// Every other field is included, so any change to a semantically
// distinct field changes the string and therefore the cache key.
// TestCanonicalCoversEveryField enforces with reflection that a newly
// added Config field cannot be forgotten here silently.
func (c Config) Canonical() string {
	c = c.WithDefaults()
	return fmt.Sprintf(
		"arch=%s radix=%d vcs=%d inbuf=%d xbuf=%d sub=%d subin=%d subout=%d st=%d m=%d iters=%d va=%s spec=%s prio=%t idealcredit=%t",
		c.Arch, c.Radix, c.VCs, c.InputBufDepth, c.XpointBufDepth,
		c.SubSize, c.SubInDepth, c.SubOutDepth, c.STCycles, c.LocalGroup,
		c.AllocIters, c.VA, c.SpecPolicy, c.Prioritized, c.IdealCredit)
}
