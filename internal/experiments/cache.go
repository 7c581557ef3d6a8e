package experiments

import (
	"fmt"
	"strings"

	"highradix/internal/cache"
	"highradix/internal/stats"
)

// figureSchema versions the figure-level cache: the key canonical form
// below plus the stats table encoding it stores. The per-experiment
// Registry Version rides on top for targeted invalidation.
const figureSchema = "figure/v1"

// fingerprint is the canonical description of every Scale field that
// can steer a generated table. Workers never appears (tables are
// identical at every pool size), nor does NetWorkers (proven
// byte-identical by the shard-equivalence suite) or Cache itself.
// Injection and the phase lengths do: they change results, not just
// wall-clock.
func (s Scale) fingerprint() string {
	g := func(xs []float64) string {
		parts := make([]string, len(xs))
		for i, x := range xs {
			parts[i] = fmt.Sprintf("%g", x)
		}
		return strings.Join(parts, ",")
	}
	return fmt.Sprintf("warmup=%d measure=%d loads=%s netloads=%s netwarmup=%d netmeasure=%d fullnet=%t seed=%d inj=%s",
		s.Warmup, s.Measure, g(s.Loads), g(s.NetLoads), s.NetWarmup, s.NetMeasure,
		s.FullNetwork, s.Seed, s.Injection)
}

// figureKey is the content address of one experiment's table at one
// scale.
func figureKey(name string, version int, s Scale) cache.Key {
	b := cache.NewKey(figureSchema)
	b.Field("exp", name)
	b.Fieldf("version", "%d", version)
	b.Field("scale", s.fingerprint())
	return b.Key()
}

// TableBytes generates the named experiment at this scale and returns
// its stats.EncodeTable bytes, consulting the figure-level cache when
// the scale carries one: a warm figure is served without running the
// generator at all, a cold one runs it once (concurrent requests for
// the same cold figure share that one run through the store's
// single-flight) with the generator's own points still consulting the
// point-level cache. hit reports whether the bytes came from the store.
func TableBytes(name string, s Scale) (payload []byte, hit bool, err error) {
	entry, err := lookup(name)
	if err != nil {
		return nil, false, err
	}
	compute := func() ([]byte, error) {
		t, err := entry.Gen(s)
		if err != nil {
			return nil, err
		}
		return stats.EncodeTable(t), nil
	}
	if s.Cache == nil {
		b, err := compute()
		return b, false, err
	}
	return s.Cache.GetOrCompute(figureKey(name, entry.Version, s), compute)
}

// Table generates the named experiment at this scale through the
// figure-level cache and decodes it. A stored figure that no longer
// decodes (stale layout under an unbumped schema) is never served: it
// is regenerated and overwritten.
func Table(name string, s Scale) (*stats.Table, bool, error) {
	payload, hit, err := TableBytes(name, s)
	if err != nil {
		return nil, false, err
	}
	t, err := stats.DecodeTable(payload)
	if err == nil {
		return t, hit, nil
	}
	entry, err := lookup(name)
	if err != nil {
		return nil, false, err
	}
	t, err = entry.Gen(s)
	if err != nil {
		return nil, false, err
	}
	if s.Cache != nil {
		s.Cache.Put(figureKey(name, entry.Version, s), stats.EncodeTable(t))
	}
	return t, false, nil
}
