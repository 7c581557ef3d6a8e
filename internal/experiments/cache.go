package experiments

import (
	"highradix/internal/cache"
	"highradix/internal/stats"
)

// figure is what one stored table is a function of: the experiment and
// the scale it ran at.
type figure struct {
	Exp   string
	Scale Scale
}

// FigureKey is the content address of one experiment's table at one
// scale (cache.KeyOf; every Scale is cacheable). The wall-clock knobs
// Workers, NetWorkers, Cache and dense are tagged out of it.
func FigureKey(name string, s Scale) cache.Key {
	k, _ := cache.KeyOf(figure{name, s})
	return k
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
	return s.Cache.GetOrCompute(FigureKey(name, s), compute)
}

// Table generates the named experiment at this scale through the
// figure-level cache and decodes it. A stored figure that no longer
// decodes (a table layout the current codec rejects) is never served:
// it is regenerated and overwritten.
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
		s.Cache.Put(FigureKey(name, s), stats.EncodeTable(t))
	}
	return t, false, nil
}
