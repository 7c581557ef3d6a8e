package cache

import "sync"

// group is a minimal single-flight: concurrent Do calls with the same
// key run fn once and share its result. (The x/sync module is not
// vendored; the store needs only this subset.)
type group struct {
	mu sync.Mutex
	m  map[string]*call
}

type call struct {
	wg  sync.WaitGroup
	val []byte
	err error
}

// Do runs fn under key, deduplicating concurrent calls. The returned
// slice is shared between all callers of the flight and must be treated
// as read-only.
func (g *group) Do(key string, fn func() ([]byte, error)) ([]byte, error) {
	g.mu.Lock()
	if g.m == nil {
		g.m = make(map[string]*call)
	}
	if c, ok := g.m[key]; ok {
		g.mu.Unlock()
		c.wg.Wait()
		return c.val, c.err
	}
	c := new(call)
	c.wg.Add(1)
	g.m[key] = c
	g.mu.Unlock()

	c.val, c.err = fn()

	g.mu.Lock()
	delete(g.m, key)
	g.mu.Unlock()
	c.wg.Done()
	return c.val, c.err
}
