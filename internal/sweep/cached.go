package sweep

import "highradix/internal/cache"

// RunCached runs one cacheable leaf job with the content-addressed
// store consulted first; T is a struct cache.Encode can store. A warm
// key returns the decoded stored value without touching the pool; a
// cold key runs compute under a pool slot inside the store's
// single-flight (so N concurrent requests for one cold key run one
// simulation) and stores the encoded bytes. hit reports whether the
// value came from the store (GetOrCompute's hit), so callers count
// outcomes without a second lookup.
//
// Lock ordering matters here: the flight is acquired BEFORE the pool
// slot, never the reverse. A leaf that held a slot while waiting on a
// flight could fill every slot with waiters and starve the one compute
// that would release them.
//
// st == nil or cacheable == false degrades to a plain pooled run, so
// callers thread one code path whether or not a cache is configured.
func RunCached[T any](p *Pool, st *cache.Store, key cache.Key, cacheable bool, compute func() (T, error)) (v T, hit bool, err error) {
	if st == nil || !cacheable {
		v, err = Do(p, compute)
		return v, false, err
	}
	payload, hit, err := st.GetOrCompute(key, func() ([]byte, error) {
		v, err := Do(p, compute)
		if err != nil {
			return nil, err
		}
		return cache.Encode(v), nil
	})
	if err != nil {
		return v, false, err
	}
	if err := cache.Decode(payload, &v); err == nil {
		return v, hit, nil
	}
	// The entry's checksum passed but the payload does not decode: a
	// layout the current decoder rejects (T gained a field, or the
	// version byte moved). Never serve it — recompute and overwrite so
	// the store self-heals.
	if v, err = Do(p, compute); err != nil {
		return v, false, err
	}
	st.Put(key, cache.Encode(v))
	return v, false, nil
}
