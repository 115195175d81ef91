package harness

import (
	"sync"
	"sync/atomic"

	"kivati/internal/annotate"
	"kivati/internal/core"
	"kivati/internal/workloads"
)

// The build cache memoizes workload compilation across the harness. A full
// sweep regenerates seven tables and a figure, and before the cache each
// runner re-parsed, re-analyzed and re-compiled the same five workload
// programs from scratch; now each (workload, scale, analysis options)
// combination builds exactly once per process, no matter how many tables
// replay it or how many pool workers ask for it at once.

// buildKey identifies one build product. The source text participates so
// that the same workload at different scales (the generators bake the
// scale into the program text) never collides, and the canonical annotator
// options string (annotate.Options.Key) participates so that builds with
// different lockset/optimizer settings never share an AR table — a stale
// hit across optimizer settings would silently mix AR IDs and whitelists.
type buildKey struct {
	name    string
	source  string
	options string
}

// buildEntry is a once-guarded cache slot: the first requester builds,
// concurrent requesters block on the Once and share the result.
type buildEntry struct {
	once sync.Once
	app  *appRun
	err  error
}

// BuildCache memoizes prepared workloads (program + sync-var whitelist).
// All methods are safe for concurrent use.
type BuildCache struct {
	mu     sync.Mutex
	m      map[buildKey]*buildEntry
	hits   atomic.Uint64
	misses atomic.Uint64
}

// NewBuildCache returns an empty cache.
func NewBuildCache() *BuildCache {
	return &BuildCache{m: map[buildKey]*buildEntry{}}
}

// sharedCache is the process-wide cache every harness runner uses.
var sharedCache = NewBuildCache()

// ResetBuildCache drops every memoized build (tests use this to measure
// cold-vs-warm behavior).
func ResetBuildCache() { sharedCache = NewBuildCache() }

// BuildCacheStats reports the shared cache's hit/miss counters.
func BuildCacheStats() (hits, misses uint64) {
	return sharedCache.hits.Load(), sharedCache.misses.Load()
}

// entry returns the once-guarded slot for key, creating it if needed.
func (c *BuildCache) entry(key buildKey) *buildEntry {
	c.mu.Lock()
	defer c.mu.Unlock()
	e, ok := c.m[key]
	if !ok {
		e = &buildEntry{}
		c.m[key] = e
	}
	return e
}

// prepare returns the memoized appRun for spec, building it on first use
// with the paper-prototype annotator options.
func (c *BuildCache) prepare(spec *workloads.Spec) (*appRun, error) {
	return c.prepareWithOptions(spec, annotate.Options{})
}

// prepareWithOptions is prepare for a specific annotator configuration;
// each (workload, source, options) combination builds exactly once.
func (c *BuildCache) prepareWithOptions(spec *workloads.Spec, opts annotate.Options) (*appRun, error) {
	e := c.entry(buildKey{name: spec.Name, source: spec.Source, options: opts.Key()})
	hit := true
	e.once.Do(func() {
		hit = false
		c.misses.Add(1)
		e.app, e.err = prepareWithOptions(spec, opts)
	})
	if hit {
		c.hits.Add(1)
	}
	return e.app, e.err
}

// program returns the memoized bare program for a non-workload source (the
// bug corpus), building it on first use with the paper-prototype annotator
// options. No whitelist is derived; the stored appRun carries only the
// program.
func (c *BuildCache) program(name, source string) (*core.Program, error) {
	opts := annotate.Options{}
	e := c.entry(buildKey{name: name, source: source, options: opts.Key()})
	hit := true
	e.once.Do(func() {
		hit = false
		c.misses.Add(1)
		p, err := core.BuildWithOptions(source, opts)
		if err != nil {
			e.err = err
			return
		}
		e.app = &appRun{prog: p}
	})
	if hit {
		c.hits.Add(1)
	}
	if e.err != nil {
		return nil, e.err
	}
	return e.app.prog, nil
}
