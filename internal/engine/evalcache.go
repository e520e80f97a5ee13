package engine

import (
	"container/list"
	"fmt"
	"sync"
	"time"

	"repro/internal/pointfo"
	"repro/internal/spatial"
)

// The compiled-evaluator cache memoizes {sample, membership matrix,
// coordinate ranks} per instance content address, beside the invariant
// cache: both cache derivatives of the arrangement, the expensive object
// the paper's economy avoids recomputing.  Compiled evaluators are
// immutable and concurrency-safe, so one cached evaluator serves any
// number of concurrent queries; core databases reach the cache through
// core.EvalSource, which also routes the small helper instances realised
// by the translations (inverted linear instances, representative cones).
//
// The shape mirrors the invariant cache deliberately: 16 shards routed by
// the leading hex digit of the content key, per-shard LRU bound, and a
// singleflight in-flight table so one sample build serves concurrent
// misses.

// DefaultEvaluatorCapacity bounds the compiled-evaluator cache when no
// option is given.
const DefaultEvaluatorCapacity = 128

// WithEvaluatorCapacity bounds the number of cached compiled evaluators.
// Like WithCacheCapacity, capacities up to 16 are exact and larger ones
// round up to a multiple of 16 (Stats reports the effective figure).
// Values < 1 are treated as 1.
func WithEvaluatorCapacity(n int) Option {
	return func(e *Engine) {
		if n < 1 {
			n = 1
		}
		e.evalCapacity = n
	}
}

// evalShard is one slice of the compiled-evaluator cache.
type evalShard struct {
	mu       sync.Mutex
	capacity int
	lru      *list.List // of *evalEntry, front = most recently used
	cache    map[string]*list.Element
	inflight map[string]*evalCall

	hits      uint64
	misses    uint64
	dedups    uint64
	evictions uint64
}

type evalEntry struct {
	key string
	ce  *pointfo.CompiledEvaluator
}

// evalCall is an in-flight evaluator build other goroutines can wait on.
type evalCall struct {
	done chan struct{}
	ce   *pointfo.CompiledEvaluator
	err  error
}

func (e *Engine) evalShardFor(key string) *evalShard {
	if len(key) == 0 {
		return &e.evalShards[0]
	}
	return &e.evalShards[hexVal(key[0])%e.evalUsedShards]
}

// CompiledEvaluator returns the compiled evaluator for the instance,
// building it at most once per instance content.  It implements
// core.EvalSource.
func (e *Engine) CompiledEvaluator(inst *spatial.Instance) (ce *pointfo.CompiledEvaluator, err error) {
	key, err := e.key(inst)
	if err != nil {
		return nil, fmt.Errorf("engine: %w", err)
	}
	sh := e.evalShardFor(key)

	//lint:allow lockdiscipline(the hit and dedup branches must release before returning or blocking on c.done — holding the shard across a sample build would serialize the cache; every branch unlocks before its return)
	sh.mu.Lock()
	if el, ok := sh.cache[key]; ok {
		sh.lru.MoveToFront(el)
		sh.hits++
		ce := el.Value.(*evalEntry).ce
		sh.mu.Unlock()
		mEvalHits.Inc()
		return ce, nil
	}
	if c, ok := sh.inflight[key]; ok {
		sh.dedups++
		sh.misses++
		sh.mu.Unlock()
		mEvalDedups.Inc()
		mEvalMisses.Inc()
		<-c.done
		return c.ce, c.err
	}
	c := &evalCall{done: make(chan struct{})}
	sh.inflight[key] = c
	sh.misses++
	sh.mu.Unlock()
	mEvalMisses.Inc()

	// As with invariant builds, the inflight entry must be cleared and done
	// closed even if the geometry layer panics mid-build.
	defer func() {
		if r := recover(); r != nil {
			c.ce, c.err = nil, fmt.Errorf("engine: evaluator build panicked: %v", r)
			ce, err = c.ce, c.err
		}
		sh.mu.Lock()
		delete(sh.inflight, key)
		if c.err == nil {
			sh.insert(key, c.ce)
		}
		sh.mu.Unlock()
		close(c.done)
	}()
	start := time.Now()
	c.ce, c.err = pointfo.CompileEvaluator(inst)
	mEvalBuild.ObserveDuration(time.Since(start))
	return c.ce, c.err
}

// cacheEvaluator inserts an evaluator derived from an arrangement another
// path already built (the invariant computation in load).
func (e *Engine) cacheEvaluator(key string, ce *pointfo.CompiledEvaluator) {
	sh := e.evalShardFor(key)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	sh.insert(key, ce)
}

// insert adds an entry and evicts from the LRU tail past the shard capacity.
// Called with sh.mu held.
func (sh *evalShard) insert(key string, ce *pointfo.CompiledEvaluator) {
	if el, ok := sh.cache[key]; ok {
		sh.lru.MoveToFront(el)
		return
	}
	sh.cache[key] = sh.lru.PushFront(&evalEntry{key: key, ce: ce})
	for sh.lru.Len() > sh.capacity {
		tail := sh.lru.Back()
		sh.lru.Remove(tail)
		delete(sh.cache, tail.Value.(*evalEntry).key)
		sh.evictions++
		mEvalEvictions.Inc()
	}
}
