// Package simmemo is the input-keyed memo layer for the analytic
// simulator and its sweep harnesses, which re-evaluate the same inputs
// over and over (the same synthesized instance, GCN training or
// event-level schedule). Each subsystem registers a named cache keyed
// by the canonical encoding of its inputs (Key), so a sweep
// re-computes only the cells whose inputs changed.
//
// Do is the only entry point, and one rule keeps Sim snapshots
// byte-identical with the memo on or off: a memoized computation
// records its Sim metrics on the *Tape it is handed. A miss stores the
// tape beside the result, and every call, hit or miss, applies it once
// to the caller's destination — the enclosing computation's tape when
// calls nest, so an outer hit replays its nested calls too, else the
// registry. A nil tape is the registry: with the memo off or an empty
// key the computation runs inline and records straight through.
// Records that are a pure function of the result may stay ordinary
// records after the call; Wall-clock metrics never go on a tape.
//
// The exceptions are simmemo.*'s own hit/miss counters and the
// parallel.* pool-attribution counters, which meter executed work —
// exactly what a hit elides. Hit/miss counts are still Sim-clock: each
// cache is a singleflight LRU, so while no entry is evicted mid-run,
// misses equal distinct keys whatever the scheduling or worker count.
//
// Values handed back on a hit are shared: treat them as immutable.
package simmemo

import (
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"math"
	"reflect"
	"sync"
	"sync/atomic"

	"gopim/internal/obs"
	"gopim/internal/singleflight"
)

// disabled gates every cache in the package. Default on: the memo layer
// never changes output bytes, only wall time. Stored inverted so the
// zero value means "on" without an init hook.
var disabled atomic.Bool

// Enabled reports whether memoization is active.
func Enabled() bool { return !disabled.Load() }

// SetEnabled turns the memo layer on or off globally (the -sim-memo
// knob). Turning it off makes every Do call compute inline, recording
// straight to the registry, and touch no hit/miss counter.
func SetEnabled(on bool) { disabled.Store(!on) }

// Tape collects the Sim records of one memoized computation. Counter
// adds coalesce per counter, so a training loop that adds every epoch
// allocates only on a counter's first add; any other record is a
// closure replayed in order. A nil *Tape records straight to the
// registry. Safe for concurrent recording.
type Tape struct {
	mu   sync.Mutex
	adds []tapeAdd
	recs []func()
}

type tapeAdd struct {
	c *obs.Counter
	n int64
}

// Add adds n to c.
func (t *Tape) Add(c *obs.Counter, n int64) {
	if t == nil {
		c.Add(n)
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	for i := range t.adds {
		if t.adds[i].c == c {
			t.adds[i].n += n
			return
		}
	}
	t.adds = append(t.adds, tapeAdd{c, n})
}

// Inc adds one to c.
func (t *Tape) Inc(c *obs.Counter) { t.Add(c, 1) }

// Record runs rec, a registry effect other than a counter add: now on
// a nil tape, else once per application of the tape.
func (t *Tape) Record(rec func()) {
	if t == nil {
		rec()
		return
	}
	t.mu.Lock()
	t.recs = append(t.recs, rec)
	t.mu.Unlock()
}

// applyTo replays a completed tape onto dst (nil = the registry).
func (t *Tape) applyTo(dst *Tape) {
	for _, a := range t.adds {
		dst.Add(a.c, a.n)
	}
	for _, rec := range t.recs {
		dst.Record(rec)
	}
}

// Cache is one named memo domain: a singleflight LRU plus its Sim-clock
// hit/miss counters. Construct with NewCache at package init so counter
// registration order is deterministic.
type Cache struct {
	sf           *singleflight.Cache[string, entry]
	hits, misses *obs.Counter
}

// entry is a completed computation: its value and the tape it recorded.
type entry struct {
	v    any
	tape *Tape
}

// registry tracks every cache so bench repeats can clear them all
// (ResetAll) without each consumer exporting its own reset hook.
var (
	regMu    sync.Mutex
	registry []*Cache
)

// NewCache registers a memo domain named name holding at most max
// completed entries (0 = unbounded). max must exceed the largest
// per-run working set or hit counts lose their worker-independence —
// see the package contract.
func NewCache(name string, max int) *Cache {
	c := &Cache{
		sf: singleflight.New[string, entry](max),
		hits: obs.NewCounter("simmemo."+name+"_hits", obs.Sim,
			"memoized "+name+" reuses (cached + coalesced); worker-count-independent"),
		misses: obs.NewCounter("simmemo."+name+"_misses", obs.Sim,
			"memoized "+name+" computations (== distinct keys absent eviction)"),
	}
	regMu.Lock()
	registry = append(registry, c)
	regMu.Unlock()
	return c
}

// Hits returns the cache's accumulated reuse count (tests and
// attribution tooling; the counters themselves feed snapshots).
func (c *Cache) Hits() int64 { return c.hits.Value() }

// Misses returns the cache's accumulated computation count.
func (c *Cache) Misses() int64 { return c.misses.Value() }

// Do returns the value for key, computing it with fn on first use and
// coalescing concurrent same-key calls. fn records on the tape it
// receives, which is applied to dst (nil = the registry) once per
// call, hit or miss. With the layer disabled or an empty key, fn runs
// inline on dst and no counter of c moves.
func Do[T any](c *Cache, key string, dst *Tape, fn func(*Tape) T) T {
	if key == "" || !Enabled() {
		return fn(dst)
	}
	e, hit := c.sf.Do(key, func() entry {
		t := new(Tape)
		return entry{fn(t), t}
	})
	if hit {
		c.hits.Inc()
	} else {
		c.misses.Inc()
	}
	e.tape.applyTo(dst)
	return e.v.(T)
}

// The memo caches clear whenever the default registry resets: hit/miss
// counters are only a pure function of the submitted work when the
// caches start cold with them, so a harness that resets one must reset
// both (the bench suite between repeats, the determinism tests between
// worker counts).
func init() {
	obs.OnReset(ResetAll)
}

// ResetAll clears every registered cache's completed entries. Runs
// automatically on every default-registry Reset (see init); callers
// only need it directly when clearing caches without touching metrics.
func ResetAll() {
	regMu.Lock()
	caches := append([]*Cache(nil), registry...)
	regMu.Unlock()
	for _, c := range caches {
		c.sf.Reset()
	}
}

// keyer is implemented by inputs whose memo identity is not their
// field-by-field content (hidden state, or fields that only matter in
// some modes). Key encodes such a value as its MemoKey string.
type keyer interface{ MemoKey() string }

var keyerType = reflect.TypeOf((*keyer)(nil)).Elem()

// Key returns the canonical memo key of parts: an exact encoding hashed
// to 32 bytes. Integers and bools encode by value, floats by bit
// pattern, strings, slices and arrays length-prefixed, structs field by
// field, pointers as nil or their pointee, and a type with a MemoKey()
// string method (checked before a pointer is followed) as its MemoKey.
// Types are not encoded, so each domain keys one fixed list of part
// types. Anything else — maps, funcs, interfaces, unexported fields —
// panics.
func Key(parts ...any) string {
	b := make([]byte, 0, 512)
	for _, p := range parts {
		b = appendKey(b, reflect.ValueOf(p))
	}
	sum := sha256.Sum256(b)
	return string(sum[:])
}

func appendKey(b []byte, v reflect.Value) []byte {
	if v.Type().Implements(keyerType) {
		return appendString(b, v.Interface().(keyer).MemoKey())
	}
	switch v.Kind() {
	case reflect.Bool:
		if v.Bool() {
			return append(b, 1)
		}
		return append(b, 0)
	case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
		return binary.LittleEndian.AppendUint64(b, uint64(v.Int()))
	case reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64:
		return binary.LittleEndian.AppendUint64(b, v.Uint())
	case reflect.Float32, reflect.Float64:
		return binary.LittleEndian.AppendUint64(b, math.Float64bits(v.Float()))
	case reflect.String:
		return appendString(b, v.String())
	case reflect.Slice, reflect.Array:
		b = binary.LittleEndian.AppendUint64(b, uint64(v.Len()))
		for i := 0; i < v.Len(); i++ {
			b = appendKey(b, v.Index(i))
		}
		return b
	case reflect.Pointer:
		if v.IsNil() {
			return append(b, 0)
		}
		return appendKey(append(b, 1), v.Elem())
	case reflect.Struct:
		for i := 0; i < v.NumField(); i++ {
			if !v.Type().Field(i).IsExported() {
				panic(fmt.Sprintf("simmemo: cannot key unexported field %s.%s", v.Type(), v.Type().Field(i).Name))
			}
			b = appendKey(b, v.Field(i))
		}
		return b
	}
	panic(fmt.Sprintf("simmemo: cannot key a %s", v.Type()))
}

func appendString(b []byte, s string) []byte {
	return append(binary.LittleEndian.AppendUint64(b, uint64(len(s))), s...)
}
