package flat

import (
	"math/rand"
	"testing"
)

// check requires t to hold exactly the entries of want, by Get and by
// Range.
func check(tb testing.TB, step int, t *Table, want map[uint64]int64) {
	tb.Helper()
	if t.Len() != len(want) {
		tb.Fatalf("step %d: Len %d, want %d", step, t.Len(), len(want))
	}
	for k, v := range want {
		if got, ok := t.Get(k); !ok || got != v {
			tb.Fatalf("step %d: Get(%#x) = %d, %v; want %d, true", step, k, got, ok, v)
		}
	}
	seen := 0
	t.Range(func(k uint64, v int64) {
		if w, ok := want[k]; !ok || v != w {
			tb.Fatalf("step %d: Range yielded %#x -> %d; want %d (present %v)", step, k, v, w, ok)
		}
		seen++
	})
	if seen != len(want) {
		tb.Fatalf("step %d: Range yielded %d entries, want %d", step, seen, len(want))
	}
}

// TestTableMatchesMap drives a Table and a map[uint64]int64 through the
// same random operations — over a small key space so probe runs collide,
// wrap and are deleted from the middle — and requires identical contents
// after every step.
func TestTableMatchesMap(t *testing.T) {
	wide := make([]uint64, 300)
	for i, r := 0, rand.New(rand.NewSource(2)); i < len(wide); i++ {
		wide[i] = r.Uint64() >> uint(r.Intn(64))
	}
	keySets := map[string]func(r *rand.Rand) uint64{
		"small":   func(r *rand.Rand) uint64 { return uint64(r.Intn(200)) },
		"strided": func(r *rand.Rand) uint64 { return uint64(r.Intn(300)) * 128 },
		"wide":    func(r *rand.Rand) uint64 { return wide[r.Intn(len(wide))] },
		"extreme": func(r *rand.Rand) uint64 { return []uint64{0, 1, ^uint64(0), 1 << 63, 1 << 42}[r.Intn(5)] },
	}
	for name, key := range keySets {
		t.Run(name, func(t *testing.T) {
			r := rand.New(rand.NewSource(1))
			var tab Table
			want := map[uint64]int64{}
			for step := 0; step < 20000; step++ {
				k := key(r)
				switch op := r.Intn(100); {
				case op < 50:
					v := r.Int63n(1000)
					tab.Set(k, v)
					want[k] = v
				case op < 90:
					tab.Delete(k)
					delete(want, k)
				case op < 99:
					got, ok := tab.Get(k)
					if w, wok := want[k]; got != w || ok != wok {
						t.Fatalf("step %d: Get(%#x) = %d, %v; want %d, %v", step, k, got, ok, w, wok)
					}
				default:
					cut := r.Int63n(1000)
					del := func(_ uint64, v int64) bool { return v < cut }
					tab.DeleteFunc(del)
					for k, v := range want {
						if del(k, v) {
							delete(want, k)
						}
					}
				}
				check(t, step, &tab, want)
			}
		})
	}
}

// TestTableAllocsPerAccess: once the storage has grown, lookups, updates,
// inserts, deletes and sweeps allocate nothing.
func TestTableAllocsPerAccess(t *testing.T) {
	var tab Table
	for k := uint64(0); k < 1000; k++ {
		tab.Set(k*128, int64(k))
	}
	allocs := testing.AllocsPerRun(100, func() {
		for k := uint64(0); k < 1000; k++ {
			tab.Set(k*128, int64(k))
			tab.Get(k * 64)
		}
		tab.DeleteFunc(func(_ uint64, v int64) bool { return v%2 == 0 })
		for k := uint64(0); k < 1000; k++ {
			tab.Delete(k * 128)
		}
	})
	if allocs != 0 {
		t.Fatalf("%v allocs per run, want 0", allocs)
	}
}
