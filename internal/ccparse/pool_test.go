package ccparse

import (
	"reflect"
	"runtime"
	"testing"
	"weak"

	"repro/internal/ccast"
	"repro/internal/srcfile"
)

// parseAndDrop parses a two-function file and returns weak pointers to
// every node of both function bodies; the unit does not outlive the
// call.
//
//go:noinline
func parseAndDrop(t *testing.T) []weak.Pointer[byte] {
	t.Helper()
	f := &srcfile.File{Path: "m/pool.c", Lang: srcfile.LangC, Src: `
int scale(int x, int k) {
    int y = x * k;
    if (y > 100) { return 100; }
    return y + 1;
}
void tick(int *counter) {
    for (int i = 0; i < 4; i++) { counter[i] = scale(i, 3); }
}
`}
	tu, errs := Parse(f, Options{})
	if len(errs) > 0 {
		t.Fatal(errs[0])
	}
	var wps []weak.Pointer[byte]
	for _, fn := range tu.Funcs() {
		ccast.Walk(fn.Body, func(n ccast.Node) bool {
			wps = append(wps, weak.Make((*byte)(reflect.ValueOf(n).UnsafePointer())))
			return true
		})
	}
	return wps
}

// TestPooledParserReleasesUnit pins that a parser returned to the pool
// holds no pointer into the unit it just parsed. The pool keeps the
// parser itself through one collection, so that collection must free
// every body node of the dropped unit.
func TestPooledParserReleasesUnit(t *testing.T) {
	wps := parseAndDrop(t)
	if len(wps) == 0 {
		t.Fatal("no body nodes to track")
	}
	runtime.GC()
	live := 0
	for _, wp := range wps {
		if wp.Value() != nil {
			live++
		}
	}
	if live > 0 {
		t.Fatalf("%d of %d body nodes of a dropped unit survive one collection", live, len(wps))
	}
}
