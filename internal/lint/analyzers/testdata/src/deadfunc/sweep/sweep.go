// Package sweep seeds deadfunc cases: unexported functions and methods
// nothing refers to (flagged), every kind of reference that keeps one
// alive (not flagged), and a suppressed one.
package sweep

import "strings"

type Buf struct{ parts []string }

// --- flagged ---

func orphan() int { return 1 } // want `func orphan is never used`

func (b *Buf) stale() int { return len(b.parts) } // want `method stale is never used`

// Recursion alone is not a use.
func countdown(n int) int { // want `func countdown is never used`
	if n == 0 {
		return 0
	}
	return countdown(n - 1)
}

// --- not flagged ---

// Exported entry points are the package's API.
func Render(b *Buf) string {
	b.add("x")
	f := b.viaValue
	f()
	g := (*Buf).viaExpr
	g(b)
	var fl flusher = b
	fl.flush()
	return strings.Join(b.parts, ",") + pick(3) + box[string]{v: "y"}.get()
}

func (b *Buf) add(s string) { b.parts = append(b.parts, s) }

func (b *Buf) viaValue() { b.add("value") }

func (b *Buf) viaExpr() { b.add("expr") }

// flusher names flush, so Buf.flush is reachable dynamically.
type flusher interface{ flush() }

func (b *Buf) flush() { b.parts = b.parts[:0] }

// Generic function and generic type method, used through instantiations.
func pick[T any](v T) string { return strings.Repeat("p", 1) }

type box[T any] struct{ v T }

func (x box[T]) get() T { return x.v }

// Package-level initializers are references too.
var hook = initHook

func initHook() {}

func init() { hook() }

// --- suppressed ---

//adlint:ignore deadfunc kept as a debugger entry point
func debugDump(b *Buf) string { return strings.Join(b.parts, "\n") }
