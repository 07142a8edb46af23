package ccast

import (
	"reflect"
	"testing"
	"unsafe"
)

// TestArenaResetReusesZeroedChunk pins Reset's contract on one slab: a
// run that fit one chunk gets that chunk back zeroed, and a run that
// needed several gets one chunk large enough for all of it.
func TestArenaResetReusesZeroedChunk(t *testing.T) {
	var a Arena
	first := Alloc(&a.Ident)
	first.Name = "stale"
	a.Reset()
	again := Alloc(&a.Ident)
	if again != first {
		t.Fatal("a one-chunk run's chunk was not reused")
	}
	if *again != (Ident{}) {
		t.Fatalf("reused node is not zero: %+v", *again)
	}

	a.Reset()
	const n = 3 * slabMax
	for i := 0; i < n; i++ {
		Alloc(&a.Ident).Name = "x"
	}
	if a.Ident.carved == 0 {
		t.Fatalf("%d nodes fit one chunk; the test needs several", n)
	}
	a.Reset()
	if a.Ident.carved != 0 || len(a.Ident.cur) != 0 || cap(a.Ident.cur) < n {
		t.Fatalf("after a %d-node run: %d carved before the current chunk, which holds %d of %d",
			n, a.Ident.carved, len(a.Ident.cur), cap(a.Ident.cur))
	}
	for i := 0; i < n; i++ {
		if id := Alloc(&a.Ident); id.Name != "" {
			t.Fatalf("node %d of the resized chunk is not zero", i)
		}
	}
	if a.Ident.carved != 0 {
		t.Fatal("the same run again needed more than the resized chunk")
	}
}

// TestArenaResetCoversEverySlab gives every slab of an Arena a carved
// entry in an earlier and in a current chunk, and requires Reset to
// leave every one with nothing carved, so a slab added to Arena without
// a reset line fails here.
func TestArenaResetCoversEverySlab(t *testing.T) {
	var a Arena
	v := reflect.ValueOf(&a).Elem()
	for i := 0; i < v.NumField(); i++ {
		cur := settable(v.Field(i).FieldByName("cur"))
		cur.Set(reflect.MakeSlice(cur.Type(), 1, 4))
		settable(v.Field(i).FieldByName("carved")).SetInt(1)
	}
	a.Reset()
	for i := 0; i < v.NumField(); i++ {
		f := v.Field(i)
		if f.FieldByName("cur").Len() != 0 || f.FieldByName("carved").Int() != 0 {
			t.Errorf("Reset left slab %s carved", v.Type().Field(i).Name)
		}
	}
}

// settable returns an addressable, settable view of an unexported
// field.
func settable(f reflect.Value) reflect.Value {
	return reflect.NewAt(f.Type(), unsafe.Pointer(f.UnsafeAddr())).Elem()
}
