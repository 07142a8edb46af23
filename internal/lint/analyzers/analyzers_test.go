package analyzers_test

import (
	"testing"

	"repro/internal/lint/analysistest"
	"repro/internal/lint/analyzers"
)

// Each golden package seeds positive cases (// want comments), negative
// cases (no comment), and a suppressed violation (//adlint:ignore with a
// reason, no want) — so these tests pin the analyzer logic AND the
// driver's suppression filtering in one pass.

func TestSyncErr(t *testing.T) {
	analysistest.Run(t, "testdata/src/syncerr/store", analyzers.SyncErr)
}

func TestSyncErrPersistFileScope(t *testing.T) {
	analysistest.Run(t, "testdata/src/syncerr/persistfile", analyzers.SyncErr)
}

func TestDetRange(t *testing.T) {
	analysistest.Run(t, "testdata/src/detrange/rules", analyzers.DetRange)
}

func TestLockOrder(t *testing.T) {
	analysistest.Run(t, "testdata/src/lockorder/service", analyzers.LockOrder)
}

func TestArenaEscape(t *testing.T) {
	analysistest.Run(t, "testdata/src/arenaescape/rules", analyzers.ArenaEscape)
}

func TestDeadFunc(t *testing.T) {
	analysistest.Run(t, "testdata/src/deadfunc/sweep", analyzers.DeadFunc)
}

func TestAliasMut(t *testing.T) {
	analysistest.Run(t, "testdata/src/aliasmut/consumer", analyzers.AliasMut)
}

// The declaring package is exempt: its internal mutations through its
// own aliases must produce zero findings (the golden has no wants).
func TestAliasMutDeclaringPackageExempt(t *testing.T) {
	analysistest.Run(t, "testdata/src/aliasmut/artifact", analyzers.AliasMut)
}

func TestByName(t *testing.T) {
	sel, unknown := analyzers.ByName("syncerr,detrange")
	if len(unknown) != 0 {
		t.Fatalf("unexpected unknown analyzers: %v", unknown)
	}
	var got []string
	for _, a := range sel {
		got = append(got, a.Name)
	}
	if len(got) != 2 {
		t.Fatalf("ByName returned wrong set: %v", got)
	}
	_, unknown = analyzers.ByName("syncerr,nosuch")
	if len(unknown) != 1 || unknown[0] != "nosuch" {
		t.Fatalf("unknown names not reported: %v", unknown)
	}
}
