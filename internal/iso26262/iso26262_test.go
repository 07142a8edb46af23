package iso26262

import (
	"fmt"
	"testing"
)

func TestTableShapes(t *testing.T) {
	if len(CodingGuidelines) != 8 {
		t.Errorf("Table 1 rows = %d, want 8", len(CodingGuidelines))
	}
	if len(ArchitectureDesign) != 7 {
		t.Errorf("Table 3 rows = %d, want 7", len(ArchitectureDesign))
	}
	if len(UnitDesign) != 10 {
		t.Errorf("Table 8 rows = %d, want 10", len(UnitDesign))
	}
}

func TestItemsSequential(t *testing.T) {
	for _, tbl := range []TableID{TableCoding, TableArch, TableUnit} {
		for i, tp := range TableTopics(tbl) {
			if tp.Item != i+1 {
				t.Errorf("%v row %d has item %d", tbl, i, tp.Item)
			}
			if tp.Table != tbl {
				t.Errorf("%v row %d has table %v", tbl, i, tp.Table)
			}
		}
	}
}

// TestPaperTable1Matrix pins the exact recommendation matrix printed in
// the paper's Table 1.
func TestPaperTable1Matrix(t *testing.T) {
	want := [8][4]Recommendation{
		{hh, hh, hh, hh}, // low complexity
		{hh, hh, hh, hh}, // language subsets
		{hh, hh, hh, hh}, // strong typing
		{oo, rr, hh, hh}, // defensive implementation
		{rr, rr, rr, hh}, // established design principles
		{rr, hh, hh, hh}, // graphical representation
		{rr, hh, hh, hh}, // style guides
		{hh, hh, hh, hh}, // naming conventions
	}
	for i, tp := range CodingGuidelines {
		if tp.Rec != want[i] {
			t.Errorf("Table 1 item %d rec = %v, want %v", tp.Item, tp.Rec, want[i])
		}
	}
}

// TestPaperTable3Matrix pins the paper's Table 3 (ISO26262-6 Table 8).
func TestPaperTable3Matrix(t *testing.T) {
	want := [10][4]Recommendation{
		{hh, hh, hh, hh}, // one entry one exit
		{rr, hh, hh, hh}, // no dynamic objects
		{hh, hh, hh, hh}, // initialization
		{rr, hh, hh, hh}, // no multiple use of names
		{rr, rr, hh, hh}, // avoid globals
		{oo, rr, rr, hh}, // limited pointers
		{rr, hh, hh, hh}, // no implicit conversions
		{rr, hh, hh, hh}, // no hidden flow
		{hh, hh, hh, hh}, // no unconditional jumps
		{rr, rr, hh, hh}, // no recursion
	}
	for i, tp := range UnitDesign {
		if tp.Rec != want[i] {
			t.Errorf("Table 8 item %d rec = %v, want %v", tp.Item, tp.Rec, want[i])
		}
	}
}

func TestAllHighlyRecommendedAtASILD(t *testing.T) {
	// The paper notes all Table 1 elements are ++ at ASIL-D.
	for _, tp := range CodingGuidelines {
		if tp.RecommendationFor(ASILD) != HighlyRecommended {
			t.Errorf("Table 1 item %d not ++ at ASIL-D", tp.Item)
		}
	}
}

func TestRecommendationForQM(t *testing.T) {
	if CodingGuidelines[0].RecommendationFor(QM) != NotRequired {
		t.Error("QM must not require anything")
	}
}

func TestParseASIL(t *testing.T) {
	for s, want := range map[string]ASIL{"QM": QM, "A": ASILA, "ASIL-D": ASILD, "d": ASILD} {
		got, err := ParseASIL(s)
		if err != nil || got != want {
			t.Errorf("ParseASIL(%q) = %v, %v", s, got, err)
		}
	}
	if _, err := ParseASIL("E"); err == nil {
		t.Error("ParseASIL(E) should fail")
	}
}

func TestRefString(t *testing.T) {
	type tc struct {
		ref  Ref
		want string
	}
	var cases []tc
	for _, tbl := range []struct {
		topics []Topic
		iso    int // the ISO 26262-6 table number
	}{{CodingGuidelines, 1}, {ArchitectureDesign, 3}, {UnitDesign, 8}} {
		for _, tp := range tbl.topics {
			cases = append(cases, tc{Ref{tp.Table, tp.Item}, fmt.Sprintf("T%d.%d", tbl.iso, tp.Item)})
		}
	}
	cases = append(cases, tc{Ref{TableUnit, 2}, "T8.2"}, tc{Ref{TableID(7), 4}, ".4"}, tc{Ref{TableCoding, 120}, "T1.120"})
	for _, c := range cases {
		if got := c.ref.String(); got != c.want {
			t.Errorf("%+v.String() = %q, want %q", c.ref, got, c.want)
		}
	}
}

func TestLookup(t *testing.T) {
	tp := Lookup(Ref{Table: TableArch, Item: 4})
	if tp == nil || tp.Name != "High cohesion in each software component" {
		t.Errorf("lookup = %+v", tp)
	}
	if Lookup(Ref{Table: TableArch, Item: 99}) != nil {
		t.Error("bogus lookup should be nil")
	}
}

func TestGap(t *testing.T) {
	tp := UnitDesign[0] // single exit, ++ at D
	ta := TopicAssessment{Topic: tp, Verdict: NonCompliant}
	if !ta.Gap(ASILD) {
		t.Error("non-compliant ++ topic must gap at ASIL-D")
	}
	ta.Verdict = Compliant
	if ta.Gap(ASILD) {
		t.Error("compliant topic must not gap")
	}
	// Partial compliance gaps only when highly recommended.
	ptr := UnitDesign[5] // limited pointers: o at A
	pa := TopicAssessment{Topic: ptr, Verdict: PartiallyCompliant}
	if pa.Gap(ASILA) {
		t.Error("o-rated topic cannot gap at ASIL-A")
	}
	if !pa.Gap(ASILD) {
		t.Error("++-rated partial topic must gap at ASIL-D")
	}
}

func TestStringers(t *testing.T) {
	if ASILD.String() != "ASIL-D" || QM.String() != "QM" {
		t.Error("ASIL strings")
	}
	if HighlyRecommended.String() != "++" || Recommended.String() != "+" || NotRequired.String() != "o" {
		t.Error("recommendation strings")
	}
	for _, v := range []Verdict{NotAssessed, NotApplicable, Compliant, PartiallyCompliant, NonCompliant} {
		if v.String() == "" {
			t.Error("empty verdict string")
		}
	}
	for _, e := range []Effort{EffortNone, EffortLimited, EffortModerate, EffortResearch} {
		if e.String() == "" {
			t.Error("empty effort string")
		}
	}
}
