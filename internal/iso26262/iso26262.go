// Package iso26262 models the slice of ISO 26262 Part 6 ("product
// development at the software level") that the paper assesses: the
// recommendation tables for modeling/coding guidelines (Part-6 Table 1,
// the paper's Table 1), architectural design (Part-6 Table 3, the paper's
// Table 2), and unit design & implementation (Part-6 Table 8, the paper's
// Table 3), together with ASILs, recommendation strength, and compliance
// verdicts.
package iso26262

import (
	"fmt"
	"strconv"
)

// ASIL is an Automotive Safety Integrity Level. QM (Quality Management)
// covers components that cannot cause safety risks upon failure.
type ASIL int

// ASIL levels in increasing criticality.
const (
	QM ASIL = iota
	ASILA
	ASILB
	ASILC
	ASILD
)

// String returns the conventional name.
func (a ASIL) String() string {
	switch a {
	case QM:
		return "QM"
	case ASILA:
		return "ASIL-A"
	case ASILB:
		return "ASIL-B"
	case ASILC:
		return "ASIL-C"
	case ASILD:
		return "ASIL-D"
	default:
		return fmt.Sprintf("ASIL(%d)", int(a))
	}
}

// ParseASIL converts a name ("D", "ASIL-D", "QM") to an ASIL.
func ParseASIL(s string) (ASIL, error) {
	switch s {
	case "QM", "qm":
		return QM, nil
	case "A", "ASIL-A", "a":
		return ASILA, nil
	case "B", "ASIL-B", "b":
		return ASILB, nil
	case "C", "ASIL-C", "c":
		return ASILC, nil
	case "D", "ASIL-D", "d":
		return ASILD, nil
	default:
		return QM, fmt.Errorf("iso26262: unknown ASIL %q", s)
	}
}

// Recommendation is the standard's notation for how strongly a technique
// is required at a given ASIL.
type Recommendation int

// Recommendation strengths.
const (
	// NotRequired is the standard's "o".
	NotRequired Recommendation = iota
	// Recommended is "+".
	Recommended
	// HighlyRecommended is "++".
	HighlyRecommended
)

// String renders the standard's notation.
func (r Recommendation) String() string {
	switch r {
	case NotRequired:
		return "o"
	case Recommended:
		return "+"
	case HighlyRecommended:
		return "++"
	default:
		return "?"
	}
}

// TableID identifies one of the Part-6 tables the paper covers.
type TableID int

// The assessed tables. Values carry both the ISO numbering and the paper's.
const (
	// TableCoding is ISO 26262-6 Table 1 (paper Table 1): modeling and
	// coding guidelines.
	TableCoding TableID = iota
	// TableArch is ISO 26262-6 Table 3 (paper Table 2): architectural
	// design principles.
	TableArch
	// TableUnit is ISO 26262-6 Table 8 (paper Table 3): design principles
	// for software unit design and implementation.
	TableUnit
)

// String names the table with both numberings.
func (t TableID) String() string {
	switch t {
	case TableCoding:
		return "ISO26262-6 Table 1 (modeling/coding guidelines)"
	case TableArch:
		return "ISO26262-6 Table 3 (architectural design)"
	case TableUnit:
		return "ISO26262-6 Table 8 (unit design & implementation)"
	default:
		return fmt.Sprintf("TableID(%d)", int(t))
	}
}

// Topic is one row of a recommendation table.
type Topic struct {
	Table TableID
	// Item is the 1-based row number within the table.
	Item int
	// Name is the row's text as printed in the paper.
	Name string
	// Rec holds the recommendation per ASIL A-D (index 0 = ASIL-A).
	Rec [4]Recommendation
}

// RecommendationFor returns the strength at the given ASIL (QM → o).
func (tp *Topic) RecommendationFor(a ASIL) Recommendation {
	if a == QM {
		return NotRequired
	}
	return tp.Rec[int(a)-1]
}

// Ref identifies a table row; rules attach Refs to findings.
type Ref struct {
	Table TableID
	Item  int
}

// String formats like "T8.2" (".2" for an unknown table).
func (r Ref) String() string {
	var buf [24]byte
	return string(r.AppendTo(buf[:0]))
}

// AppendTo appends r.String() to b without allocating a string.
func (r Ref) AppendTo(b []byte) []byte {
	switch r.Table {
	case TableCoding:
		b = append(b, "T1."...)
	case TableArch:
		b = append(b, "T3."...)
	case TableUnit:
		b = append(b, "T8."...)
	default:
		b = append(b, '.')
	}
	return strconv.AppendInt(b, int64(r.Item), 10)
}

// hh/rr/oo shorthands keep the table literals readable.
const (
	oo = NotRequired
	rr = Recommended
	hh = HighlyRecommended
)

// CodingGuidelines reproduces the paper's Table 1 (ISO 26262-6 Table 1).
var CodingGuidelines = []Topic{
	{TableCoding, 1, "Enforcement of low complexity", [4]Recommendation{hh, hh, hh, hh}},
	{TableCoding, 2, "Use language subsets", [4]Recommendation{hh, hh, hh, hh}},
	{TableCoding, 3, "Enforcement of strong typing", [4]Recommendation{hh, hh, hh, hh}},
	{TableCoding, 4, "Use defensive implementation techniques", [4]Recommendation{oo, rr, hh, hh}},
	{TableCoding, 5, "Use established design principles", [4]Recommendation{rr, rr, rr, hh}},
	{TableCoding, 6, "Use unambiguous graphical representation", [4]Recommendation{rr, hh, hh, hh}},
	{TableCoding, 7, "Use style guides", [4]Recommendation{rr, hh, hh, hh}},
	{TableCoding, 8, "Use naming conventions", [4]Recommendation{hh, hh, hh, hh}},
}

// ArchitectureDesign reproduces the paper's Table 2 (ISO 26262-6 Table 3).
var ArchitectureDesign = []Topic{
	{TableArch, 1, "Hierarchical structure of SW components", [4]Recommendation{hh, hh, hh, hh}},
	{TableArch, 2, "Restricted size of software components", [4]Recommendation{hh, hh, hh, hh}},
	{TableArch, 3, "Restricted size of interfaces", [4]Recommendation{rr, rr, rr, rr}},
	{TableArch, 4, "High cohesion in each software component", [4]Recommendation{rr, hh, hh, hh}},
	{TableArch, 5, "Restricted coupling between SW components", [4]Recommendation{rr, hh, hh, hh}},
	{TableArch, 6, "Appropriate scheduling properties", [4]Recommendation{hh, hh, hh, hh}},
	{TableArch, 7, "Restricted use of interrupts", [4]Recommendation{rr, rr, rr, hh}},
}

// UnitDesign reproduces the paper's Table 3 (ISO 26262-6 Table 8).
var UnitDesign = []Topic{
	{TableUnit, 1, "One entry and one exit point in functions", [4]Recommendation{hh, hh, hh, hh}},
	{TableUnit, 2, "No dynamic objects or variables, or else online test during their creation", [4]Recommendation{rr, hh, hh, hh}},
	{TableUnit, 3, "Initialization of variables", [4]Recommendation{hh, hh, hh, hh}},
	{TableUnit, 4, "No multiple use of variable names", [4]Recommendation{rr, hh, hh, hh}},
	{TableUnit, 5, "Avoid global variables or justify usage", [4]Recommendation{rr, rr, hh, hh}},
	{TableUnit, 6, "Limited use of pointers", [4]Recommendation{oo, rr, rr, hh}},
	{TableUnit, 7, "No implicit type conversions", [4]Recommendation{rr, hh, hh, hh}},
	{TableUnit, 8, "No hidden data flow or control flow", [4]Recommendation{rr, hh, hh, hh}},
	{TableUnit, 9, "No unconditional jumps", [4]Recommendation{hh, hh, hh, hh}},
	{TableUnit, 10, "No recursions", [4]Recommendation{rr, rr, hh, hh}},
}

// TableTopics returns the rows of a table.
func TableTopics(t TableID) []Topic {
	switch t {
	case TableCoding:
		return CodingGuidelines
	case TableArch:
		return ArchitectureDesign
	case TableUnit:
		return UnitDesign
	default:
		return nil
	}
}

// Lookup returns the topic for a ref, or nil.
func Lookup(r Ref) *Topic {
	for i, tp := range TableTopics(r.Table) {
		if tp.Item == r.Item {
			return &TableTopics(r.Table)[i]
		}
	}
	return nil
}

// Verdict is the compliance outcome for one topic.
type Verdict int

// Verdict values.
const (
	// NotAssessed means no checker produced evidence for the topic.
	NotAssessed Verdict = iota
	// NotApplicable mirrors the paper's handling of "unambiguous
	// graphical representation" for C/C++ code.
	NotApplicable
	// Compliant: no violations against the topic.
	Compliant
	// PartiallyCompliant: violations exist but are bounded/justifiable.
	PartiallyCompliant
	// NonCompliant: systematic violations.
	NonCompliant
)

// String names the verdict.
func (v Verdict) String() string {
	switch v {
	case NotAssessed:
		return "not-assessed"
	case NotApplicable:
		return "n/a"
	case Compliant:
		return "compliant"
	case PartiallyCompliant:
		return "partial"
	case NonCompliant:
		return "non-compliant"
	default:
		return fmt.Sprintf("Verdict(%d)", int(v))
	}
}

// TopicAssessment is the outcome for one table row.
type TopicAssessment struct {
	Topic      Topic
	Verdict    Verdict
	Violations int
	// Evidence is a short free-text justification (one line).
	Evidence string
	// Effort estimates the remediation cost, mirroring the paper's
	// "limited effort" vs "requires research innovations" split.
	Effort Effort
}

// Effort classifies remediation cost.
type Effort int

// Effort levels.
const (
	EffortNone Effort = iota
	EffortLimited
	EffortModerate
	EffortResearch
)

// String names the effort level.
func (e Effort) String() string {
	switch e {
	case EffortNone:
		return "none"
	case EffortLimited:
		return "limited"
	case EffortModerate:
		return "moderate"
	default:
		return "research"
	}
}

// Gap reports whether the topic blocks certification at the target ASIL:
// a highly recommended topic that is not compliant.
func (ta *TopicAssessment) Gap(target ASIL) bool {
	rec := ta.Topic.RecommendationFor(target)
	if rec == NotRequired {
		return false
	}
	switch ta.Verdict {
	case NonCompliant:
		return true
	case PartiallyCompliant:
		return rec == HighlyRecommended
	default:
		return false
	}
}
