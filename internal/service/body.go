package service

// The /report and /findings bodies, rendered once per assessor
// generation and cached as bytes (corpusState.rendered). /findings is
// appended straight from the engine's finding runs; its bytes equal
// encoding/json's encoding of FindingsResponse, which
// TestFindingsBodyMatchesEncodingJSON and FuzzFindingsBody pin.

import (
	"encoding/json"
	"fmt"
	"strconv"

	"repro/internal/core"
	"repro/internal/rules"
)

// reportBody renders the /report body of a: the bytes
// json.NewEncoder(w).Encode writes for BuildReport(name, a).
func reportBody(name string, a *core.Assessor) []byte {
	b, err := json.Marshal(BuildReport(name, a))
	if err != nil {
		panic(fmt.Sprintf("service: report failed to encode: %v", err)) // plain data: only a bug gets here
	}
	return append(b, '\n')
}

// findingsBody renders the /findings body of a from the runs
// core.Assessor.EachFinding yields. Each run is a view of a rule-engine
// segment, which the engine replaces and never writes, and the caller
// holds the corpus read lock, so the runs stay valid until the body is
// built.
func findingsBody(name string, a *core.Assessor) []byte {
	var runs [][]rules.Finding
	a.EachFinding(func(run []rules.Finding) { runs = append(runs, run) })
	return findingsJSON(name, runs)
}

// findingsJSON returns the bytes json.NewEncoder(w).Encode writes for
// FindingsResponse{Corpus: name, Count: len(all), Findings:
// FindingRows(all)}, where all is the runs concatenated, without
// building the rows. The buffer is allocated once: its capacity is the
// body's length before escaping (findingsLen) plus 1/64 for the escapes,
// which the 10k generated corpus's messages need about 0.3% for.
func findingsJSON(name string, runs [][]rules.Finding) []byte {
	size, n := findingsLen(name, runs)
	b := make([]byte, 0, size+size/64)
	b = append(b, `{"corpus":`...)
	b = appendString(b, name)
	b = append(b, `,"count":`...)
	b = strconv.AppendInt(b, int64(n), 10)
	b = append(b, `,"findings":[`...)
	sep := false
	for _, run := range runs {
		for i := range run {
			if sep {
				b = append(b, ',')
			}
			sep = true
			b = appendFinding(b, &run[i])
		}
	}
	return append(b, "]}\n"...)
}

// appendFinding appends f as encoding/json encodes FindingRows' row for
// it: FindingRow's fields in tag order, function omitted when empty and
// refs when there are none.
func appendFinding(b []byte, f *rules.Finding) []byte {
	b = append(b, `{"rule":`...)
	b = appendString(b, f.RuleID)
	b = append(b, `,"severity":`...)
	b = appendString(b, f.Severity.String())
	b = append(b, `,"file":`...)
	b = appendString(b, f.File)
	b = append(b, `,"module":`...)
	b = appendString(b, f.Module)
	b = append(b, `,"line":`...)
	b = strconv.AppendInt(b, int64(f.Line), 10)
	if f.Function != "" {
		b = append(b, `,"function":`...)
		b = appendString(b, f.Function)
	}
	b = append(b, `,"msg":`...)
	b = appendString(b, f.Msg)
	if len(f.Refs) > 0 {
		b = append(b, `,"refs":[`...)
		for i, r := range f.Refs {
			if i > 0 {
				b = append(b, ',')
			}
			// A ref is a table prefix and a decimal: nothing to escape.
			b = append(b, '"')
			b = r.AppendTo(b)
			b = append(b, '"')
		}
		b = append(b, ']')
	}
	return append(b, '}')
}

// findingsLen returns the length findingsJSON's body would have if no
// string needed escaping, and the number of findings in the runs.
func findingsLen(name string, runs [][]rules.Finding) (size, n int) {
	var num [24]byte
	size = len(`{"corpus":"","count":,"findings":[]}`+"\n") + len(name)
	for _, run := range runs {
		n += len(run)
		for i := range run {
			f := &run[i]
			size += len(`{"rule":"","severity":"","file":"","module":"","line":,"msg":""},`) +
				len(f.RuleID) + len(f.Severity.String()) + len(f.File) + len(f.Module) +
				len(strconv.AppendInt(num[:0], int64(f.Line), 10)) + len(f.Msg)
			if f.Function != "" {
				size += len(`,"function":""`) + len(f.Function)
			}
			if len(f.Refs) > 0 {
				// Each ref is quoted; all but the last take a comma.
				size += len(`,"refs":[]`) + 3*len(f.Refs) - 1
				for _, r := range f.Refs {
					size += len(r.AppendTo(num[:0]))
				}
			}
		}
	}
	if n > 0 {
		size-- // the row count above gives the last row a comma too
	}
	return size + len(strconv.AppendInt(num[:0], int64(n), 10)), n
}

// jsonVerbatim marks the bytes encoding/json copies into a quoted string
// unchanged: printable ASCII except '"', '\\' and the HTML-escaped '<',
// '>' and '&'.
var jsonVerbatim = func() (t [256]bool) {
	for c := 0x20; c < 0x80; c++ {
		t[c] = true
	}
	for _, c := range `"\<>&` {
		t[c] = false
	}
	return t
}()

// appendString appends s as encoding/json encodes it. A string of only
// verbatim bytes is quoted as it is; any other goes through json.Marshal,
// so HTML escaping, U+2028/U+2029 and invalid UTF-8 follow the standard
// library's rules exactly.
func appendString(b []byte, s string) []byte {
	for i := 0; i < len(s); i++ {
		if !jsonVerbatim[s[i]] {
			q, _ := json.Marshal(s) // a string always marshals
			return append(b, q...)
		}
	}
	b = append(b, '"')
	b = append(b, s...)
	return append(b, '"')
}
