package service

// The /report and /findings bodies, rendered once per assessor
// generation and cached as bytes (corpusState.rendered). /findings is
// appended straight from the engine's finding runs, and each corpus
// keeps its previous /findings body (findingsCache), so a render after a
// delta copies the rows of every run the engine still yields and encodes
// only the runs the delta replaced. Its bytes equal encoding/json's
// encoding of FindingsResponse, which TestFindingsBodyMatchesEncodingJSON,
// TestFindingsBodyReusesRuns and FuzzFindingsBody pin.

import (
	"encoding/json"
	"fmt"
	"strconv"

	"repro/internal/core"
	"repro/internal/obs"
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

// findingsCache is a corpus's previous /findings body and, for each
// finding run it was rendered from, where that run's rows sit in it. A
// render copies the rows of every run the engine yields again (same
// first element, same length) and encodes only the others; with nothing
// cached, as after /assess, it encodes every run.
//
// Run identity is enough. A run is a view of a rule-engine segment,
// which the engine replaces and never writes (rules.Sharded.Stream), and
// a key holds its segment reachable, so no other segment can take that
// address while the entry exists: the same first element and length are
// the same findings, and their rows the same bytes.
//
// corpusState owns one, guarded by projMu. It is not dropped when the
// generation advances, because it is the previous body, not the current
// one; it goes away with its corpusState.
type findingsCache struct {
	body []byte
	// spans maps the first element of each run of body to the run's
	// length and the byte range of its rows in body: the commas between
	// the rows included, the separators around the run excluded. next
	// is the map the render in progress fills; the two swap when it
	// ends, so only the latest render's runs are kept.
	spans, next map[*rules.Finding]span
	runs        [][]rules.Finding // the render in progress's runs
	head        []byte            // the render in progress's header
	// encoded observes the rows each render encodes; nil observes
	// nothing.
	encoded *obs.Histogram
}

// span locates one run's rows in a findingsCache body.
type span struct{ n, start, end int }

// render returns the /findings body of a: the bytes
// json.NewEncoder(w).Encode writes for FindingsResponse{Corpus: name,
// Count: len(fs), Findings: FindingRows(fs)} with fs = a.Findings(),
// built from the runs a.EachFinding yields without merging them. The
// caller holds the corpus read lock, so the runs stay valid until the
// body is built.
func (c *findingsCache) render(name string, a *core.Assessor) []byte {
	a.EachFinding(func(run []rules.Finding) { c.runs = append(c.runs, run) })
	b := c.renderRuns(name, c.runs)
	clear(c.runs) // spans' keys hold what the next render may copy
	c.runs = c.runs[:0]
	return b
}

// renderRuns renders the body of the stream the runs hold into one fresh
// buffer, copying the rows of every run spans holds at the same length
// and encoding the rest, and makes it the cache's body. The buffer's
// capacity is exact for the header and the copied runs; an encoded run
// takes its length before escaping (rowsLen) plus 1/64 for the escapes,
// which the 10k generated corpus's messages need about 0.3% for. The
// engine yields no empty run; one is skipped.
func (c *findingsCache) renderRuns(name string, runs [][]rules.Finding) []byte {
	n, parts, copied, plain := 0, 0, 0, 0
	for _, run := range runs {
		if len(run) == 0 {
			continue
		}
		n += len(run)
		parts++
		if sp, ok := c.spans[&run[0]]; ok && sp.n == len(run) {
			copied += sp.end - sp.start
		} else {
			plain += rowsLen(run)
		}
	}
	c.head = append(c.head[:0], `{"corpus":`...)
	c.head = appendString(c.head, name)
	c.head = append(c.head, `,"count":`...)
	c.head = strconv.AppendInt(c.head, int64(n), 10)
	c.head = append(c.head, `,"findings":[`...)
	b := make([]byte, 0, len(c.head)+max(parts-1, 0)+copied+plain+plain/64+len("]}\n"))
	b = append(b, c.head...)

	if c.next == nil {
		c.next = make(map[*rules.Finding]span, parts)
	}
	encoded, sep := 0, false
	for _, run := range runs {
		if len(run) == 0 {
			continue
		}
		if sep {
			b = append(b, ',')
		}
		sep = true
		start := len(b)
		if sp, ok := c.spans[&run[0]]; ok && sp.n == len(run) {
			b = append(b, c.body[sp.start:sp.end]...)
		} else {
			for i := range run {
				if i > 0 {
					b = append(b, ',')
				}
				b = appendFinding(b, &run[i])
			}
			encoded += len(run)
		}
		c.next[&run[0]] = span{len(run), start, len(b)}
	}
	b = append(b, "]}\n"...)

	c.body = b
	c.spans, c.next = c.next, c.spans
	clear(c.next)
	c.encoded.Observe(int64(encoded))
	return b
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

// rowsLen returns the length of a non-empty run's rows, joined by
// commas, if no string needed escaping. Escaping only lengthens a
// string, so it never exceeds the encoded length.
func rowsLen(run []rules.Finding) int {
	var num [24]byte
	size := -1 // n rows take n-1 commas
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
	return size
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
