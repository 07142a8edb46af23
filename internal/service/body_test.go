package service

// The /findings appender must write exactly what encoding/json writes
// for the documented wire schema (FindingsResponse of FindingRows), for
// every string the engine or a client can put in a finding or a corpus
// name, however the stream is split into runs.

import (
	"bytes"
	"compress/gzip"
	"encoding/json"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"net/url"
	"slices"
	"strconv"
	"testing"

	"repro/internal/iso26262"
	"repro/internal/rules"
)

// escapeCases holds a string of each class encoding/json treats
// differently: quote and backslash, control bytes with and without a
// short escape, DEL (copied), the HTML-escaped bytes, the JS line
// separators, invalid and truncated UTF-8, multibyte UTF-8, and empty.
var escapeCases = []string{
	`"`, `\`, "\x00", "\b", "\f", "\n", "\r", "\t", "\x1f", "\x7f",
	"<", ">", "&", "\u2028", "\u2029", "\xff", "\xe2\x80",
	"héllo wörld ✓ 日本", "", `global variable "g_x" in a<b> && c`, "plain_name",
}

// encodedFindings is the oracle: encoding/json's /findings body for the
// stream the runs hold.
func encodedFindings(t testing.TB, corpus string, runs [][]rules.Finding) []byte {
	t.Helper()
	var all []rules.Finding
	for _, run := range runs {
		all = append(all, run...)
	}
	rows := FindingRows(all)
	var b bytes.Buffer
	if err := json.NewEncoder(&b).Encode(FindingsResponse{Corpus: corpus, Count: len(rows), Findings: rows}); err != nil {
		t.Fatal(err)
	}
	return b.Bytes()
}

// findingsJSON renders runs through an empty cache, as the first
// /findings read after /assess does.
func findingsJSON(name string, runs [][]rules.Finding) []byte {
	var c findingsCache
	return c.renderRuns(name, runs)
}

// findingsLen returns the length findingsJSON's body would have if no
// string needed escaping, from the sizing an encoded run takes (rowsLen),
// and the number of findings in the runs.
func findingsLen(name string, runs [][]rules.Finding) (size, n int) {
	size = len(`{"corpus":"","count":,"findings":[]}`+"\n") + len(name)
	parts := 0
	for _, run := range runs {
		if len(run) > 0 {
			size += rowsLen(run)
			n += len(run)
			parts++
		}
	}
	return size + max(parts-1, 0) + len(strconv.Itoa(n)), n
}

// checkFindingsBody compares the appender with the oracle and checks that
// the sizing pass never overestimates: escaping only grows a string.
func checkFindingsBody(t testing.TB, corpus string, runs [][]rules.Finding) {
	t.Helper()
	got, want := findingsJSON(corpus, runs), encodedFindings(t, corpus, runs)
	if !bytes.Equal(got, want) {
		t.Fatalf("findings body differs from encoding/json:\n got %q\nwant %q", got, want)
	}
	if size, _ := findingsLen(corpus, runs); size > len(got) {
		t.Fatalf("findingsLen %d exceeds the %d-byte body", size, len(got))
	}
}

// testFindings covers every string class in every string field, each
// severity (and one out of range), negative, zero and extreme lines, an
// empty function, and refs that are nil, empty, several, or in an unknown
// table.
func testFindings() []rules.Finding {
	refs := [][]iso26262.Ref{
		nil,
		{},
		{{Table: iso26262.TableCoding, Item: 1}},
		{{Table: iso26262.TableArch, Item: 4}, {Table: iso26262.TableUnit, Item: 2}, {Table: iso26262.TableCoding, Item: 120}},
		{{Table: iso26262.TableID(7), Item: 4}},
		{{Table: iso26262.TableUnit, Item: -3}, {Table: iso26262.TableID(-1), Item: math.MaxInt}},
	}
	sevs := []rules.Severity{rules.Info, rules.Warning, rules.Violation, rules.Severity(3), rules.Severity(-1)}
	lines := []int{7, 0, -5, math.MaxInt, math.MinInt, 123456}
	var fs []rules.Finding
	for i, s := range escapeCases {
		fs = append(fs, rules.Finding{
			RuleID:   s,
			Severity: sevs[i%len(sevs)],
			File:     "m/" + s + ".c",
			Module:   s,
			Line:     lines[i%len(lines)],
			Function: s,
			Msg:      "message " + s + " end",
			Refs:     refs[i%len(refs)],
		})
	}
	return fs
}

func TestFindingsBodyMatchesEncodingJSON(t *testing.T) {
	fs := testFindings()

	t.Run("zero findings", func(t *testing.T) {
		for _, runs := range [][][]rules.Finding{nil, {{}}, {nil, {}, nil}} {
			checkFindingsBody(t, "c", runs)
		}
		if got := string(findingsJSON("c", nil)); got != `{"corpus":"c","count":0,"findings":[]}`+"\n" {
			t.Fatalf("empty body %q", got)
		}
	})

	t.Run("runs split at every boundary", func(t *testing.T) {
		for k := 0; k <= len(fs); k++ {
			checkFindingsBody(t, "c", [][]rules.Finding{fs[:k], fs[k:]})
		}
		one := make([][]rules.Finding, 0, 2*len(fs))
		for i := range fs {
			one = append(one, fs[i:i+1], nil)
		}
		checkFindingsBody(t, "c", one)
	})

	t.Run("corpus names", func(t *testing.T) {
		for _, name := range escapeCases {
			checkFindingsBody(t, name, [][]rules.Finding{fs[:3]})
		}
	})

	t.Run("unescaped sizing is exact", func(t *testing.T) {
		plain := []rules.Finding{
			{RuleID: "r", Severity: rules.Warning, File: "m/a.c", Module: "m", Line: 12, Function: "f", Msg: "m",
				Refs: []iso26262.Ref{{Table: iso26262.TableUnit, Item: 2}, {Table: iso26262.TableID(9), Item: -40}}},
			{RuleID: "s", File: "m/b.c", Module: "m", Line: -3, Msg: "no function, no refs", Refs: []iso26262.Ref{}},
		}
		for k := 0; k <= len(plain); k++ {
			runs := [][]rules.Finding{plain[:k], plain[k:]}
			body := findingsJSON("corpus", runs)
			if size, n := findingsLen("corpus", runs); size != len(body) || n != len(plain) {
				t.Fatalf("findingsLen = %d, %d; body is %d bytes of %d findings", size, n, len(body), len(plain))
			}
		}
	})

	// An in-memory server accepts any corpus name; its bodies must equal
	// encoding/json's rendering of the same state, on both encodings.
	t.Run("server", func(t *testing.T) {
		s := New()
		ts := httptest.NewServer(s.Handler())
		defer ts.Close()
		name := "c\"<&>\u2028é" // survives the JSON request: no invalid UTF-8
		files := map[string]string{
			"m<1>/a&b.c": "int g_x;\nint fa(int x) { if (x > 0) { return 1; } return 0; }\n",
			"n/b.c":      "int fb(int x) { fa(x); while (x > 0) { x--; } return x; }\n",
		}
		raw, err := json.Marshal(AssessRequest{Corpus: name, Files: files})
		if err != nil {
			t.Fatal(err)
		}
		resp, err := http.Post(ts.URL+"/assess", "application/json", bytes.NewReader(raw))
		if err != nil {
			t.Fatal(err)
		}
		_ = resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("/assess: %d", resp.StatusCode)
		}

		st := s.corpora[name]
		st.mu.Lock()
		wantF := encodedFindings(t, name, [][]rules.Finding{st.a.Findings()})
		var wantR bytes.Buffer
		err = json.NewEncoder(&wantR).Encode(BuildReport(name, st.a))
		st.mu.Unlock()
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Contains(wantF, []byte(`\"`)) {
			t.Fatalf("no finding message needs escaping; the case checks nothing: %s", wantF)
		}

		cl := &http.Client{Transport: &http.Transport{DisableCompression: true}}
		defer cl.CloseIdleConnections()
		for _, c := range []struct {
			path string
			want []byte
		}{{"/findings", wantF}, {"/report", wantR.Bytes()}} {
			for _, gz := range []bool{false, true} {
				req, err := http.NewRequest(http.MethodGet, ts.URL+c.path+"?corpus="+url.QueryEscape(name), nil)
				if err != nil {
					t.Fatal(err)
				}
				if gz {
					req.Header.Set("Accept-Encoding", "gzip")
				}
				resp, err := cl.Do(req)
				if err != nil {
					t.Fatal(err)
				}
				body, err := io.ReadAll(resp.Body)
				_ = resp.Body.Close()
				if err != nil || resp.StatusCode != http.StatusOK {
					t.Fatalf("%s (gzip %v): %d %v", c.path, gz, resp.StatusCode, err)
				}
				if gz {
					body = gunzip(t, body)
				} else if resp.ContentLength != int64(len(body)) {
					t.Fatalf("%s: Content-Length %d for a %d-byte body", c.path, resp.ContentLength, len(body))
				}
				if !bytes.Equal(body, c.want) {
					t.Fatalf("%s (gzip %v) differs from encoding/json:\n got %q\nwant %q", c.path, gz, body, c.want)
				}
			}
		}
	})
}

func gunzip(t testing.TB, b []byte) []byte {
	t.Helper()
	zr, err := gzip.NewReader(bytes.NewReader(b))
	if err != nil {
		t.Fatal(err)
	}
	out, err := io.ReadAll(zr)
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// FuzzFindingsBody checks the appender against encoding/json for
// arbitrary strings in every field and the corpus name, any line,
// severity, ref table and item, and a run split anywhere in the stream.
// It renders twice through one cache: the second stream takes each run
// of the first as it is, re-split, shortened, as a fresh copy (equal or
// altered), dropped, or after an inserted run, so copied and encoded
// rows mix in every order.
func FuzzFindingsBody(f *testing.F) {
	for i, s := range escapeCases {
		f.Add(s, "rule", "m/a.c", "m", s, "msg "+s, i*7-20, i%5-1, i%4, i, uint8(i), uint16(i*2731))
	}
	f.Add("c", "", "", "", "", "", math.MinInt, math.MaxInt, -1, math.MinInt, uint8(255), uint16(0xffff))
	f.Fuzz(func(t *testing.T, corpus, rule, file, module, function, msg string, line, sev, table, item int, split uint8, edits uint16) {
		fs := []rules.Finding{
			{RuleID: rule, Severity: rules.Severity(sev), File: file, Module: module, Line: line, Function: function, Msg: msg,
				Refs: []iso26262.Ref{{Table: iso26262.TableID(table), Item: item}, {Table: iso26262.TableUnit, Item: 2}}},
			{RuleID: msg, Severity: rules.Severity(sev + 1), File: module, Module: function, Line: -line, Function: file, Msg: rule},
			{RuleID: file, Module: corpus, Msg: corpus, Refs: []iso26262.Ref{}},
		}
		k := int(split) % (len(fs) + 1)
		first := [][]rules.Finding{fs[:k], nil, fs[k:]}
		checkFindingsBody(t, corpus, first)

		var c findingsCache
		render := func(runs [][]rules.Finding) {
			t.Helper()
			if got, want := c.renderRuns(corpus, runs), encodedFindings(t, corpus, runs); !bytes.Equal(got, want) {
				t.Fatalf("cached render differs from encoding/json:\n got %q\nwant %q", got, want)
			}
		}
		render(first)
		var second [][]rules.Finding
		for i, run := range first {
			switch op := edits >> (3 * i) & 7; {
			case op == 1 && len(run) > 1:
				second = append(second, run[:1], run[1:])
			case op == 2 && len(run) > 0:
				second = append(second, run[:len(run)-1])
			case op == 3:
				second = append(second, slices.Clone(run))
			case op == 4 && len(run) > 0:
				alt := slices.Clone(run)
				alt[0].Msg += "~"
				second = append(second, alt)
			case op == 5:
				// dropped
			case op == 6:
				second = append(second, []rules.Finding{{RuleID: function, File: msg, Line: item}}, run)
			default:
				second = append(second, run)
			}
		}
		render(second)
	})
}
