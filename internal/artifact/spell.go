package artifact

import (
	"slices"
	"sort"

	"repro/internal/par"
)

// This file implements the index's identifier postings: an inverted
// file (Zobel and Moffat, "Inverted Files for Text Search Engines", ACM
// Computing Surveys 2006) from every word of the corpus to the files
// whose source spells it. A word is a maximal run of identifier bytes
// (IsIdentByte) that does not start with a digit, found anywhere in a
// file's source, comments and string literals included; a file spells a
// word exactly when the word occurs in it with no identifier byte on
// either side.
//
// The postings are keyed by the word's 64-bit FNV-1a hash and hold file
// numbers, not paths, so the map holds no pointer and the collector
// never scans it. A collision only adds a file to an answer, as a
// spelling inside a comment does. A word spelled by one file, almost
// every word, stores that file inline; the others point into lists of
// file numbers in ascending order.
//
// The index builds the postings on the first query (Spellers), in
// parallel per file, and Apply keeps them current from then on. Per
// file they keep only the source string they reflect, a header sharing
// the file set's bytes: when a file changes or goes, its old word set is
// re-derived from that string and only the words that differ move, so a
// body edit that keeps every identifier moves none.

// spellers is the identifier postings.
type spellers struct {
	// words maps a word's hash to the number of the one file spelling
	// it, or to listBit|i for lists[i].
	words map[uint64]uint32
	// lists holds the postings of the words more than one file spells;
	// freeLists the indexes of its nil, reusable entries.
	lists     [][]uint32
	freeLists []uint32
	// files holds, by file number, the file's path and the source the
	// postings reflect; num maps each path to its number, and freeFiles
	// lists the numbers of removed files, reused first.
	files     []spelledFile
	num       map[string]uint32
	freeFiles []uint32
	// was and now are scratch word sets for Apply's updates.
	was, now []uint64
}

// spelledFile is one numbered file of the postings.
type spelledFile struct {
	path, src string
}

// listBit marks a words value that indexes lists.
const listBit = 1 << 31

// FNV-1a, 64-bit.
const (
	fnvOffset = 14695981039346656037
	fnvPrime  = 1099511628211
)

// IsIdentByte reports whether c can continue a C/C++ identifier: the
// alphabet of the words the postings index.
func IsIdentByte(c byte) bool {
	return c == '_' || (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || (c >= '0' && c <= '9')
}

// isDigit reports whether c is an ASCII digit.
func isDigit(c byte) bool { return c >= '0' && c <= '9' }

// isWord reports whether w is one word: a non-empty run of identifier
// bytes that does not start with a digit.
func isWord(w string) bool {
	if w == "" || isDigit(w[0]) {
		return false
	}
	for i := 0; i < len(w); i++ {
		if !IsIdentByte(w[i]) {
			return false
		}
	}
	return true
}

// wordHash returns the FNV-1a hash of a word.
func wordHash(w string) uint64 {
	h := uint64(fnvOffset)
	for i := 0; i < len(w); i++ {
		h = (h ^ uint64(w[i])) * fnvPrime
	}
	return h
}

// appendWords appends to dst the hashes of the distinct words src
// spells, in ascending order.
func appendWords(dst []uint64, src string) []uint64 {
	lo := len(dst)
	for i := 0; i < len(src); {
		if !IsIdentByte(src[i]) {
			i++
			continue
		}
		digit := isDigit(src[i])
		h := uint64(fnvOffset)
		for ; i < len(src) && IsIdentByte(src[i]); i++ {
			h = (h ^ uint64(src[i])) * fnvPrime
		}
		if !digit {
			dst = append(dst, h)
		}
	}
	slices.Sort(dst[lo:])
	return dst[:lo+len(slices.Compact(dst[lo:]))]
}

// Spellers returns the paths of the files whose source spells word as a
// whole identifier, in path order: an occurrence with no identifier
// byte (IsIdentByte) on either side, in code, comments and string
// literals alike. A hash collision may add a file that does not spell
// word, never drop one that does. A word that is not a run of
// identifier bytes starting with a non-digit, the empty word included,
// selects every file (Paths). The slice must not be mutated.
//
// The first call builds the postings, and every later Apply keeps them
// current, so like Apply, Spellers is not safe for concurrent use with
// readers of the index.
func (ix *Index) Spellers(word string) []string {
	if !isWord(word) {
		return ix.Paths
	}
	if ix.spell == nil {
		ix.spell = buildSpellers(ix)
	}
	sp := ix.spell
	v, ok := sp.words[wordHash(word)]
	switch {
	case !ok:
		return nil
	case v&listBit == 0:
		return []string{sp.files[v].path}
	}
	l := sp.lists[v&^listBit]
	out := make([]string, len(l))
	for i, n := range l {
		out[i] = sp.files[n].path
	}
	sort.Strings(out)
	return out
}

// buildSpellers builds the postings of every indexed file, numbered in
// path order. Each worker derives a file's word set in its own scratch
// buffer and keeps an exact-size copy; every list is then allocated
// once, at its final size, and filled in file-number order, so it is
// born sorted.
func buildSpellers(ix *Index) *spellers {
	n := len(ix.Paths)
	sp := &spellers{
		words: make(map[uint64]uint32),
		files: make([]spelledFile, n),
		num:   make(map[string]uint32, n),
	}
	for i, p := range ix.Paths {
		sp.files[i] = spelledFile{path: p, src: ix.Units[p].File.Src}
		sp.num[p] = uint32(i)
	}
	workers := par.Workers(n)
	scratch, sets := make([][]uint64, workers), make([][]uint64, n)
	par.ForWorkers(workers, n, func(w, i int) {
		scratch[w] = appendWords(scratch[w][:0], sp.files[i].src)
		sets[i] = slices.Clone(scratch[w])
	})

	// extra counts, per word more than one file spells, the files past
	// the first.
	extra := make(map[uint64]uint32)
	for i := range n {
		for _, h := range sets[i] {
			if _, ok := sp.words[h]; ok {
				extra[h]++
			} else {
				sp.words[h] = uint32(i)
			}
		}
	}
	for i := range n {
		for _, h := range sets[i] {
			c, shared := extra[h]
			if !shared {
				continue
			}
			v := sp.words[h]
			if v&listBit == 0 {
				v = listBit | uint32(len(sp.lists))
				sp.words[h] = v
				sp.lists = append(sp.lists, make([]uint32, 0, c+1))
			}
			sp.lists[v&^listBit] = append(sp.lists[v&^listBit], uint32(i))
		}
	}
	return sp
}

// upsert moves the postings of the file under p to src: a new file
// takes a number and all its words, a changed one moves only the words
// its old and new sources do not share. It does nothing before the
// postings are built.
func (sp *spellers) upsert(p, src string) {
	if sp == nil {
		return
	}
	n, ok := sp.num[p]
	if !ok {
		// A new file starts from an empty source, so all its words move.
		n = uint32(len(sp.files))
		if k := len(sp.freeFiles); k > 0 {
			n, sp.freeFiles = sp.freeFiles[k-1], sp.freeFiles[:k-1]
		} else {
			sp.files = append(sp.files, spelledFile{})
		}
		sp.files[n].path, sp.num[p] = p, n
	}
	old := sp.files[n].src
	if old == src {
		return
	}
	sp.files[n].src = src
	sp.was, sp.now = appendWords(sp.was[:0], old), appendWords(sp.now[:0], src)
	was, now := sp.was, sp.now
	for len(was) > 0 || len(now) > 0 {
		switch {
		case len(now) == 0 || len(was) > 0 && was[0] < now[0]:
			sp.drop(was[0], n)
			was = was[1:]
		case len(was) == 0 || now[0] < was[0]:
			sp.add(now[0], n)
			now = now[1:]
		default:
			was, now = was[1:], now[1:]
		}
	}
}

// remove drops every posting of the file under p and frees its number.
// It does nothing before the postings are built.
func (sp *spellers) remove(p string) {
	if sp == nil {
		return
	}
	n, ok := sp.num[p]
	if !ok {
		return
	}
	sp.upsert(p, "")
	delete(sp.num, p)
	sp.files[n] = spelledFile{}
	sp.freeFiles = append(sp.freeFiles, n)
}

// add records that file n spells the word hashed h.
func (sp *spellers) add(h uint64, n uint32) {
	v, ok := sp.words[h]
	switch {
	case !ok:
		sp.words[h] = n
	case v&listBit == 0:
		l := []uint32{v, n}
		if n < v {
			l[0], l[1] = n, v
		}
		k := uint32(len(sp.lists))
		if f := len(sp.freeLists); f > 0 {
			k, sp.freeLists = sp.freeLists[f-1], sp.freeLists[:f-1]
			sp.lists[k] = l
		} else {
			sp.lists = append(sp.lists, l)
		}
		sp.words[h] = listBit | k
	default:
		l := sp.lists[v&^listBit]
		i, _ := slices.BinarySearch(l, n)
		sp.lists[v&^listBit] = slices.Insert(l, i, n)
	}
}

// drop records that file n no longer spells the word hashed h. A list
// left with one file turns back into an inline entry.
func (sp *spellers) drop(h uint64, n uint32) {
	v := sp.words[h]
	if v&listBit == 0 {
		delete(sp.words, h)
		return
	}
	k := v &^ listBit
	l := sp.lists[k]
	if i, found := slices.BinarySearch(l, n); found {
		l = slices.Delete(l, i, i+1)
	}
	if len(l) > 1 {
		sp.lists[k] = l
		return
	}
	sp.words[h] = l[0]
	sp.lists[k] = nil
	sp.freeLists = append(sp.freeLists, k)
}
