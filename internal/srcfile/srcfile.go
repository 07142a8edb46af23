// Package srcfile models the source code under assessment: files,
// positions, languages, and the module taxonomy of an autonomous-driving
// framework (Figure 1 of the paper).
//
// The assessment toolchain never touches the real filesystem for its
// subjects; sources are held in a FileSet so that synthetic corpora,
// bundled samples, and user-provided trees are handled uniformly.
package srcfile

import (
	"fmt"
	"path"
	"sort"
	"strings"
)

// Language identifies the dialect a source file is written in. The paper's
// subject mixes C, C++, and CUDA; the parser accepts a superset but
// checkers use the language to decide which rules apply (e.g. MISRA C rules
// apply to C and to the C-like subset of C++ used in Apollo).
type Language int

const (
	// LangC is ISO C (C99-flavoured subset).
	LangC Language = iota
	// LangCPP is C++ (the restricted dialect the frontend understands).
	LangCPP
	// LangCUDA is CUDA C/C++: LangCPP plus kernel qualifiers and launches.
	LangCUDA
	// LangHeader is a C/C++ header; treated as LangCPP for parsing.
	LangHeader
)

// String returns the conventional name of the language.
func (l Language) String() string {
	switch l {
	case LangC:
		return "C"
	case LangCPP:
		return "C++"
	case LangCUDA:
		return "CUDA"
	case LangHeader:
		return "header"
	default:
		return fmt.Sprintf("Language(%d)", int(l))
	}
}

// LanguageForPath infers the language from a file extension.
func LanguageForPath(p string) Language {
	switch strings.ToLower(path.Ext(p)) {
	case ".c":
		return LangC
	case ".cu", ".cuh":
		return LangCUDA
	case ".h", ".hpp", ".hh":
		return LangHeader
	default:
		return LangCPP
	}
}

// Pos is a position within a file: 1-based line and column plus byte offset.
type Pos struct {
	Line   int
	Col    int
	Offset int
}

// String formats the position as line:col.
func (p Pos) String() string { return fmt.Sprintf("%d:%d", p.Line, p.Col) }

// Before reports whether p precedes q in the file.
func (p Pos) Before(q Pos) bool { return p.Offset < q.Offset }

// Span is a half-open source range [Start, End).
type Span struct {
	Start Pos
	End   Pos
}

// String formats the span as start-end.
func (s Span) String() string { return s.Start.String() + "-" + s.End.String() }

// File is one source file under assessment.
type File struct {
	// Path is the corpus-relative path, e.g. "perception/yolo/region_layer.c".
	Path string
	// Module is the top-level AD module this file belongs to ("perception",
	// "planning", ...). Derived from the first path segment when empty.
	Module string
	// Lang is the dialect; derived from the extension when files are added
	// through FileSet.Add.
	Lang Language
	// Src is the file content.
	Src string
}

// ModuleName returns the explicit module, or the first path segment.
func (f *File) ModuleName() string {
	if f.Module != "" {
		return f.Module
	}
	if i := strings.IndexByte(f.Path, '/'); i >= 0 {
		return f.Path[:i]
	}
	return f.Path
}

// Base returns the file name without directories.
func (f *File) Base() string { return path.Base(f.Path) }

// LineCount returns the number of physical lines in the file. A final
// line without a trailing newline still counts; CRLF terminators count
// once (the count follows '\n').
func (f *File) LineCount() int {
	if f.Src == "" {
		return 0
	}
	n := strings.Count(f.Src, "\n")
	if !strings.HasSuffix(f.Src, "\n") {
		n++
	}
	return n
}

// Line returns the 1-based line text (without the newline and without a
// trailing '\r' from CRLF input), or "" out of range.
func (f *File) Line(n int) string {
	if n < 1 {
		return ""
	}
	cur := 1
	start := 0
	for i := 0; i < len(f.Src); i++ {
		if f.Src[i] == '\n' {
			if cur == n {
				return trimCR(f.Src[start:i])
			}
			cur++
			start = i + 1
		}
	}
	if cur == n && start < len(f.Src) {
		return trimCR(f.Src[start:])
	}
	return ""
}

// trimCR drops one trailing carriage return (CRLF line endings).
func trimCR(s string) string {
	if strings.HasSuffix(s, "\r") {
		return s[:len(s)-1]
	}
	return s
}

// FileSet is an ordered collection of files forming a corpus. It is
// internally partitioned into module-keyed shards (maintained
// incrementally by Add/Remove), so per-module views — the unit the
// sharded assessment pipeline works in — cost O(shard), not a corpus
// scan.
type FileSet struct {
	files    []*File
	byPath   map[string]*File
	byModule map[string][]*File
}

// NewFileSet returns an empty file set.
func NewFileSet() *FileSet {
	return &FileSet{
		byPath:   make(map[string]*File),
		byModule: make(map[string][]*File),
	}
}

// Add inserts a file, inferring language and module when unset.
// Adding a path twice replaces the previous content.
func (fs *FileSet) Add(f *File) *File {
	if f.Lang == LangCPP && f.Path != "" {
		f.Lang = LanguageForPath(f.Path)
	}
	if f.Module == "" {
		f.Module = f.ModuleName()
	}
	if old, ok := fs.byPath[f.Path]; ok {
		oldMod := old.ModuleName()
		*old = *f
		if newMod := old.ModuleName(); newMod != oldMod {
			fs.moduleRemove(oldMod, old)
			fs.byModule[newMod] = append(fs.byModule[newMod], old)
		}
		return old
	}
	fs.files = append(fs.files, f)
	fs.byPath[f.Path] = f
	fs.byModule[f.ModuleName()] = append(fs.byModule[f.ModuleName()], f)
	return f
}

// moduleRemove drops a file from its module shard, preserving order.
func (fs *FileSet) moduleRemove(mod string, f *File) {
	bucket := fs.byModule[mod]
	for i, ff := range bucket {
		if ff == f {
			fs.byModule[mod] = append(bucket[:i], bucket[i+1:]...)
			break
		}
	}
	if len(fs.byModule[mod]) == 0 {
		delete(fs.byModule, mod)
	}
}

// AddSource is a convenience wrapper building a File from path and content.
func (fs *FileSet) AddSource(path, src string) *File {
	return fs.Add(&File{Path: path, Lang: LanguageForPath(path), Src: src})
}

// Remove deletes the file at path, preserving the order of the rest.
// It reports whether a file was removed.
func (fs *FileSet) Remove(path string) bool {
	f, ok := fs.byPath[path]
	if !ok {
		return false
	}
	delete(fs.byPath, path)
	fs.moduleRemove(f.ModuleName(), f)
	for i, ff := range fs.files {
		if ff.Path == path {
			fs.files = append(fs.files[:i], fs.files[i+1:]...)
			break
		}
	}
	return true
}

// Lookup returns the file at path, or nil.
func (fs *FileSet) Lookup(path string) *File { return fs.byPath[path] }

// Files returns the files in insertion order. The slice must not be mutated.
func (fs *FileSet) Files() []*File { return fs.files }

// Len returns the number of files.
func (fs *FileSet) Len() int { return len(fs.files) }

// Modules returns the sorted list of distinct module names.
func (fs *FileSet) Modules() []string {
	out := make([]string, 0, len(fs.byModule))
	for m := range fs.byModule {
		out = append(out, m)
	}
	sort.Strings(out)
	return out
}

// ModuleFiles returns the files belonging to a module, in insertion
// order. The slice is the maintained module shard; it must not be
// mutated.
func (fs *FileSet) ModuleFiles(module string) []*File {
	return fs.byModule[module]
}

// TotalLines returns the number of physical lines across the corpus.
func (fs *FileSet) TotalLines() int {
	n := 0
	for _, f := range fs.files {
		n += f.LineCount()
	}
	return n
}
