// Package revctl is a content-addressed, revision-controlled text store.
//
// Robotron keeps config data schemas and templates in Configerator, a
// source-control repository where changes are peer-reviewed (SIGCOMM '16,
// §5.2), backs up running device configs "for quick restoration during
// catastrophic events", and archives every collected running config "in a
// revision control system to track the history of each device config"
// (§5.4.3). This package provides that substrate: per-path revision
// histories with author/message metadata, content hashes, diffs between
// revisions, and rollback to any prior revision.
package revctl

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"sort"
	"strings"
	"sync"

	"github.com/robotron-net/robotron/internal/confdiff"
)

// Revision is one committed version of a path.
type Revision struct {
	Path    string
	Number  int    // 1-based, monotonically increasing per path
	Hash    string // hex SHA-256 of the content
	Author  string
	Message string
	// Seq orders revisions across all paths (commit sequence).
	Seq uint64
}

// Repo is an in-memory revision-controlled store, safe for concurrent use.
type Repo struct {
	mu    sync.RWMutex
	files map[string]*history
	seq   uint64
}

// history keeps the head revision's content whole and every older one as
// a reverse delta against its successor, the way RCS stores files: a
// config that changes by a few lines per revision costs a few lines per
// revision, not a full copy.
type history struct {
	revs []Revision
	head string
	back []delta // back[i] turns revision i+2's content into revision i+1's
}

// delta is a line edit script applied to the newer content.
type delta []deltaOp

type deltaOp struct {
	keep, drop int    // copy keep lines of the newer content, then skip drop
	add        string // then insert this text
}

// splitLines cuts s after every newline, so joining the pieces gives s
// back exactly.
func splitLines(s string) []string {
	if s == "" {
		return nil
	}
	return strings.SplitAfter(s, "\n")
}

// diffBack builds the delta that turns newer into older.
func diffBack(newer, older string) delta {
	var d delta
	for _, e := range confdiff.ComputeLines(splitLines(newer), splitLines(older)).Edits {
		if len(d) == 0 || (e.Kind == confdiff.Equal && d[len(d)-1].add != "") {
			d = append(d, deltaOp{})
		}
		op := &d[len(d)-1]
		switch e.Kind {
		case confdiff.Equal:
			if op.drop > 0 {
				d = append(d, deltaOp{})
				op = &d[len(d)-1]
			}
			op.keep += len(e.Lines)
		case confdiff.Remove:
			op.drop += len(e.Lines)
		case confdiff.Add:
			// Clone: the lines are substrings of older, which must not
			// stay reachable through the delta.
			op.add += strings.Clone(strings.Join(e.Lines, ""))
		}
	}
	return d
}

// apply reconstructs the older content from the newer one.
func (d delta) apply(newer string) string {
	lines := splitLines(newer)
	var b strings.Builder
	b.Grow(len(newer))
	pos := 0
	for _, op := range d {
		for _, l := range lines[pos : pos+op.keep] {
			b.WriteString(l)
		}
		pos += op.keep + op.drop
		b.WriteString(op.add)
	}
	return b.String()
}

// content reconstructs revision number (1-based) by walking the reverse
// deltas back from the head.
func (h *history) content(number int) string {
	c := h.head
	for i := len(h.revs) - 2; i >= number-1; i-- {
		c = h.back[i].apply(c)
	}
	return c
}

// NewRepo creates an empty repository.
func NewRepo() *Repo {
	return &Repo{files: make(map[string]*history)}
}

// Hash returns the content hash used by the repository.
func Hash(content string) string {
	sum := sha256.Sum256([]byte(content))
	return hex.EncodeToString(sum[:])
}

// Commit stores a new revision of path. Committing identical content to
// the current head is a no-op returning the head revision, so periodic
// config backups don't balloon history.
func (r *Repo) Commit(path, content, author, message string) (Revision, error) {
	if path == "" {
		return Revision{}, fmt.Errorf("revctl: empty path")
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	h, ok := r.files[path]
	if !ok {
		h = &history{}
		r.files[path] = h
	}
	hash := Hash(content)
	if n := len(h.revs); n > 0 && h.revs[n-1].Hash == hash {
		return h.revs[n-1], nil
	}
	r.seq++
	rev := Revision{
		Path:    path,
		Number:  len(h.revs) + 1,
		Hash:    hash,
		Author:  author,
		Message: message,
		Seq:     r.seq,
	}
	if len(h.revs) > 0 {
		h.back = append(h.back, diffBack(content, h.head))
	}
	h.revs = append(h.revs, rev)
	h.head = content
	return rev, nil
}

// Head returns the latest revision of a path.
func (r *Repo) Head(path string) (Revision, bool) {
	r.mu.RLock()
	defer r.mu.RUnlock()
	h, ok := r.files[path]
	if !ok || len(h.revs) == 0 {
		return Revision{}, false
	}
	return h.revs[len(h.revs)-1], true
}

// Get returns the content at a specific revision number.
func (r *Repo) Get(path string, number int) (string, error) {
	r.mu.RLock()
	defer r.mu.RUnlock()
	h, ok := r.files[path]
	if !ok {
		return "", fmt.Errorf("revctl: no such path %q", path)
	}
	if number < 1 || number > len(h.revs) {
		return "", fmt.Errorf("revctl: %s has no revision %d (head is %d)", path, number, len(h.revs))
	}
	return h.content(number), nil
}

// GetHead returns the latest content of a path.
func (r *Repo) GetHead(path string) (string, error) {
	r.mu.RLock()
	defer r.mu.RUnlock()
	h, ok := r.files[path]
	if !ok || len(h.revs) == 0 {
		return "", fmt.Errorf("revctl: no such path %q", path)
	}
	return h.head, nil
}

// History returns all revisions of a path, oldest first.
func (r *Repo) History(path string) ([]Revision, error) {
	r.mu.RLock()
	defer r.mu.RUnlock()
	h, ok := r.files[path]
	if !ok {
		return nil, fmt.Errorf("revctl: no such path %q", path)
	}
	return append([]Revision(nil), h.revs...), nil
}

// Paths lists all stored paths in lexical order.
func (r *Repo) Paths() []string {
	r.mu.RLock()
	defer r.mu.RUnlock()
	out := make([]string, 0, len(r.files))
	for p := range r.files {
		out = append(out, p)
	}
	sort.Strings(out)
	return out
}

// Diff returns the unified diff between two revisions of a path.
func (r *Repo) Diff(path string, from, to int) (string, error) {
	a, err := r.Get(path, from)
	if err != nil {
		return "", err
	}
	b, err := r.Get(path, to)
	if err != nil {
		return "", err
	}
	return confdiff.Compute(a, b).Unified(3), nil
}

// Rollback commits the content of an old revision as a new head revision,
// the paper's "rollback to any prior device config upon disasters".
func (r *Repo) Rollback(path string, toNumber int, author string) (Revision, error) {
	content, err := r.Get(path, toNumber)
	if err != nil {
		return Revision{}, err
	}
	return r.Commit(path, content, author, fmt.Sprintf("rollback to revision %d", toNumber))
}
