package httpkit

import (
	"strconv"
	"strings"
)

// JobTable is a service's job index: records by ID in registration
// order, bounded on the records that are over. Once it holds more than
// max records, Add drops the oldest terminal ones first; a live record
// is never dropped, so only live records can hold it past max. It is
// not safe for concurrent use: callers guard it with their own lock.
type JobTable[J any] struct {
	max      int
	id       func(J) string
	terminal func(J) bool
	byID     map[string]J
	order    []J // oldest first
}

// NewJobTable returns an empty table keeping at most max records past
// the live ones; id and terminal read a record's ID and whether it is
// over.
func NewJobTable[J any](max int, id func(J) string, terminal func(J) bool) *JobTable[J] {
	return &JobTable[J]{max: max, id: id, terminal: terminal, byID: make(map[string]J)}
}

// Add registers j, then drops the oldest terminal records while more
// than max are held.
func (t *JobTable[J]) Add(j J) {
	t.byID[t.id(j)] = j
	t.order = append(t.order, j)
	for len(t.order) > t.max && t.dropOldestTerminal() {
	}
}

// dropOldestTerminal removes the oldest terminal record, reporting
// false when every record is live.
func (t *JobTable[J]) dropOldestTerminal() bool {
	for i, j := range t.order {
		if !t.terminal(j) {
			continue
		}
		delete(t.byID, t.id(j))
		var zero J
		if i == 0 {
			t.order[0] = zero
			t.order = t.order[1:]
		} else {
			copy(t.order[i:], t.order[i+1:])
			t.order[len(t.order)-1] = zero
			t.order = t.order[:len(t.order)-1]
		}
		return true
	}
	return false
}

// Get returns the record registered under id, if it is still held.
func (t *JobTable[J]) Get(id string) (J, bool) {
	j, ok := t.byID[id]
	return j, ok
}

// All returns the held records, oldest first. The slice is the table's
// own: read it under the caller's lock and do not modify it.
func (t *JobTable[J]) All() []J { return t.order }

// IDSeq reads the sequence number of a job ID minted as prefix, then
// decimal digits, then the end or a '-' (s000012-1a2b3c4d, fb000007).
// It lets a service tell an ID it issued and has since dropped (410)
// from one it never issued (404).
func IDSeq(id, prefix string) (int64, bool) {
	digits, ok := strings.CutPrefix(id, prefix)
	if !ok {
		return 0, false
	}
	if i := strings.IndexByte(digits, '-'); i >= 0 {
		digits = digits[:i]
	}
	if digits == "" || strings.Trim(digits, "0123456789") != "" {
		return 0, false
	}
	seq, err := strconv.ParseInt(digits, 10, 64)
	if err != nil || seq == 0 {
		return 0, false
	}
	return seq, true
}
