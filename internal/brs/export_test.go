package brs

import (
	"sort"
)

// OverlapsAny reports whether the set's section for s's array overlaps s.
func (st *Set) OverlapsAny(s Section) bool {
	cur, ok := st.byArray[s.Array]
	return ok && cur.Overlaps(s)
}

// SortedSections returns the merged sections ordered by array name,
// for deterministic reporting.
func (st *Set) SortedSections() []Section {
	out := st.Sections()
	sort.Slice(out, func(i, j int) bool { return out[i].Array.Name < out[j].Array.Name })
	return out
}
