package topo

import (
	"cmp"
	"slices"
)

// LinkRef names an undirected inter-AS link by its endpoints.
type LinkRef struct {
	A, B int
}

// RemoveLinks returns a copy of g without the given links. Links that do
// not exist (an endpoint out of range and a == b included) and repeats of a
// link are ignored. The result shares no state with g.
//
// Only the adjacency rows of the ASes named in remove are filtered; what
// lies between two of them is copied in one piece, in the Neighbors arena
// and in the relationship-grouped view alike. Rows stay sorted (filtering
// preserves order) and removal cannot introduce a provider-customer cycle,
// so no rebuild through Builder — and no re-sort or cycle check — is
// needed. For the same reason g's provider-first order is copied as it is:
// losing a provider leaves every AS still after those it keeps, though a
// rebuild might list them differently. The error return is kept for
// call-site compatibility; it is always nil.
func RemoveLinks(g *Graph, remove []LinkRef) (*Graph, error) {
	n := int32(g.N())
	nbrCut := make([]rowCut, 0, 2*len(remove))
	grpCut := make([]rowCut, 0, 2*len(remove))
	for _, l := range remove {
		if rel, ok := g.Rel(l.A, l.B); ok {
			a, b := int32(l.A), int32(l.B)
			nbrCut = append(nbrCut, rowCut{a, b}, rowCut{b, a})
			grpCut = append(grpCut, rowCut{int32(rel)*n + a, b}, rowCut{int32(rel.Invert())*n + b, a})
		}
	}
	out := &Graph{order: slices.Clone(g.order), pcLinks: g.pcLinks, peerLinks: g.peerLinks}
	grpCut = sortedUnique(grpCut)
	for _, c := range grpCut {
		switch {
		case c.row < n: // a customer entry: one per provider-customer link
			out.pcLinks--
		case c.row < 2*n && c.row-n < c.as: // the lower endpoint's entry of a peering link
			out.peerLinks--
		}
	}
	out.off, out.nbrs = dropEntries(g.off, g.nbrs, sortedUnique(nbrCut), func(nb Neighbor) int32 { return nb.AS })
	out.goff, out.grp = dropEntries(g.goff, g.grp, grpCut, func(u int32) int32 { return u })
	return out, nil
}

// rowCut names one entry to drop from a CSR row: the one for neighbor as.
type rowCut struct {
	row, as int32
}

func sortedUnique(cut []rowCut) []rowCut {
	slices.SortFunc(cut, func(a, b rowCut) int {
		return cmp.Or(cmp.Compare(a.row, b.row), cmp.Compare(a.as, b.as))
	})
	return slices.Compact(cut)
}

// dropEntries copies the CSR arrays (off, data) without the entries cut
// names. cut is sorted and free of repeats, every entry it names exists,
// and each row of data ascends by asOf, so one merge walk per named row
// finds them; the rows in between move as a block.
func dropEntries[E any](off []int32, data []E, cut []rowCut, asOf func(E) int32) ([]int32, []E) {
	outOff := make([]int32, len(off))
	outData := make([]E, len(data)-len(cut))
	// Rows below row are done. An entry at position i of data lands at
	// i-shift.
	var row, shift int32
	for len(cut) > 0 {
		r := cut[0].row
		copy(outData[off[row]-shift:], data[off[row]:off[r]])
		for i := row + 1; i <= r; i++ {
			outOff[i] = off[i] - shift
		}
		w := off[r] - shift
		for _, e := range data[off[r]:off[r+1]] {
			if len(cut) > 0 && cut[0] == (rowCut{r, asOf(e)}) {
				cut = cut[1:]
				shift++
				continue
			}
			outData[w] = e
			w++
		}
		row = r + 1
		outOff[row] = w
	}
	copy(outData[off[row]-shift:], data[off[row]:])
	for i := int(row) + 1; i < len(off); i++ {
		outOff[i] = off[i] - shift
	}
	return outOff, outData
}
