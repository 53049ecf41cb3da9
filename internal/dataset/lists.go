package dataset

import (
	"fmt"
	"slices"
	"unsafe"
)

// Entry is one entry of an attribute list: the attribute value, the global
// record id, and the class label. SPRINT and its descendants carry the
// class label in every list so the split-determining scan needs no extra
// lookups. The two list kinds differ only in the value's type.
type Entry[V float64 | int32] struct {
	Val V
	Rid int32
	Cid uint8
}

// ContEntry is one entry of a continuous attribute list, CatEntry one of a
// categorical list.
type (
	ContEntry = Entry[float64]
	CatEntry  = Entry[int32]
)

// EntrySize is the in-memory size of an Entry[V], used for the
// byte-accurate memory accounting of Figure 3(b).
func EntrySize[V float64 | int32]() int64 { return int64(unsafe.Sizeof(Entry[V]{})) }

// ContEntrySize and CatEntrySize are EntrySize of the two list kinds.
var (
	ContEntrySize = EntrySize[float64]()
	CatEntrySize  = EntrySize[int32]()
)

// Lists holds the vertically fragmented form of a table: one attribute list
// per attribute. Lists may describe a whole training set or one processor's
// horizontal fragment of it.
type Lists struct {
	Schema *Schema
	// Cont[a] is the list for attribute a if continuous, else nil.
	Cont [][]ContEntry
	// Cat[a] is the list for attribute a if categorical, else nil.
	Cat [][]CatEntry
}

// BuildLists fragments the table vertically: every attribute gets its own
// list with entries in record order (so lists are aligned by position until
// the continuous ones are sorted). Record ids start at ridBase, which lets
// one processor build lists for its horizontal block of a larger set.
func BuildLists(t *Table, ridBase int) *Lists {
	l := &Lists{
		Schema: t.Schema,
		Cont:   make([][]ContEntry, len(t.Schema.Attrs)),
		Cat:    make([][]CatEntry, len(t.Schema.Attrs)),
	}
	n := t.NumRows()
	for a, attr := range t.Schema.Attrs {
		if attr.Kind == Continuous {
			list := make([]ContEntry, n)
			for r := 0; r < n; r++ {
				list[r] = ContEntry{Val: t.ContValue(a, r), Rid: int32(ridBase + r), Cid: t.Class[r]}
			}
			l.Cont[a] = list
		} else {
			list := make([]CatEntry, n)
			for r := 0; r < n; r++ {
				list[r] = CatEntry{Val: t.CatValue(a, r), Rid: int32(ridBase + r), Cid: t.Class[r]}
			}
			l.Cat[a] = list
		}
	}
	return l
}

// NumRows returns the length of the lists (identical across attributes).
func (l *Lists) NumRows() int {
	for a := range l.Schema.Attrs {
		if l.Cont[a] != nil {
			return len(l.Cont[a])
		}
		if l.Cat[a] != nil {
			return len(l.Cat[a])
		}
	}
	return 0
}

// Bytes returns the total in-memory size of all lists, for memory metering.
func (l *Lists) Bytes() int64 {
	var b int64
	for a := range l.Schema.Attrs {
		b += int64(len(l.Cont[a])) * ContEntrySize
		b += int64(len(l.Cat[a])) * CatEntrySize
	}
	return b
}

// CompareContEntries is the total order on continuous-list entries: by
// value, ties broken by record id. Record ids are unique, so the order is
// strict — any correct sort, stable or not, yields the same permutation,
// which keeps the induced tree deterministic.
func CompareContEntries(a, b ContEntry) int {
	if a.Val != b.Val {
		if a.Val < b.Val {
			return -1
		}
		return 1
	}
	return int(a.Rid) - int(b.Rid)
}

// SortContinuous sorts every continuous list in CompareContEntries order.
// This is the serial analogue of the presort phase. It keeps the comparator
// sort: the serial and SLIQ oracles sort with it, so the differential tests
// compare the parallel presort's radix sort against an independent sort.
func (l *Lists) SortContinuous() {
	for a := range l.Schema.Attrs {
		list := l.Cont[a]
		if list == nil {
			continue
		}
		slices.SortFunc(list, CompareContEntries)
	}
}

// BlockRange returns the half-open range [lo, hi) of global positions owned
// by rank r when n items are divided over p processors in contiguous blocks
// as evenly as possible (the first n mod p ranks get one extra item).
func BlockRange(n, p, r int) (lo, hi int) {
	if p <= 0 || r < 0 || r >= p {
		panic(fmt.Sprintf("dataset: BlockRange(n=%d, p=%d, r=%d) invalid", n, p, r))
	}
	q, rem := n/p, n%p
	lo = r*q + min(r, rem)
	hi = lo + q
	if r < rem {
		hi++
	}
	return lo, hi
}

// BlockOwner returns the rank owning global position i under BlockRange's
// distribution of n items over p processors.
func BlockOwner(n, p, i int) int {
	if i < 0 || i >= n {
		panic(fmt.Sprintf("dataset: BlockOwner index %d out of range [0,%d)", i, n))
	}
	q, rem := n/p, n%p
	// The first rem ranks own q+1 items each.
	big := rem * (q + 1)
	if i < big {
		return i / (q + 1)
	}
	if q == 0 {
		// i >= big and all remaining blocks are empty: unreachable since
		// i < n = big, but guard for clarity.
		panic("dataset: BlockOwner internal error")
	}
	return rem + (i-big)/q
}
