package forest

import "testing"

// FuzzFromParents checks that arbitrary parent vectors either fail
// validation or produce a forest whose invariants hold — FromParents must
// never accept a malformed structure or panic.
func FuzzFromParents(f *testing.F) {
	f.Add([]byte{0xFF, 0x00, 0x01})       // Root, then children of 0 and 1
	f.Add([]byte{0x01, 0x00})             // 2-cycle
	f.Add([]byte{0xFE, 0xFF, 0x00})       // NotMember, Root, child
	f.Add([]byte{0xFF, 0xFF, 0xFF, 0xFF}) // all roots
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > 64 {
			data = data[:64]
		}
		parents := make([]int, len(data))
		for i, b := range data {
			switch b {
			case 0xFF:
				parents[i] = Root
			case 0xFE:
				parents[i] = NotMember
			default:
				parents[i] = int(b) // may be out of range: must be rejected
			}
		}
		fo, err := FromParents(parents)
		if err != nil {
			return // rejected malformed input: fine
		}
		if err := fo.Validate(); err != nil {
			t.Fatalf("accepted forest fails validation: %v (parents %v)", err, parents)
		}
		total := 0
		for _, s := range fo.TreeSizes() {
			total += s
		}
		if total != fo.NumMembers() {
			t.Fatalf("tree sizes inconsistent for %v", parents)
		}
		// The tree index: a root's index is its position in Roots(),
		// nothing else has one, and sizes by index match a recount.
		roots := fo.Roots()
		if len(fo.TreeSizes()) != len(roots) {
			t.Fatalf("%d tree sizes for %d roots (parents %v)", len(fo.TreeSizes()), len(roots), parents)
		}
		for k, r := range roots {
			if got := fo.RootIndex(r); got != k {
				t.Fatalf("RootIndex(%d) = %d, want %d (parents %v)", r, got, k, parents)
			}
			if fo.TreeSizes()[k] != fo.TreeSize(r) {
				t.Fatalf("TreeSizes()[%d] = %d, TreeSize(%d) = %d", k, fo.TreeSizes()[k], r, fo.TreeSize(r))
			}
		}
		for _, i := range []int{-1, len(parents), NotMember} {
			if got := fo.RootIndex(i); got != -1 {
				t.Fatalf("RootIndex(%d) = %d for an out-of-range id", i, got)
			}
		}
		recount := map[int]int{}
		for i := range parents {
			if fo.IsRoot(i) {
				continue
			}
			if got := fo.RootIndex(i); got != -1 {
				t.Fatalf("non-root %d has index %d (parents %v)", i, got, parents)
			}
			if fo.Member(i) {
				cur := i
				for fo.Parent(cur) >= 0 {
					cur = fo.Parent(cur)
				}
				recount[cur]++
			}
		}
		maxSize, largest := 0, -1
		for _, r := range roots {
			size := recount[r] + 1
			if size != fo.TreeSize(r) {
				t.Fatalf("TreeSize(%d) = %d, recount %d (parents %v)", r, fo.TreeSize(r), size, parents)
			}
			if size > maxSize {
				maxSize, largest = size, r
			}
		}
		if fo.MaxTreeSize() != maxSize {
			t.Fatalf("MaxTreeSize = %d, recount %d (parents %v)", fo.MaxTreeSize(), maxSize, parents)
		}
		if len(roots) > 0 && fo.LargestRoot() != largest {
			t.Fatalf("LargestRoot = %d, recount %d (parents %v)", fo.LargestRoot(), largest, parents)
		}
	})
}
