package skeleton

import (
	"bytes"
	"testing"
)

func canonKernel(in, out *Array) *Kernel {
	return &Kernel{
		Name:  "k",
		Loops: []Loop{ParLoop("i", 256), ParLoop("j", 256)},
		Stmts: []Statement{{
			Accesses: []Access{
				LoadOf(in, Idx("i"), Idx("j")),
				LoadOf(in, IdxPlus("i", -1), Idx("j")),
				StoreOf(out, Idx("i"), Idx("j")),
			},
			Flops: 4,
		}},
	}
}

func TestKernelCanonicalIsContentAddressed(t *testing.T) {
	// Two structurally identical kernels built from *different* array
	// objects with the same content must encode identically: the
	// daemon re-parses skeletons per request, so memoization only
	// works if content, not pointer identity, drives the key.
	k1 := canonKernel(NewArray("in", Float32, 256, 256), NewArray("out", Float32, 256, 256))
	k2 := canonKernel(NewArray("in", Float32, 256, 256), NewArray("out", Float32, 256, 256))
	if !bytes.Equal(k1.AppendCanonical(nil), k2.AppendCanonical(nil)) {
		t.Fatal("identical-content kernels encode differently")
	}
}

func TestKernelCanonicalSeparatesContent(t *testing.T) {
	in := NewArray("in", Float32, 256, 256)
	out := NewArray("out", Float32, 256, 256)
	base := canonKernel(in, out)
	enc := func(k *Kernel) []byte { return k.AppendCanonical(nil) }

	mutations := map[string]*Kernel{
		"loop size": {
			Name:  base.Name,
			Loops: []Loop{ParLoop("i", 512), ParLoop("j", 256)},
			Stmts: base.Stmts,
		},
		"sequential loop": {
			Name:  base.Name,
			Loops: []Loop{ParLoop("i", 256), SeqLoop("j", 256)},
			Stmts: base.Stmts,
		},
		"flop count": {
			Name:  base.Name,
			Loops: base.Loops,
			Stmts: []Statement{{Accesses: base.Stmts[0].Accesses, Flops: 5}},
		},
		"index shift": {
			Name:  base.Name,
			Loops: base.Loops,
			Stmts: []Statement{{
				Accesses: []Access{
					LoadOf(in, Idx("i"), Idx("j")),
					LoadOf(in, IdxPlus("i", 1), Idx("j")),
					StoreOf(out, Idx("i"), Idx("j")),
				},
				Flops: 4,
			}},
		},
		"elem type": canonKernel(NewArray("in", Float64, 256, 256), out),
		"irregular index": {
			Name:  base.Name,
			Loops: base.Loops,
			Stmts: []Statement{{
				Accesses: []Access{
					LoadOf(in, IdxIrregular(), Idx("j")),
					LoadOf(in, IdxPlus("i", -1), Idx("j")),
					StoreOf(out, Idx("i"), Idx("j")),
				},
				Flops: 4,
			}},
		},
	}
	baseEnc := enc(base)
	for name, k := range mutations {
		if bytes.Equal(baseEnc, enc(k)) {
			t.Errorf("%s change does not change the encoding", name)
		}
	}
}

func TestKernelCanonicalArrayIdentity(t *testing.T) {
	// One array object referenced twice vs two identical-content
	// array objects: different content (distinct-array analyses count
	// objects), so the encodings must differ.
	a := NewArray("a", Float32, 1024)
	b := NewArray("a", Float32, 1024)
	one := &Kernel{
		Name:  "k",
		Loops: []Loop{ParLoop("i", 1024)},
		Stmts: []Statement{{Accesses: []Access{
			LoadOf(a, Idx("i")),
			StoreOf(a, Idx("i")),
		}}},
	}
	two := &Kernel{
		Name:  "k",
		Loops: []Loop{ParLoop("i", 1024)},
		Stmts: []Statement{{Accesses: []Access{
			LoadOf(a, Idx("i")),
			StoreOf(b, Idx("i")),
		}}},
	}
	if bytes.Equal(one.AppendCanonical(nil), two.AppendCanonical(nil)) {
		t.Fatal("array identity is not part of the encoding")
	}
}

func TestSequenceCanonicalCrossKernelIdentity(t *testing.T) {
	// The same holds across kernels of a sequence: sharing one array
	// between two kernels (data stays resident) differs from each
	// kernel owning its identical-content copy.
	mk := func(name string, arr *Array) *Kernel {
		return &Kernel{
			Name:  name,
			Loops: []Loop{ParLoop("i", 1024)},
			Stmts: []Statement{{Accesses: []Access{
				LoadOf(arr, Idx("i")),
				StoreOf(arr, Idx("i")),
			}}},
		}
	}
	shared := NewArray("a", Float32, 1024)
	s1 := &Sequence{Name: "s", Iterations: 2,
		Kernels: []*Kernel{mk("k1", shared), mk("k2", shared)}}
	s2 := &Sequence{Name: "s", Iterations: 2,
		Kernels: []*Kernel{mk("k1", NewArray("a", Float32, 1024)), mk("k2", NewArray("a", Float32, 1024))}}
	if bytes.Equal(s1.AppendCanonical(nil), s2.AppendCanonical(nil)) {
		t.Fatal("cross-kernel array identity is not part of the sequence encoding")
	}
	if !bytes.Equal(s1.AppendCanonical(nil), s1.AppendCanonical(nil)) {
		t.Fatal("sequence encoding is not deterministic")
	}
}

func TestArrayIDsNumberInFirstReferenceOrder(t *testing.T) {
	// Past scanArrays distinct arrays the numbering moves from a scan
	// to a map; both must number exactly as one map would.
	arrays := make([]*Array, 3*scanArrays)
	for i := range arrays {
		arrays[i] = NewArray("a", Float32, 4)
	}
	refs := []int{0, 1, 0, 2, 3, 4, 5, 6, 7, 7, 8, 3, 9, 8, 0, 10, 11, 12, 23, 1, 12, 22}
	var ids arrayIDs
	want := make(map[*Array]int)
	for _, r := range refs {
		a := arrays[r]
		wantID, seen := want[a]
		if !seen {
			wantID = len(want)
			want[a] = wantID
		}
		if id, first := ids.of(a); id != wantID || first == seen {
			t.Fatalf("array %d: got (%d, first=%v), want (%d, first=%v)", r, id, first, wantID, !seen)
		}
	}
}
