package sklang

import (
	"fmt"

	"grophecy/internal/core"
	"grophecy/internal/datausage"
	"grophecy/internal/skeleton"
)

// Lint warnings: authoring mistakes the parser cannot reject (the
// file is valid) but that usually indicate the skeleton does not say
// what its author meant. skfmt surfaces them with -l.

// Warning is one lint finding.
type Warning struct {
	// Msg is the human-readable description.
	Msg string
}

// String implements fmt.Stringer.
func (w Warning) String() string { return w.Msg }

// Info is the declaration-level metadata Parse gathers, for tools
// that need more than the assembled workload.
type Info struct {
	// Arrays are all declared arrays, in declaration order —
	// including ones no kernel references.
	Arrays []*skeleton.Array
	// Kernels are all declared kernels, in declaration order —
	// including ones the sequence does not run.
	Kernels []*skeleton.Kernel
}

// ParseWithInfo is Parse, additionally returning the declaration
// metadata.
func ParseWithInfo(src string) (core.Workload, Info, error) {
	p := newParser(src)
	w, err := p.parseFile()
	if err = p.checkLex(err); err != nil {
		return core.Workload{}, Info{}, err
	}
	info := Info{}
	for _, name := range p.arrayOrder {
		info.Arrays = append(info.Arrays, p.arrays[name])
	}
	for _, name := range p.kernelOrder {
		info.Kernels = append(info.Kernels, p.kernels[name])
	}
	return w, info, nil
}

// Lint parses the source and reports authoring warnings. A parse
// error is returned as an error, not a warning.
func Lint(src string) ([]Warning, error) {
	w, info, err := ParseWithInfo(src)
	if err != nil {
		return nil, err
	}
	var warns []Warning
	warnf := func(format string, args ...interface{}) {
		warns = append(warns, Warning{Msg: fmt.Sprintf(format, args...)})
	}

	// Unused declarations.
	used := make(map[*skeleton.Array]bool)
	for _, arr := range w.Seq.Arrays() {
		used[arr] = true
	}
	for _, arr := range info.Arrays {
		if !used[arr] {
			warnf("array %q is declared but never accessed", arr.Name)
		}
	}
	inSeq := make(map[*skeleton.Kernel]bool)
	for _, k := range w.Seq.Kernels {
		inSeq[k] = true
	}
	for _, k := range info.Kernels {
		if !inSeq[k] {
			warnf("kernel %q is declared but not in the sequence", k.Name)
		}
	}

	// Hint contradictions, via the actual analysis.
	plan, err := datausage.Analyze(w.Seq, w.Hints)
	if err != nil {
		return nil, err
	}
	for _, up := range plan.Uploads {
		if up.Array().Temporary {
			warnf("temporary array %q is read before any kernel writes it, forcing an upload — the temporary hint is probably wrong",
				up.Array().Name)
		}
	}

	// Sparse flags that change nothing.
	for _, arr := range info.Arrays {
		if !arr.Sparse || !used[arr] {
			continue
		}
		irregular := false
		for _, k := range w.Seq.Kernels {
			for _, ac := range k.Accesses() {
				if ac.Array == arr && ac.IrregularIndex() {
					irregular = true
				}
			}
		}
		if !irregular {
			// Not wrong — affine streams into sparse arrays are real
			// (CSR values) — but worth confirming the author meant
			// the conservative whole-array transfer.
			warnf("sparse array %q is only accessed with affine indices; the sparse flag forces a conservative whole-array transfer — confirm that is intended",
				arr.Name)
		}
	}

	// Work-free statements.
	for _, k := range w.Seq.Kernels {
		for i, st := range k.Stmts {
			if st.Flops == 0 && st.IntOps == 0 && st.Transcendentals == 0 {
				warnf("kernel %q statement %d has no arithmetic (flops/intops/transc all zero) — the computational intensity will be underestimated",
					k.Name, i)
			}
		}
	}

	// Thread-starved kernels: fewer parallel iterations than one
	// wave of the smallest sensible launch.
	for _, k := range w.Seq.Kernels {
		if k.ParallelIterations() < 1024 {
			warnf("kernel %q has only %d parallel iterations — a GPU launch cannot hide latency at this scale",
				k.Name, k.ParallelIterations())
		}
	}
	return warns, nil
}
