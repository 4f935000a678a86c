package sklang

import (
	"errors"
	"fmt"
	"os"
	"sort"
	"strings"

	"grophecy/internal/cpumodel"
	"grophecy/internal/program"
	"grophecy/internal/skeleton"
)

// Multi-phase program support: instead of one `sequence`, a skeleton
// file may declare several `phase` blocks:
//
//	phase iterations=4 {
//	    run denoise
//	    run sharpen
//	    cpu_reads img        # inter-phase CPU code consumes img
//	    cpu_writes img       # ...and modifies it (invalidates the GPU copy)
//	}
//
// Phases execute in declaration order; internal/program plans their
// transfers with GPU-residency tracking. A file declares either one
// `sequence` (a single-region workload, Parse) or one-or-more `phase`
// blocks (a program, ParseProgram), never both.

// ErrNotProgram is returned by ParseProgram when the source is a
// single-sequence workload file (use Parse instead).
var ErrNotProgram = errors.New("sklang: file has no phase declarations")

// ErrNotWorkload is returned by Parse when the source declares phases
// (use ParseProgram instead).
var ErrNotWorkload = errors.New("sklang: file declares phases; use ParseProgram")

// ProgramWorkload couples a parsed multi-phase program with its
// whole-program CPU baseline.
type ProgramWorkload struct {
	Name     string
	DataSize string
	Prog     *program.Program
	CPU      cpumodel.Workload
}

// parsedPhase is the parser's raw phase record.
type parsedPhase struct {
	iterations int
	kernels    []string
	cpuReads   []string
	cpuWrites  []string
	at         pos
}

// parsePhase parses one phase block.
func (p *parser) parsePhase() error {
	at := p.cur().Pos
	p.advance() // 'phase'
	ph := parsedPhase{iterations: 1, at: at}
	if p.atKeyword("iterations") {
		p.advance()
		if _, err := p.expect(tokAssign); err != nil {
			return err
		}
		v, err := p.parseInt()
		if err != nil {
			return err
		}
		ph.iterations = int(v)
	}
	if _, err := p.expect(tokLBrace); err != nil {
		return err
	}
	for p.cur().Kind != tokRBrace {
		t := p.cur()
		switch {
		case p.atKeyword("run"):
			p.advance()
			name, err := p.expect(tokIdent)
			if err != nil {
				return err
			}
			ph.kernels = append(ph.kernels, name.Text)
		case p.atKeyword("cpu_reads"):
			p.advance()
			name, err := p.expect(tokIdent)
			if err != nil {
				return err
			}
			ph.cpuReads = append(ph.cpuReads, name.Text)
		case p.atKeyword("cpu_writes"):
			p.advance()
			name, err := p.expect(tokIdent)
			if err != nil {
				return err
			}
			ph.cpuWrites = append(ph.cpuWrites, name.Text)
		default:
			return errorf(t.Pos, "expected 'run', 'cpu_reads', 'cpu_writes', or '}', found %q", t.Text)
		}
	}
	p.advance() // '}'
	if len(ph.kernels) == 0 {
		return errorf(at, "phase runs no kernels")
	}
	p.phases = append(p.phases, ph)
	return nil
}

// finishProgram assembles a ProgramWorkload from the parsed phases.
func (p *parser) finishProgram() (ProgramWorkload, error) {
	end := p.cur().Pos
	if p.workloadName == "" {
		return ProgramWorkload{}, errorf(end, "missing workload declaration")
	}
	if p.seq != nil {
		return ProgramWorkload{}, errorf(end, "a file declares either a sequence or phases, not both")
	}
	if p.cpu == nil {
		return ProgramWorkload{}, errorf(end, "missing cpu declaration")
	}

	prog := &program.Program{Name: p.workloadName}
	for i, ph := range p.phases {
		var kernels []*skeleton.Kernel
		for _, name := range ph.kernels {
			k, ok := p.kernels[name]
			if !ok {
				return ProgramWorkload{}, errorf(ph.at, "phase %d runs undeclared kernel %q", i+1, name)
			}
			kernels = append(kernels, k)
		}
		phase := program.Phase{
			Seq: &skeleton.Sequence{
				Name:       fmt.Sprintf("%s-phase%d", p.workloadName, i+1),
				Kernels:    kernels,
				Iterations: ph.iterations,
			},
		}
		var err error
		if phase.CPUReads, err = p.resolveArrays(ph.cpuReads, ph.at); err != nil {
			return ProgramWorkload{}, err
		}
		if phase.CPUWrites, err = p.resolveArrays(ph.cpuWrites, ph.at); err != nil {
			return ProgramWorkload{}, err
		}
		prog.Phases = append(prog.Phases, phase)
	}
	if err := prog.Validate(); err != nil {
		return ProgramWorkload{}, fmt.Errorf("sklang: %w", err)
	}

	cpu := *p.cpu
	cpu.Name = p.workloadName + "-cpu"
	if err := cpu.Validate(); err != nil {
		return ProgramWorkload{}, fmt.Errorf("sklang: %w", err)
	}
	return ProgramWorkload{
		Name:     p.workloadName,
		DataSize: p.dataSize,
		Prog:     prog,
		CPU:      cpu,
	}, nil
}

func (p *parser) resolveArrays(names []string, at pos) ([]*skeleton.Array, error) {
	var out []*skeleton.Array
	for _, name := range names {
		arr, ok := p.arrays[name]
		if !ok {
			return nil, errorf(at, "phase references undeclared array %q", name)
		}
		out = append(out, arr)
	}
	return out, nil
}

// ParseProgram parses skeleton source declaring phases. It returns
// ErrNotProgram for single-sequence files.
func ParseProgram(src string) (ProgramWorkload, error) {
	p := newParser(src)
	if err := p.checkLex(p.parseDecls()); err != nil {
		return ProgramWorkload{}, err
	}
	if len(p.phases) == 0 {
		return ProgramWorkload{}, ErrNotProgram
	}
	return p.finishProgram()
}

// ParseProgramFile reads and parses a program skeleton file.
func ParseProgramFile(path string) (ProgramWorkload, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return ProgramWorkload{}, fmt.Errorf("sklang: %w", err)
	}
	pw, err := ParseProgram(string(data))
	if err != nil {
		if errors.Is(err, ErrNotProgram) {
			return ProgramWorkload{}, err
		}
		return ProgramWorkload{}, fmt.Errorf("%s:%w", path, err)
	}
	return pw, nil
}

// FormatProgram renders a ProgramWorkload as canonical skeleton
// source; the output round-trips through ParseProgram.
func FormatProgram(pw ProgramWorkload) (string, error) {
	if pw.Prog == nil {
		return "", fmt.Errorf("sklang: nil program")
	}
	if err := pw.Prog.Validate(); err != nil {
		return "", err
	}
	var b strings.Builder
	fmt.Fprintf(&b, "workload %q size %q\n\n", pw.Name, pw.DataSize)

	seen := make(map[*skeleton.Array]bool)
	var arrays []*skeleton.Array
	var kernels []*skeleton.Kernel
	kernelSeen := make(map[*skeleton.Kernel]bool)
	for _, ph := range pw.Prog.Phases {
		for _, arr := range ph.Seq.Arrays() {
			if !seen[arr] {
				seen[arr] = true
				arrays = append(arrays, arr)
			}
		}
		for _, k := range ph.Seq.Kernels {
			if !kernelSeen[k] {
				kernelSeen[k] = true
				kernels = append(kernels, k)
			}
		}
	}
	sort.Slice(arrays, func(i, j int) bool { return arrays[i].Name < arrays[j].Name })
	for _, arr := range arrays {
		if arr.Temporary {
			b.WriteString("temporary ")
		}
		if arr.Sparse {
			b.WriteString("sparse ")
		}
		fmt.Fprintf(&b, "array %s", arr.Name)
		for _, d := range arr.Dims {
			fmt.Fprintf(&b, "[%d]", d)
		}
		fmt.Fprintf(&b, " %s\n", arr.Elem)
	}
	b.WriteString("\n")
	for _, k := range kernels {
		if err := writeKernel(&b, k); err != nil {
			return "", err
		}
		b.WriteString("\n")
	}
	for _, ph := range pw.Prog.Phases {
		fmt.Fprintf(&b, "phase iterations=%d {\n", ph.Seq.Iterations)
		for _, k := range ph.Seq.Kernels {
			fmt.Fprintf(&b, "    run %s\n", k.Name)
		}
		for _, arr := range ph.CPUReads {
			fmt.Fprintf(&b, "    cpu_reads %s\n", arr.Name)
		}
		for _, arr := range ph.CPUWrites {
			fmt.Fprintf(&b, "    cpu_writes %s\n", arr.Name)
		}
		b.WriteString("}\n\n")
	}
	fmt.Fprintf(&b, "cpu elements=%d flops=%s bytes=%s transc=%s irregular=%s vectorizable=%v regions=%d\n",
		pw.CPU.Elements,
		formatNumber(pw.CPU.FlopsPerElem), formatNumber(pw.CPU.BytesPerElem),
		formatNumber(pw.CPU.TranscendentalsPerElem), formatNumber(pw.CPU.IrregularFraction),
		pw.CPU.Vectorizable, pw.CPU.Regions)
	return b.String(), nil
}

// parseDecls is the shared declaration loop of Parse and ParseProgram.
func (p *parser) parseDecls() error {
	p.arrays = make(map[string]*skeleton.Array)
	p.kernels = make(map[string]*skeleton.Kernel)
	for p.cur().Kind != tokEOF {
		t := p.cur()
		if t.Kind != tokIdent {
			return errorf(t.Pos, "expected a declaration, found %v", t.Kind)
		}
		var err error
		switch t.Text {
		case "workload":
			err = p.parseWorkloadHeader()
		case "array", "temporary", "sparse":
			err = p.parseArray()
		case "kernel":
			err = p.parseKernel()
		case "sequence":
			err = p.parseSequence()
		case "phase":
			err = p.parsePhase()
		case "cpu":
			err = p.parseCPU()
		default:
			err = errorf(t.Pos, "unknown declaration %q (want workload, array, kernel, sequence, phase, or cpu)", t.Text)
		}
		if err != nil {
			return err
		}
	}
	return nil
}
