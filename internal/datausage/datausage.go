// Package datausage implements the paper's second contribution: data
// usage analysis over the dataflow of a GPU kernel sequence (§III-B),
// determining what data must be transferred between CPU and GPU.
//
// The rules, verbatim from the paper:
//
//   - "To determine what data needs to be transferred from the CPU to
//     the GPU, we maintain a list of BRSs that are read but are not
//     previously written. The UNION of all such BRSs is data that
//     needs to be transferred to the GPU."
//   - "The UNION of all written BRSs is data that needs to be
//     transferred back from the GPU."
//   - "Users can optionally provide hints to specify written data that
//     serve as temporaries. Temporary data need not be transferred
//     back to the CPU."
//   - "Each individual array is assumed to be transferred separately."
//   - Irregular/sparse accesses: "the conservative assumption that all
//     elements in the sparse array may be referenced, and therefore
//     must be transferred, unless users provide additional hints."
//
// For iterative applications the kernel sequence repeats, but the
// analysis is iteration-independent: input data moves to the GPU once
// before the first iteration and output data moves back once after the
// last (§IV-B), so the plan produced here is the same for any
// iteration count.
package datausage

import (
	"fmt"
	"sort"
	"strings"

	"grophecy/internal/brs"
	"grophecy/internal/metrics"
	"grophecy/internal/skeleton"
)

// Analysis instruments.
var (
	mAnalyses = metrics.Default.MustCounter("datausage_analyses_total",
		"kernel-sequence data usage analyses")
	mPlannedTransfers = metrics.Default.MustCounter("datausage_planned_transfers_total",
		"transfers emitted across all plans")
	mPlannedBytes = metrics.Default.MustCounter("datausage_planned_bytes_total",
		"bytes covered by emitted transfer plans")
)

// TransferDir distinguishes uploads from downloads without dragging a
// bus dependency into the analysis layer.
type TransferDir int

const (
	// Upload moves data from CPU memory to GPU memory before the
	// kernels run.
	Upload TransferDir = iota
	// Download moves results from GPU memory back to CPU memory after
	// the kernels finish.
	Download
)

// String implements fmt.Stringer.
func (d TransferDir) String() string {
	switch d {
	case Upload:
		return "upload"
	case Download:
		return "download"
	default:
		return fmt.Sprintf("TransferDir(%d)", int(d))
	}
}

// Transfer is one planned array movement. Arrays transfer separately,
// so there is exactly one Transfer per (array, direction) pair.
type Transfer struct {
	Dir     TransferDir
	Section brs.Section
}

// Array returns the transferred array.
func (t Transfer) Array() *skeleton.Array { return t.Section.Array }

// Bytes returns the transfer size.
func (t Transfer) Bytes() int64 { return t.Section.Bytes() }

// String implements fmt.Stringer, e.g. "upload temp[0:1023][0:1023] (4MB)".
func (t Transfer) String() string {
	return fmt.Sprintf("%s %s (%d bytes)", t.Dir, t.Section, t.Bytes())
}

// Plan is the complete transfer plan for a kernel sequence.
type Plan struct {
	Uploads   []Transfer
	Downloads []Transfer
	// ResidentBytes is the total GPU memory footprint the sequence
	// needs: every distinct array section touched, including
	// temporaries that never cross the bus.
	ResidentBytes int64
}

// UploadBytes returns total bytes moved CPU-to-GPU.
func (p Plan) UploadBytes() int64 { return sumBytes(p.Uploads) }

// DownloadBytes returns total bytes moved GPU-to-CPU.
func (p Plan) DownloadBytes() int64 { return sumBytes(p.Downloads) }

// TotalBytes returns total bytes moved in both directions.
func (p Plan) TotalBytes() int64 { return p.UploadBytes() + p.DownloadBytes() }

// TransferCount returns the number of individual transfers (each pays
// the per-transfer latency alpha in the PCIe model).
func (p Plan) TransferCount() int { return len(p.Uploads) + len(p.Downloads) }

// String renders the plan for human consumption.
func (p Plan) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "plan: %d uploads (%d bytes), %d downloads (%d bytes)\n",
		len(p.Uploads), p.UploadBytes(), len(p.Downloads), p.DownloadBytes())
	for _, t := range p.Uploads {
		fmt.Fprintf(&b, "  %s\n", t)
	}
	for _, t := range p.Downloads {
		fmt.Fprintf(&b, "  %s\n", t)
	}
	return b.String()
}

func sumBytes(ts []Transfer) int64 {
	var n int64
	for _, t := range ts {
		n += t.Bytes()
	}
	return n
}

// Hints carries the optional user annotations the paper describes.
// The zero value means "no hints".
type Hints struct {
	// Temporaries marks arrays (by pointer) whose written data never
	// returns to the CPU, overriding/augmenting Array.Temporary.
	Temporaries map[*skeleton.Array]bool
	// SparseSections bounds the transferred section of an irregular
	// array, replacing the conservative whole-array transfer. The
	// section must belong to the hinted array.
	SparseSections map[*skeleton.Array]brs.Section
}

// isTemporary merges the hint map with the array's own flag.
func (h Hints) isTemporary(a *skeleton.Array) bool {
	return a.Temporary || h.Temporaries[a]
}

// sectionFor applies a sparse-section hint, if present, to a
// conservative whole-array section.
func (h Hints) sectionFor(s brs.Section) brs.Section {
	if !s.Whole {
		return s
	}
	if hinted, ok := h.SparseSections[s.Array]; ok {
		return hinted
	}
	return s
}

// Options selects analysis refinements beyond the paper's rules. The
// zero value is the paper-faithful behaviour.
type Options struct {
	// PreciseUploads uploads only the exact uncovered remainder of
	// each read section (box subtraction, internal/brs) instead of
	// the paper's conservative whole-section rule. More, smaller
	// transfers can result; for the paper's benchmarks — where
	// coverage is all-or-nothing — the plans are identical, which is
	// itself evidence for the paper's simpler rule.
	PreciseUploads bool
}

// Analyze runs data usage analysis over the kernel sequence with the
// paper's rules. The sequence must validate.
func Analyze(seq *skeleton.Sequence, hints Hints) (Plan, error) {
	return AnalyzeOpt(seq, hints, Options{})
}

// AnalyzeOpt is Analyze with refinement options.
func AnalyzeOpt(seq *skeleton.Sequence, hints Hints, opts Options) (Plan, error) {
	if err := seq.Validate(); err != nil {
		return Plan{}, err
	}
	for a, s := range hints.SparseSections {
		if s.Array != a {
			return Plan{}, fmt.Errorf("datausage: sparse hint for %q carries section of %q",
				a.Name, s.Array.Name)
		}
		if err := s.Validate(); err != nil {
			return Plan{}, fmt.Errorf("datausage: sparse hint for %q: %w", a.Name, err)
		}
	}

	written := brs.NewSet()  // sections produced on the GPU so far
	uploads := brs.NewSet()  // reads not previously written
	writes := brs.NewSet()   // union of all writes
	resident := brs.NewSet() // everything touching GPU memory

	// Precise mode tracks exact uploaded boxes per array.
	preciseUploads := make(map[*skeleton.Array][]brs.Section)
	var preciseOrder []*skeleton.Array

	for _, k := range seq.Kernels {
		for _, st := range k.Stmts {
			// Within a statement, loads execute before stores: the
			// operands of a statement are read before its result is
			// written.
			for _, ac := range st.Accesses {
				if ac.Kind != skeleton.Load {
					continue
				}
				sec := hints.sectionFor(brs.FromAccess(ac, k.Loops))
				resident.Add(sec)
				if sec.Empty() || written.Covers(sec) {
					continue
				}
				if opts.PreciseUploads {
					// Exact remainder: subtract prior writes and
					// prior uploads of this array.
					remainder := []brs.Section{sec}
					if wsec, ok := written.Section(sec.Array); ok {
						remainder = brs.SubtractAll(sec, []brs.Section{wsec})
					}
					var fresh []brs.Section
					for _, r := range remainder {
						fresh = append(fresh, brs.SubtractAll(r, preciseUploads[sec.Array])...)
					}
					if len(fresh) > 0 {
						if _, seen := preciseUploads[sec.Array]; !seen {
							preciseOrder = append(preciseOrder, sec.Array)
						}
						preciseUploads[sec.Array] = append(preciseUploads[sec.Array], fresh...)
					}
					continue
				}
				// Conservative: transfer the full read section even
				// if parts were already written; the hull union in
				// the set keeps this a single per-array transfer.
				uploads.Add(sec)
			}
			for _, ac := range st.Accesses {
				if ac.Kind != skeleton.Store {
					continue
				}
				sec := hints.sectionFor(brs.FromAccess(ac, k.Loops))
				resident.Add(sec)
				written.Add(sec)
				writes.Add(sec)
			}
		}
	}

	var plan Plan
	if opts.PreciseUploads {
		for _, arr := range preciseOrder {
			for _, sec := range preciseUploads[arr] {
				plan.Uploads = append(plan.Uploads, Transfer{Dir: Upload, Section: sec})
			}
		}
	}
	for _, sec := range uploads.Sections() {
		plan.Uploads = append(plan.Uploads, Transfer{Dir: Upload, Section: sec})
	}
	for _, sec := range writes.Sections() {
		if hints.isTemporary(sec.Array) {
			continue
		}
		plan.Downloads = append(plan.Downloads, Transfer{Dir: Download, Section: sec})
	}
	plan.ResidentBytes = resident.TotalBytes()

	// Deterministic report order: by array name within each direction.
	sort.Slice(plan.Uploads, func(i, j int) bool {
		return plan.Uploads[i].Array().Name < plan.Uploads[j].Array().Name
	})
	sort.Slice(plan.Downloads, func(i, j int) bool {
		return plan.Downloads[i].Array().Name < plan.Downloads[j].Array().Name
	})
	mAnalyses.Inc()
	mPlannedTransfers.Add(int64(plan.TransferCount()))
	mPlannedBytes.Add(plan.TotalBytes())
	return plan, nil
}
