// Package program extends GROPHECY++ from one offloaded region to
// whole applications: a Program is a list of offloaded phases with
// CPU work between them, and the data-usage analysis tracks which
// array sections remain valid in GPU memory across phases.
//
// The paper analyzes a single kernel sequence; its related-work
// section points at the generalization ("compiler techniques that
// automate the data transfer between the CPU and GPU" — Jablin et
// al., PLDI'11 — where "our performance modeling framework could help
// such a technique ... by identifying which array sections need to be
// transferred"). This package is exactly that analysis:
//
//   - a phase's uploads are its reads not already resident on the GPU
//     (either produced by an earlier phase or uploaded before);
//   - inter-phase CPU code that modifies an array invalidates its GPU
//     copy, forcing a re-upload if a later phase reads it;
//   - downloads happen when inter-phase CPU code reads an array, and
//     once more at program end for results that never came back;
//   - temporaries never cross the bus, exactly as in single-phase
//     analysis.
package program

import (
	"fmt"
	"strings"

	"grophecy/internal/brs"
	"grophecy/internal/datausage"
	"grophecy/internal/skeleton"
)

// Phase is one offloaded region plus the CPU code that follows it.
type Phase struct {
	// Seq is the offloaded kernel sequence.
	Seq *skeleton.Sequence
	// Hints are the per-phase data-usage hints.
	Hints datausage.Hints
	// CPUReads lists arrays the inter-phase CPU code consumes after
	// this phase: their freshly-written sections must come back.
	CPUReads []*skeleton.Array
	// CPUWrites lists arrays the inter-phase CPU code modifies: their
	// GPU copies become stale.
	CPUWrites []*skeleton.Array
}

// Program is a whole application: phases in execution order.
type Program struct {
	Name   string
	Phases []Phase
}

// Validate checks the program structure.
func (p *Program) Validate() error {
	if p.Name == "" {
		return fmt.Errorf("program: empty name")
	}
	if len(p.Phases) == 0 {
		return fmt.Errorf("program: %q has no phases", p.Name)
	}
	for i, ph := range p.Phases {
		if ph.Seq == nil {
			return fmt.Errorf("program: %q phase %d has no sequence", p.Name, i)
		}
		if err := ph.Seq.Validate(); err != nil {
			return fmt.Errorf("program: %q phase %d: %w", p.Name, i, err)
		}
	}
	return nil
}

// PhasePlan is the transfer plan of one phase under residency
// tracking.
type PhasePlan struct {
	// Uploads happen before the phase's kernels; Downloads after
	// (driven by CPUReads, or by program end for the last phase).
	Uploads   []datausage.Transfer
	Downloads []datausage.Transfer
	// Naive is the phase's residency-blind plan: what it would
	// transfer if planned on its own, as single-sequence analysis does.
	Naive datausage.Plan
}

// Plan is the whole program's transfer schedule.
type Plan struct {
	Phases []PhasePlan
}

// UploadBytes totals CPU-to-GPU traffic across phases.
func (p Plan) UploadBytes() int64 {
	var n int64
	for _, ph := range p.Phases {
		for _, tr := range ph.Uploads {
			n += tr.Bytes()
		}
	}
	return n
}

// DownloadBytes totals GPU-to-CPU traffic across phases.
func (p Plan) DownloadBytes() int64 {
	var n int64
	for _, ph := range p.Phases {
		for _, tr := range ph.Downloads {
			n += tr.Bytes()
		}
	}
	return n
}

// TransferCount totals individual transfers.
func (p Plan) TransferCount() int {
	n := 0
	for _, ph := range p.Phases {
		n += len(ph.Uploads) + len(ph.Downloads)
	}
	return n
}

// String renders the schedule.
func (p Plan) String() string {
	var b strings.Builder
	for i, ph := range p.Phases {
		fmt.Fprintf(&b, "phase %d:\n", i+1)
		for _, tr := range ph.Uploads {
			fmt.Fprintf(&b, "  %s\n", tr)
		}
		for _, tr := range ph.Downloads {
			fmt.Fprintf(&b, "  %s\n", tr)
		}
	}
	return b.String()
}

// Analyze runs residency-aware data usage analysis over the program.
func Analyze(p *Program) (Plan, error) {
	if err := p.Validate(); err != nil {
		return Plan{}, err
	}

	resident := brs.NewSet() // sections valid in GPU memory
	// pendingDownload holds GPU-written, not-yet-downloaded sections
	// of non-temporary arrays.
	pendingDownload := brs.NewSet()

	var plan Plan
	for i, ph := range p.Phases {
		// The phase's own dataflow (what it reads before writing,
		// what it writes) comes from the single-sequence analyzer;
		// residency then filters the uploads.
		local, err := datausage.Analyze(ph.Seq, ph.Hints)
		if err != nil {
			return Plan{}, fmt.Errorf("program: phase %d: %w", i, err)
		}

		pp := PhasePlan{Naive: local}
		for _, up := range local.Uploads {
			if resident.Covers(up.Section) {
				continue // already on the GPU and still valid
			}
			pp.Uploads = append(pp.Uploads, up)
			resident.Add(up.Section)
		}
		// Everything the phase writes becomes resident and pending.
		for _, down := range local.Downloads {
			resident.Add(down.Section)
			pendingDownload.Add(down.Section)
		}
		// Temporaries become resident too (they live in GPU memory),
		// but never pend for download; local analysis already
		// excluded them from Downloads.

		// Inter-phase CPU reads force the pending sections of those
		// arrays down now.
		isLast := i == len(p.Phases)-1
		demanded := make(map[*skeleton.Array]bool, len(ph.CPUReads))
		for _, arr := range ph.CPUReads {
			demanded[arr] = true
		}
		for _, sec := range pendingDownload.Sections() {
			if !demanded[sec.Array] && !isLast {
				continue
			}
			pp.Downloads = append(pp.Downloads, datausage.Transfer{
				Dir:     datausage.Download,
				Section: sec,
			})
		}
		// Downloaded sections no longer pend.
		for _, tr := range pp.Downloads {
			pendingDownload.Remove(tr.Array())
		}

		// Inter-phase CPU writes invalidate GPU copies.
		for _, arr := range ph.CPUWrites {
			resident.Remove(arr)
			pendingDownload.Remove(arr)
		}

		plan.Phases = append(plan.Phases, pp)
	}
	return plan, nil
}
