package sparse

import "math"

// Adaptive format selection (MSREP-style profile-driven tuning): a cheap
// structural profile of a matrix (or a row band of one) feeds a
// calibrated bandwidth model that predicts each storage format's SpMV
// time, and the cheapest prediction wins. The profile features are
// exactly the quantities the formats' footprints depend on — bandwidth
// and diagonal fill for DIA, row-length spread for ELL, block density
// for BCSR/BCSC, overall density for Dense.

// Profile summarizes the sparsity structure of a matrix or row band.
type Profile struct {
	// Rows, Cols, NNZ are the band's shape and stored-entry count.
	Rows, Cols, NNZ int64
	// Bandwidth is max |col−row| over the entries (0 when empty).
	Bandwidth int64
	// Diags is the number of distinct occupied diagonals (col−row).
	Diags int64
	// MaxRowLen and MeanRowLen describe the row-length distribution;
	// RowLenVar is its variance. ELL pads every row to MaxRowLen, so the
	// gap between max and mean is ELL's waste.
	MaxRowLen  int64
	MeanRowLen float64
	RowLenVar  float64
	MaxColLen  int64 // longest column (ELL' pads columns to this)
	// MinCol and MaxCol bound the columns the band touches (valid when
	// NNZ > 0): the x traffic of a narrow band is this span, not Cols.
	MinCol, MaxCol int64
	EmptyRows      int64 // rows with no stored entries
	Blocks2x2      int64 // distinct occupied 2×2 blocks (BCSR/BCSC fill unit)
	DiagFilled     int64 // entries with col == row
	Density        float64
	BlockWaste     float64 // padding ratio of 2×2 blocking: 4·Blocks2x2/NNZ
	RowLenSkew     float64 // MaxRowLen / max(MeanRowLen, 1)
	DiagFill       float64 // NNZ / (Diags·min(Rows,Cols)): occupancy of DIA storage
	ColLenSkew     float64 // MaxColLen · Cols / NNZ
	DiagCovered    float64 // DiagFilled / min(Rows, Cols)
}

// ProfileCSR profiles the whole matrix.
func ProfileCSR(a *CSR) Profile { return ProfileRows(a, 0, a.rows) }

// ProfileRows profiles the row band [r0, r1) of a CSR matrix. One O(nnz)
// pass gathers every feature the format model consumes.
func ProfileRows(a *CSR, r0, r1 int64) Profile {
	p := Profile{Rows: r1 - r0, Cols: a.cols}
	if p.Rows <= 0 {
		return p
	}
	diags := make(map[int64]struct{})
	blocks := make(map[int64]struct{})
	colLen := make(map[int64]int64)
	nbc := (a.cols + 1) / 2
	p.MinCol = a.cols
	var sumLen, sumLenSq int64
	for i := r0; i < r1; i++ {
		rl := a.rowptr[i+1] - a.rowptr[i]
		if rl == 0 {
			p.EmptyRows++
		}
		if rl > p.MaxRowLen {
			p.MaxRowLen = rl
		}
		sumLen += rl
		sumLenSq += rl * rl
		li := i - r0 // band-local row
		for k := a.rowptr[i]; k < a.rowptr[i+1]; k++ {
			c := a.colIdx[k]
			if c < p.MinCol {
				p.MinCol = c
			}
			if c > p.MaxCol {
				p.MaxCol = c
			}
			d := c - li
			if d < 0 {
				if -d > p.Bandwidth {
					p.Bandwidth = -d
				}
			} else if d > p.Bandwidth {
				p.Bandwidth = d
			}
			diags[d] = struct{}{}
			blocks[(li/2)*nbc+c/2] = struct{}{}
			colLen[c]++
			if c == li {
				p.DiagFilled++
			}
		}
	}
	p.NNZ = sumLen
	if p.NNZ == 0 {
		p.MinCol = 0
	}
	p.Diags = int64(len(diags))
	p.Blocks2x2 = int64(len(blocks))
	for _, n := range colLen {
		if n > p.MaxColLen {
			p.MaxColLen = n
		}
	}
	p.MeanRowLen = float64(sumLen) / float64(p.Rows)
	p.RowLenVar = float64(sumLenSq)/float64(p.Rows) - p.MeanRowLen*p.MeanRowLen
	if p.Rows > 0 && p.Cols > 0 {
		p.Density = float64(p.NNZ) / (float64(p.Rows) * float64(p.Cols))
	}
	if p.NNZ > 0 {
		p.BlockWaste = 4 * float64(p.Blocks2x2) / float64(p.NNZ)
		minDim := min(p.Rows, p.Cols)
		if p.Diags > 0 && minDim > 0 {
			p.DiagFill = float64(p.NNZ) / (float64(p.Diags) * float64(minDim))
		}
		p.RowLenSkew = float64(p.MaxRowLen) / maxf(p.MeanRowLen, 1)
		p.ColLenSkew = float64(p.MaxColLen) * float64(p.Cols) / float64(p.NNZ)
		if minDim > 0 {
			p.DiagCovered = float64(p.DiagFilled) / float64(minDim)
		}
	}
	return p
}

// formatRate is the calibrated effective SpMV bandwidth of each format in
// bytes per second, measured by cmd/benchlaunch's format sweep on this
// repository's kernels on regular (banded, blocked, low-diagonal-count)
// structures. DIA's rate is against its full footprint including the
// per-diagonal vector re-reads (see formatFootprint), where its pure
// sequential streaming sustains the highest bandwidth of any kernel. The
// absolute numbers only matter relative to one another; the tuner ranks
// footprint/rate quotients.
var formatRate = map[string]float64{
	"Dense": 10.0e9,
	"COO":   8.0e9,
	"CSR":   11.0e9,
	"CSC":   7.0e9,
	"ELL":   11.5e9,
	"ELL'":  6.5e9,
	"DIA":   20.0e9,
	"BCSR":  9.5e9,
	"BCSC":  6.8e9,
}

// gatherRate overrides formatRate on scattered structures (most entries
// on their own diagonal), where SpMV is bound by irregular x gathers
// rather than streaming. There the winner is decided by memory-level
// parallelism: COO's flat entry loop keeps many independent loads in
// flight (and conversion emits entries in row-major order, so its writes
// still stream), while the row-looped formats serialize on short
// variable-length inner loops and measure several-fold slower per byte
// than on regular structures.
var gatherRate = map[string]float64{
	"COO": 14.0e9,
	"CSR": 6.0e9,
	"ELL": 10.0e9,
}

// Scattered reports whether the profiled structure is gather-bound:
// enough entries that the regime matters, with most of them on distinct
// diagonals (a random pattern fills one diagonal per entry; stencils and
// blocks concentrate on a few).
func (p Profile) Scattered() bool {
	return p.Diags > 32 && 4*p.Diags > p.NNZ
}

// formatCost is the model's predicted SpMV time for the profiled
// structure in the given format: bytes streamed over the regime's
// calibrated rate.
func formatCost(p Profile, format string) float64 {
	rate := formatRate[format]
	if p.Scattered() {
		if r, ok := gatherRate[format]; ok {
			rate = r
		}
	}
	return formatFootprint(p, format) / rate
}

// formatFootprint predicts the bytes one SpMV streams through memory for
// the band in the given format: the stored entry arrays (values plus
// whatever indices the format keeps) and the dense vector traffic. A
// format whose padding explodes on this structure gets a correspondingly
// exploded footprint — that, not a heuristic rule, is what rules it out.
func formatFootprint(p Profile, format string) float64 {
	// y write once; x read over the column span the band actually
	// touches — charging a narrow band for all of x would bias the
	// tuner against banding.
	xTouch := p.Cols
	if p.NNZ > 0 {
		if span := p.MaxCol - p.MinCol + 1; span < xTouch {
			xTouch = span
		}
	}
	vec := 8 * float64(p.Rows+xTouch)
	if p.NNZ == 0 {
		// Degenerate empty band: every format stores nothing but its
		// fixed pointers; rank them by that skeleton.
		switch format {
		case "Dense":
			return 8*float64(p.Rows)*float64(p.Cols) + vec
		case "CSR", "BCSR":
			return 8*float64(p.Rows+1) + vec
		case "CSC", "BCSC", "ELL'":
			return 8*float64(p.Cols+1) + vec
		default:
			return vec
		}
	}
	nnz := float64(p.NNZ)
	switch format {
	case "Dense":
		return 8*float64(p.Rows)*float64(p.Cols) + vec
	case "COO":
		return 24*nnz + vec // val + row + col per entry
	case "CSR":
		return 16*nnz + 8*float64(p.Rows+1) + vec
	case "CSC":
		return 16*nnz + 8*float64(p.Cols+1) + vec
	case "ELL":
		return 16*float64(p.Rows)*float64(p.MaxRowLen) + vec
	case "ELL'":
		return 16*float64(p.Cols)*float64(p.MaxColLen) + vec
	case "DIA":
		// The kernel makes one pass over x and y per diagonal, so the
		// vector traffic scales with the diagonal count — omitting that
		// re-read makes DIA look 2× better than it measures on stencils.
		return 8*float64(p.Diags)*float64(p.Cols) +
			16*float64(p.Diags)*float64(p.Rows) + vec
	case "BCSR":
		// 2×2 blocks (1×1 on odd shapes, where blocking degenerates to
		// CSR): 4 values + 1 index per block, one pointer per block row.
		return 8*5*float64(p.Blocks2x2) + 8*float64(p.Rows/2+1) + vec
	case "BCSC":
		return 8*5*float64(p.Blocks2x2) + 8*float64(p.Cols/2+1) + vec
	}
	// An unknown name predicts an infinite footprint, so cost ranking
	// never selects it; a hard panic here turned a bad candidate string
	// (mmsolve's -format path reached this) into a crash.
	return math.Inf(1)
}

// autoCandidates is the tuner's candidate set: the row-order formats
// whose effective bandwidth the two-regime rate tables predict reliably
// (COO qualifies because conversion emits row-major-sorted entries).
// The column-major and block formats (CSC, ELL', BCSR, BCSC) are
// excluded — their measured rate swings several-fold with the nonzero
// pattern (scattered writes, block fill), which makes a footprint/rate
// model confidently pick them where they lose. They remain available as
// explicit choices.
var autoCandidates = []string{"CSR", "COO", "ELL", "DIA", "Dense"}

// selectFormatCost returns the format the calibrated model predicts
// fastest for the profiled structure, argmin of formatCost across the
// candidate set, with its predicted cost.
func selectFormatCost(p Profile) (string, float64) {
	best := "CSR"
	bestCost := formatCost(p, best)
	for _, f := range autoCandidates {
		if f == best {
			continue
		}
		if cost := formatCost(p, f); cost < bestCost {
			best, bestCost = f, cost
		}
	}
	return best, bestCost
}

func maxf(a, b float64) float64 {
	if a > b {
		return a
	}
	return b
}
