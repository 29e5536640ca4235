package jpeg

// Restart-marker-parallel entropy decode. A baseline scan with a DRI
// restart interval is a concatenation of independent entropy-coded
// segments: each segment starts byte-aligned, resets the DC predictors,
// and covers a fixed run of MCUs, so segments can be Huffman-decoded
// concurrently into disjoint regions of the shared coefficient grids.
// That lets one large image fan out across cores instead of serialising
// a whole worker's Huffman stage.
//
// Finding the split points needs no decoding: inside entropy data a
// literal 0xFF byte is always followed by a stuffed 0x00, so a raw
// FF D0..D7 pair is necessarily a genuine RSTn marker. The scanner
// below walks the captured scan bytes once, validates that the marker
// count and RST0..RST7 cycle match what the restart interval implies,
// and bails out to the sequential decoder on any disagreement — so the
// parallel path only ever runs on streams where it is provably
// byte-identical to sequential decode. If a worker then hits a corrupt
// segment, EntropyDecodeInto re-runs the sequential decoder so the
// error surfaced (restart-interval-attributed, see expectRestart) is
// exactly the sequential one; the only cost of that policy is wasted
// work on corrupt DRI streams, which are not a fast path worth keeping.

import (
	"runtime"
	"sync"
	"sync/atomic"

	"dlbooster/internal/cpukernel"
)

// minParallelMCUs is the smallest scan worth fanning out: below this the
// goroutine handoff costs more than the Huffman work it hides.
const minParallelMCUs = 128

// entropyWorkers is the fan-out width for one scan's segments. The
// default is modest — the pool around the decoder (backends.CPU, the
// fleet shards) already runs images in parallel, so intra-image workers
// multiply with inter-image ones.
var entropyWorkers atomic.Int32

func init() {
	w := runtime.GOMAXPROCS(0)
	if w > 4 {
		w = 4
	}
	entropyWorkers.Store(int32(w))
}

// SetEntropyParallelism sets how many goroutines one scan's restart
// segments may fan out across. n < 1 is clamped to 1, which disables
// the parallel path entirely.
func SetEntropyParallelism(n int) {
	if n < 1 {
		n = 1
	}
	entropyWorkers.Store(int32(n))
}

// EntropyParallelism reports the current fan-out width.
func EntropyParallelism() int { return int(entropyWorkers.Load()) }

// scanSegment is one restart interval's slice of the entropy-coded data
// and the MCU range it decodes to.
type scanSegment struct {
	start, end int // byte offsets into Header.scan, marker excluded
	mcu0, mcu1 int // MCU range [mcu0, mcu1)
}

// restartSegments splits the captured scan into its restart segments if
// the scan is parallel-decodable: restart intervals present, enough MCUs
// to pay for the fan-out, more than one worker configured, the kill
// switch released, and a marker layout that exactly matches the header's
// restart interval. Any mismatch returns false and the sequential
// decoder handles the stream (including surfacing its errors).
func (h *Header) restartSegments() ([]scanSegment, bool) {
	ri := h.RestartInterval
	mcus := h.mcusX * h.mcusY
	if ri <= 0 || mcus < minParallelMCUs || mcus <= ri ||
		entropyWorkers.Load() <= 1 || cpukernel.ScalarOnly() {
		return nil, false
	}
	nSeg := ceilDiv(mcus, ri)
	segs := h.segs[:0]
	data := h.scan
	end := len(data)
	segStart := 0
	found := 0
	i := 0
scan:
	for i < len(data)-1 {
		if data[i] != 0xFF {
			i++
			continue
		}
		switch b := data[i+1]; {
		case b == 0x00: // byte-stuffed literal 0xFF
			i += 2
		case b == 0xFF: // fill byte
			i++
		case b >= mRST0 && b <= mRST7:
			if found >= nSeg-1 || b != mRST0+byte(found%8) {
				// More markers than the restart interval implies, or an
				// out-of-sequence one: not a stream we can prove safe.
				return nil, false
			}
			segs = append(segs, scanSegment{start: segStart, end: i, mcu0: found * ri, mcu1: (found + 1) * ri})
			found++
			i += 2
			segStart = i
		default:
			// Any other marker terminates the entropy-coded data.
			end = i
			break scan
		}
	}
	if found != nSeg-1 {
		return nil, false
	}
	segs = append(segs, scanSegment{start: segStart, end: end, mcu0: found * ri, mcu1: mcus})
	h.segs = segs // keep the grown capacity across reuses
	return segs, true
}

// entropyDecodeSegments fans the segments out across the configured
// workers, each decoding a contiguous run of segments into the shared
// coefficient grids. Segments own disjoint MCU ranges — and therefore
// disjoint blocks — so workers never touch the same memory. The first
// error (earliest segment wins: chunks are contiguous and ordered) is
// returned; the caller re-runs the sequential decoder for exact error
// parity rather than trusting it.
func (h *Header) entropyDecodeSegments(co *Coefficients, segs []scanSegment) error {
	co.init(h)
	workers := int(entropyWorkers.Load())
	if workers > len(segs) {
		workers = len(segs)
	}
	chunk := ceilDiv(len(segs), workers)
	errs := make([]error, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		lo := w * chunk
		hi := lo + chunk
		if hi > len(segs) {
			hi = len(segs)
		}
		if lo >= hi {
			break
		}
		wg.Add(1)
		go func(w int, part []scanSegment) {
			defer wg.Done()
			var st scanTables // per worker: nothing mutable is shared
			st.init(h)
			for _, sg := range part {
				if err := h.decodeSegment(co, &st, sg); err != nil {
					errs[w] = err
					return
				}
			}
		}(w, segs[lo:hi])
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// decodeSegment Huffman-decodes one restart segment: a fresh bit reader
// over the segment's bytes, fresh DC predictors (the restart contract),
// and the same MCU walk the sequential decoder performs.
func (h *Header) decodeSegment(co *Coefficients, st *scanTables, seg scanSegment) error {
	r := newBitReader(h.scan[seg.start:seg.end])
	var dcPredArr [3]int32 // checkComponents caps components at 3
	dcPred := dcPredArr[:len(h.Components)]
	for m := seg.mcu0; m < seg.mcu1; m++ {
		if err := h.decodeMCU(st, r, co, m, dcPred); err != nil {
			return err
		}
	}
	return nil
}
