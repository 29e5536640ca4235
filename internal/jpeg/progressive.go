package jpeg

import "dlbooster/internal/pix"

// Multi-scan (progressive, SOF2) decoding per ITU-T T.81 §G. Coefficient
// memory persists across scans; each scan delivers either a spectral
// band (Ss..Se) or one bit of precision (successive approximation,
// Ah/Al) for one band. This path exists for library completeness — the
// paper's FPGA decoder, like hardware JPEG decoders generally, runs
// baseline only, so the fpga mirror surfaces ErrProgressive and Decode
// falls back to this software path.

// progScanComp is one component's slice of a scan header.
type progScanComp struct {
	compIdx      int
	dcSel, acSel byte
}

// progScan is one parsed SOS for a progressive frame.
type progScan struct {
	comps          []progScanComp
	ss, se, ah, al int
}

// progDecoder accumulates coefficients across scans.
type progDecoder struct {
	h      *Header
	co     *Coefficients
	eobrun int
}

// decodeProgressive decodes an SOF2 stream end to end.
func decodeProgressive(data []byte) (*pix.Image, error) {
	if len(data) < 2 || data[0] != 0xFF || data[1] != mSOI {
		return nil, FormatError("missing SOI marker")
	}
	h := &Header{}
	d := &progDecoder{h: h}
	sawSOF := false
	sawScan := false
	pos := 2
	for {
		if pos >= len(data) {
			// Tolerate a missing EOI after at least one decoded scan,
			// like most decoders.
			if sawScan {
				break
			}
			return nil, FormatError("truncated progressive stream")
		}
		if data[pos] != 0xFF {
			return nil, FormatError("expected marker")
		}
		for pos < len(data) && data[pos] == 0xFF {
			pos++
		}
		if pos >= len(data) {
			return nil, FormatError("truncated marker")
		}
		marker := data[pos]
		pos++
		if marker == mEOI {
			break
		}
		if marker >= mRST0 && marker <= mRST7 {
			return nil, FormatError("restart marker outside scan")
		}
		if pos+2 > len(data) {
			return nil, FormatError("truncated segment length")
		}
		segLen := u16(data[pos:])
		if segLen < 2 || pos+segLen > len(data) {
			return nil, FormatError("bad segment length")
		}
		seg := data[pos+2 : pos+segLen]
		pos += segLen
		switch marker {
		case mSOF2:
			if sawSOF {
				return nil, FormatError("multiple SOF segments")
			}
			sawSOF = true
			h.Progressive = true
			if err := h.parseSOF(seg); err != nil {
				return nil, err
			}
		case mSOF0, mSOF1:
			return nil, FormatError("baseline SOF in progressive decoder")
		case mDQT:
			if err := h.parseDQT(seg); err != nil {
				return nil, err
			}
		case mDHT:
			if err := h.parseDHT(seg); err != nil {
				return nil, err
			}
		case mDRI:
			if len(seg) < 2 {
				return nil, FormatError("short DRI")
			}
			h.RestartInterval = u16(seg)
		case mSOS:
			if !sawSOF {
				return nil, FormatError("SOS before SOF")
			}
			scan, err := d.parseProgSOS(seg)
			if err != nil {
				return nil, err
			}
			end := entropyEnd(data, pos)
			if d.co == nil {
				if err := d.checkFirstScan(scan, end-pos); err != nil {
					return nil, err
				}
				d.co = &Coefficients{}
				d.co.init(h)
			}
			if err := d.decodeScan(scan, data[pos:end]); err != nil {
				return nil, err
			}
			sawScan = true
			pos = end
		case mAPP1:
			if o := parseEXIFOrientation(seg); o != 0 {
				h.Orientation = o
			}
		default:
			// APPn/COM skipped.
		}
	}
	if !sawSOF || !sawScan {
		return nil, FormatError("progressive stream without scans")
	}
	for _, c := range h.Components {
		if !h.quantOK[c.QuantID] {
			return nil, FormatError("missing quant table")
		}
	}
	planes, err := d.co.Reconstruct()
	if err != nil {
		return nil, err
	}
	return planes.ToImage(), nil
}

// entropyEnd finds the offset of the marker terminating an entropy-coded
// segment starting at pos (stuffed bytes and RSTn belong to the segment).
func entropyEnd(data []byte, pos int) int {
	for i := pos; i+1 < len(data); i++ {
		if data[i] != 0xFF {
			continue
		}
		m := data[i+1]
		if m == 0x00 || m == 0xFF || (m >= mRST0 && m <= mRST7) {
			continue
		}
		return i
	}
	return len(data)
}

// parseProgSOS validates a progressive scan header (T.81 §G.1.1.1).
func (d *progDecoder) parseProgSOS(seg []byte) (*progScan, error) {
	if len(seg) < 1 {
		return nil, FormatError("short SOS")
	}
	ns := int(seg[0])
	if ns < 1 || ns > len(d.h.Components) {
		return nil, FormatError("bad scan component count")
	}
	if len(seg) < 1+2*ns+3 {
		return nil, FormatError("short SOS parameters")
	}
	sc := &progScan{}
	for i := 0; i < ns; i++ {
		id := seg[1+2*i]
		sel := seg[2+2*i]
		idx := -1
		for j := range d.h.Components {
			if d.h.Components[j].ID == id {
				idx = j
				break
			}
		}
		if idx < 0 {
			return nil, FormatError("scan references unknown component")
		}
		sc.comps = append(sc.comps, progScanComp{compIdx: idx, dcSel: sel >> 4, acSel: sel & 0x0F})
		if sel>>4 > 3 || sel&0x0F > 3 {
			return nil, FormatError("huffman selector > 3")
		}
	}
	sc.ss = int(seg[1+2*ns])
	sc.se = int(seg[2+2*ns])
	sc.ah = int(seg[3+2*ns]) >> 4
	sc.al = int(seg[3+2*ns]) & 0x0F
	switch {
	case sc.ss > 63 || sc.se > 63 || sc.ss > sc.se:
		return nil, FormatError("bad spectral selection")
	case sc.ss == 0 && sc.se != 0:
		return nil, FormatError("DC scan with AC band")
	case sc.ss > 0 && len(sc.comps) != 1:
		return nil, FormatError("interleaved AC scan")
	case sc.ah > 13 || sc.al > 13:
		return nil, FormatError("bad successive approximation")
	case sc.ah != 0 && sc.ah != sc.al+1:
		return nil, FormatError("refinement must lower Al by one")
	}
	return sc, nil
}

// checkFirstScan bounds the coefficient store by the first scan before
// any grid is sized, as EntropyDecodeInto does. A frame's first scan is a
// DC scan (T.81 §G.1.1.1.1) and spends at least one bit on every real
// block of its components; the padding and the components it leaves out
// are within a small factor of those. Later scans bound nothing: one
// EOBRUN ends thousands of blocks, which is also why AC-first is refused.
func (d *progDecoder) checkFirstScan(sc *progScan, scanBytes int) error {
	if sc.ss > 0 {
		return FormatError("progressive AC scan before any DC scan")
	}
	blocks := 0
	for _, scomp := range sc.comps {
		bw, bh := d.compBlocks(scomp.compIdx)
		blocks += bw * bh
	}
	if blocks > 8*scanBytes {
		return errShortData
	}
	return nil
}

// compBlocks returns the real (unpadded) block grid of component i for
// non-interleaved scans.
func (d *progDecoder) compBlocks(i int) (bw, bh int) {
	c := d.h.Components[i]
	compW := ceilDiv(d.h.Width*c.H, d.h.hMax)
	compH := ceilDiv(d.h.Height*c.V, d.h.vMax)
	return ceilDiv(compW, 8), ceilDiv(compH, 8)
}

// decodeScan runs one scan's entropy-coded data into the coefficient
// memory.
func (d *progDecoder) decodeScan(sc *progScan, raw []byte) error {
	r := newBitReader(raw)
	d.eobrun = 0
	dcPred := make([]int32, len(d.h.Components))
	nextRST := byte(mRST0)
	sinceRestart := 0

	restart := func() error {
		m, err := r.nextMarker()
		if err != nil {
			return errShortData
		}
		if m != nextRST {
			return FormatError("restart marker out of sequence")
		}
		nextRST = mRST0 + (nextRST-mRST0+1)%8
		for i := range dcPred {
			dcPred[i] = 0
		}
		d.eobrun = 0
		sinceRestart = 0
		return nil
	}

	// Resolve per-scan Huffman tables up front.
	dcTab := make([]*huffDecoder, len(sc.comps))
	acTab := make([]*huffDecoder, len(sc.comps))
	for i, c := range sc.comps {
		if sc.ss == 0 && sc.ah == 0 {
			if !d.h.dcOK[c.dcSel] {
				return FormatError("missing DC huffman table")
			}
			dcTab[i] = &d.h.dcHuff[c.dcSel]
		}
		if sc.ss > 0 {
			if !d.h.acOK[c.acSel] {
				return FormatError("missing AC huffman table")
			}
			acTab[i] = &d.h.acHuff[c.acSel]
		}
	}

	if sc.ss == 0 {
		// DC scan. Interleaved in MCU order when ns > 1, else over the
		// component's own grid.
		if len(sc.comps) > 1 || len(d.h.Components) == 1 {
			mcus := d.h.mcusX * d.h.mcusY
			for m := 0; m < mcus; m++ {
				if d.h.RestartInterval > 0 && sinceRestart == d.h.RestartInterval {
					if err := restart(); err != nil {
						return err
					}
				}
				my, mx := m/d.h.mcusX, m%d.h.mcusX
				for i, scomp := range sc.comps {
					c := &d.h.Components[scomp.compIdx]
					for v := 0; v < c.V; v++ {
						for hh := 0; hh < c.H; hh++ {
							bx := mx*c.H + hh
							by := my*c.V + v
							blk := d.blockAt(scomp.compIdx, bx, by)
							if err := d.decodeDC(r, sc, dcTab[i], blk, &dcPred[i]); err != nil {
								return err
							}
						}
					}
				}
				sinceRestart++
			}
			return nil
		}
		// Single-component DC scan, non-interleaved.
		scomp := sc.comps[0]
		bw, bh := d.compBlocks(scomp.compIdx)
		for by := 0; by < bh; by++ {
			for bx := 0; bx < bw; bx++ {
				if d.h.RestartInterval > 0 && sinceRestart == d.h.RestartInterval {
					if err := restart(); err != nil {
						return err
					}
				}
				blk := d.blockAt(scomp.compIdx, bx, by)
				if err := d.decodeDC(r, sc, dcTab[0], blk, &dcPred[0]); err != nil {
					return err
				}
				sinceRestart++
			}
		}
		return nil
	}

	// AC scan: single component, non-interleaved.
	scomp := sc.comps[0]
	bw, bh := d.compBlocks(scomp.compIdx)
	for by := 0; by < bh; by++ {
		for bx := 0; bx < bw; bx++ {
			if d.h.RestartInterval > 0 && sinceRestart == d.h.RestartInterval {
				if err := restart(); err != nil {
					return err
				}
			}
			blk := d.blockAt(scomp.compIdx, bx, by)
			var err error
			if sc.ah == 0 {
				err = d.decodeACFirst(r, sc, acTab[0], blk)
			} else {
				err = d.decodeACRefine(r, sc, acTab[0], blk)
			}
			if err != nil {
				return err
			}
			sinceRestart++
		}
	}
	return nil
}

func (d *progDecoder) blockAt(comp, bx, by int) *block {
	return &d.co.comp[comp][by*d.co.blocksX[comp]+bx]
}

// decodeDC handles both DC passes for one block.
func (d *progDecoder) decodeDC(r *bitReader, sc *progScan, tab *huffDecoder, blk *block, pred *int32) error {
	if sc.ah == 0 {
		t, err := tab.decode(r)
		if err != nil {
			return err
		}
		if t > 11 {
			return FormatError("DC category > 11")
		}
		bits, err := r.readBits(int(t))
		if err != nil {
			return err
		}
		*pred += extend(bits, int(t))
		blk[0] = *pred << sc.al
		return nil
	}
	// Refinement: one bit per block.
	bit, err := r.readBit()
	if err != nil {
		return err
	}
	if bit != 0 {
		blk[0] |= 1 << sc.al
	}
	return nil
}

// decodeACFirst is the first pass of an AC band (T.81 §G.1.2.2).
func (d *progDecoder) decodeACFirst(r *bitReader, sc *progScan, tab *huffDecoder, blk *block) error {
	if d.eobrun > 0 {
		d.eobrun--
		return nil
	}
	for k := sc.ss; k <= sc.se; {
		rs, err := tab.decode(r)
		if err != nil {
			return err
		}
		run, size := int(rs>>4), int(rs&0x0F)
		if size == 0 {
			if run < 15 {
				// EOBn: 2^run blocks (including this one) end here.
				d.eobrun = 1 << run
				if run > 0 {
					extra, err := r.readBits(run)
					if err != nil {
						return err
					}
					d.eobrun += int(extra)
				}
				d.eobrun--
				return nil
			}
			k += 16 // ZRL
			continue
		}
		k += run
		if k > sc.se {
			return FormatError("AC run beyond band")
		}
		bits, err := r.readBits(size)
		if err != nil {
			return err
		}
		blk[zigzag[k]] = extend(bits, size) << sc.al
		k++
	}
	return nil
}

// decodeACRefine is the refinement pass of an AC band (T.81 §G.1.2.3).
func (d *progDecoder) decodeACRefine(r *bitReader, sc *progScan, tab *huffDecoder, blk *block) error {
	p1 := int32(1) << sc.al  // new positive coefficient magnitude
	m1 := int32(-1) << sc.al // new negative coefficient magnitude

	// refineNonzero applies one correction bit to an existing coefficient.
	refineNonzero := func(ze int) error {
		bit, err := r.readBit()
		if err != nil {
			return err
		}
		if bit != 0 && blk[ze]&p1 == 0 {
			if blk[ze] >= 0 {
				blk[ze] += p1
			} else {
				blk[ze] += m1
			}
		}
		return nil
	}

	k := sc.ss
	if d.eobrun == 0 {
		for k <= sc.se {
			rs, err := tab.decode(r)
			if err != nil {
				return err
			}
			run, size := int(rs>>4), int(rs&0x0F)
			var newVal int32
			if size == 0 {
				if run < 15 {
					d.eobrun = 1 << run
					if run > 0 {
						extra, err := r.readBits(run)
						if err != nil {
							return err
						}
						d.eobrun += int(extra)
					}
					break // the EOB path below finishes this block
				}
				// ZRL: skip 16 zero-history coefficients (corrections
				// still consumed for nonzero ones along the way).
			} else {
				if size != 1 {
					return FormatError("AC refinement with size != 1")
				}
				bit, err := r.readBit()
				if err != nil {
					return err
				}
				if bit != 0 {
					newVal = p1
				} else {
					newVal = m1
				}
			}
			// Advance over `run` zero-history coefficients, refining
			// nonzero ones as they are passed.
			for k <= sc.se {
				ze := zigzag[k]
				if blk[ze] != 0 {
					if err := refineNonzero(ze); err != nil {
						return err
					}
				} else {
					if run == 0 {
						break
					}
					run--
				}
				k++
			}
			if size != 0 {
				if k > sc.se {
					return FormatError("AC refinement run beyond band")
				}
				blk[zigzag[k]] = newVal
			}
			k++
		}
	}
	if d.eobrun > 0 {
		// End-of-band: only corrections for already-nonzero coefficients
		// remain in this block.
		for ; k <= sc.se; k++ {
			ze := zigzag[k]
			if blk[ze] != 0 {
				if err := refineNonzero(ze); err != nil {
					return err
				}
			}
		}
		d.eobrun--
	}
	return nil
}
