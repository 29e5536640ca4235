package jpeg

import "encoding/binary"

// Minimal EXIF support: the Orientation tag (0x0112), which phone
// uploads routinely carry and an inference front end must honour. We
// parse APP1 far enough to find IFD0's Orientation entry and expose it
// (like libjpeg, the decoder itself never rotates pixels).

const orientationTag = 0x0112

// parseEXIFOrientation extracts the Orientation value (1–8) from an
// APP1 payload, returning 0 when absent or malformed — EXIF is
// best-effort metadata and must never fail a decode.
func parseEXIFOrientation(seg []byte) int {
	if len(seg) < 6+8 || string(seg[:6]) != "Exif\x00\x00" {
		return 0
	}
	tiff := seg[6:]
	var order binary.ByteOrder
	switch {
	case tiff[0] == 'I' && tiff[1] == 'I':
		order = binary.LittleEndian
	case tiff[0] == 'M' && tiff[1] == 'M':
		order = binary.BigEndian
	default:
		return 0
	}
	if order.Uint16(tiff[2:]) != 42 {
		return 0
	}
	ifd := int64(order.Uint32(tiff[4:]))
	if ifd < 8 || ifd+2 > int64(len(tiff)) {
		return 0
	}
	count := int(order.Uint16(tiff[ifd:]))
	pos := ifd + 2
	for i := 0; i < count; i++ {
		if pos+12 > int64(len(tiff)) {
			return 0
		}
		entry := tiff[pos : pos+12]
		pos += 12
		if order.Uint16(entry) != orientationTag {
			continue
		}
		// Orientation is a SHORT with count 1; the value sits in the
		// first two bytes of the inline value field.
		if order.Uint16(entry[2:]) != 3 || order.Uint32(entry[4:]) != 1 {
			return 0
		}
		v := int(order.Uint16(entry[8:]))
		if v < 1 || v > 8 {
			return 0
		}
		return v
	}
	return 0
}

// exifAPP1 builds a minimal APP1 payload carrying only the Orientation
// tag, for the encoder (and for tests to round-trip against).
func exifAPP1(orientation int) []byte {
	// Exif\0\0 + little-endian TIFF header + one-entry IFD0.
	seg := make([]byte, 6+8+2+12+4)
	copy(seg, "Exif\x00\x00")
	tiff := seg[6:]
	tiff[0], tiff[1] = 'I', 'I'
	binary.LittleEndian.PutUint16(tiff[2:], 42)
	binary.LittleEndian.PutUint32(tiff[4:], 8) // IFD0 right after header
	binary.LittleEndian.PutUint16(tiff[8:], 1) // one entry
	entry := tiff[10:]
	binary.LittleEndian.PutUint16(entry[0:], orientationTag)
	binary.LittleEndian.PutUint16(entry[2:], 3) // SHORT
	binary.LittleEndian.PutUint32(entry[4:], 1) // count
	binary.LittleEndian.PutUint16(entry[8:], uint16(orientation))
	// next-IFD offset = 0 (the trailing four zero bytes)
	return seg
}
