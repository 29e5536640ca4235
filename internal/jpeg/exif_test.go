package jpeg

import "testing"

// TestEXIFOrientationRoundTrip: every orientation the encoder writes reads
// back through DecodeConfig, and the decoder never rotates pixels — the
// stream decodes exactly as the same image written without EXIF.
func TestEXIFOrientationRoundTrip(t *testing.T) {
	img := smoothImage(24, 16, 3, 4)
	noEXIF, err := Encode(img, EncodeOptions{Quality: 90})
	if err != nil {
		t.Fatal(err)
	}
	plain, err := Decode(noEXIF)
	if err != nil {
		t.Fatal(err)
	}
	for o := 1; o <= 8; o++ {
		data, err := Encode(img, EncodeOptions{Quality: 90, Orientation: o})
		if err != nil {
			t.Fatalf("o=%d: %v", o, err)
		}
		cfg, err := DecodeConfig(data)
		if err != nil {
			t.Fatal(err)
		}
		if cfg.Orientation != o {
			t.Fatalf("orientation %d read back as %d", o, cfg.Orientation)
		}
		got, err := Decode(data)
		if err != nil {
			t.Fatal(err)
		}
		if d, _ := got.MaxAbsDiff(plain); got.W != 24 || got.H != 16 || d != 0 {
			t.Fatalf("o=%d: EXIF changed the decode (%dx%d, max diff %d)", o, got.W, got.H, d)
		}
	}
}

func TestEXIFAbsentAndBigEndian(t *testing.T) {
	img := smoothImage(16, 16, 3, 5)
	data, err := Encode(img, EncodeOptions{Quality: 90})
	if err != nil {
		t.Fatal(err)
	}
	cfg, err := DecodeConfig(data)
	if err != nil {
		t.Fatal(err)
	}
	if cfg.Orientation != 0 {
		t.Fatalf("orientation without EXIF = %d", cfg.Orientation)
	}
	// Big-endian TIFF header variant.
	seg := exifAPP1(6)
	tiff := seg[6:]
	// Rewrite as MM big-endian.
	tiff[0], tiff[1] = 'M', 'M'
	tiff[2], tiff[3] = 0, 42
	tiff[4], tiff[5], tiff[6], tiff[7] = 0, 0, 0, 8
	tiff[8], tiff[9] = 0, 1
	entry := tiff[10:]
	entry[0], entry[1] = 0x01, 0x12
	entry[2], entry[3] = 0, 3
	entry[4], entry[5], entry[6], entry[7] = 0, 0, 0, 1
	entry[8], entry[9] = 0, 6
	if o := parseEXIFOrientation(seg); o != 6 {
		t.Fatalf("big-endian EXIF orientation = %d", o)
	}
}

func TestEXIFMalformedIgnored(t *testing.T) {
	cases := map[string][]byte{
		"empty":       nil,
		"short":       []byte("Exif\x00\x00II"),
		"bad magic":   []byte("NotExifAtAllPadPadPad"),
		"bad order":   append([]byte("Exif\x00\x00XX"), make([]byte, 12)...),
		"bad 42":      append([]byte("Exif\x00\x00II\x00\x00"), make([]byte, 12)...),
		"ifd overrun": append([]byte("Exif\x00\x00II\x2a\x00\xff\xff\xff\x7f"), make([]byte, 4)...),
	}
	for name, seg := range cases {
		if o := parseEXIFOrientation(seg); o != 0 {
			t.Errorf("%s: orientation = %d, want 0", name, o)
		}
	}
	good := exifAPP1(3)
	// Out-of-range orientation value → ignored.
	good[6+10+8] = 9
	if o := parseEXIFOrientation(good); o != 0 {
		t.Errorf("orientation 9 accepted: %d", o)
	}
	// Wrong type → ignored.
	good = exifAPP1(3)
	good[6+10+2] = 4
	if o := parseEXIFOrientation(good); o != 0 {
		t.Errorf("wrong-type entry accepted: %d", o)
	}
}

func TestEXIFOnProgressiveStream(t *testing.T) {
	img := smoothImage(20, 14, 3, 6)
	// Progressive encoder does not write EXIF itself; splice the APP1
	// in after SOI and confirm both walkers surface it.
	prog, err := EncodeProgressive(img, EncodeOptions{Quality: 88})
	if err != nil {
		t.Fatal(err)
	}
	app1 := exifAPP1(8)
	seg := append([]byte{0xFF, mAPP1, byte((len(app1) + 2) >> 8), byte(len(app1) + 2)}, app1...)
	spliced := append([]byte{0xFF, 0xD8}, seg...)
	spliced = append(spliced, prog[2:]...)
	cfg, err := DecodeConfig(spliced)
	if err != nil {
		t.Fatal(err)
	}
	if cfg.Orientation != 8 {
		t.Fatalf("progressive orientation = %d", cfg.Orientation)
	}
	got, err := Decode(spliced)
	if err != nil {
		t.Fatal(err)
	}
	if got.W != 20 || got.H != 14 {
		t.Fatalf("decoded geometry %dx%d", got.W, got.H)
	}
}
